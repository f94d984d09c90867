#ifndef SBON_COORDS_VIVALDI_H_
#define SBON_COORDS_VIVALDI_H_

#include <vector>

#include "common/coord_block.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/vec.h"
#include "net/shortest_path.h"

namespace sbon::coords {

/// Vivaldi decentralized network coordinates (Dabek et al., SIGCOMM'04),
/// the coordinate system the paper cites for constructing latency cost
/// spaces [17]. Each node keeps a coordinate and a confidence-weighted local
/// error; pairwise RTT samples pull/push coordinates like springs.
///
/// Coordinates live in a structure-of-arrays `CoordBlock` (one contiguous
/// lane per dimension) so the epoch's update sweep runs over unit-stride
/// lanes; `Coord()` materializes a `Vec` copy at the API edge. The update
/// kernel executes the exact scalar operation sequence of the historical
/// `Vec` implementation (diff, norm, EWMA error, unit direction with the
/// deterministic zero-norm tiebreak, scaled step), so fixed-seed results
/// are bit-identical across the layout change.
class VivaldiSystem {
 public:
  struct Params {
    size_t dims = 2;
  };

  /// Vivaldi's error damping (c_e) and coordinate step (c_c) constants, at
  /// the 0.25 Dabek et al. settle on.
  static constexpr double kCe = 0.25;
  static constexpr double kCc = 0.25;
  /// Every node's local error estimate before its first sample.
  static constexpr double kInitialError = 1.0;
  /// RTT samples below this are clamped to it.
  static constexpr double kMinRttMs = 0.01;

  /// Starts every node at a tiny offset drawn from `rng` (not kept).
  VivaldiSystem(size_t num_nodes, const Params& params, Rng* rng);

  size_t NumNodes() const { return coords_.nodes(); }
  size_t dims() const { return params_.dims; }

  /// The node's coordinate, materialized as a value.
  Vec Coord(NodeId n) const { return coords_.NodeVec(n); }
  /// The structure-of-arrays coordinate store (lane-major, read-only).
  const CoordBlock& coords() const { return coords_; }
  double LocalError(NodeId n) const { return error_[n]; }

  /// Processes one RTT sample between `self` and `peer`, moving only `self`
  /// (each node runs the update for its own measurements, as in Vivaldi).
  void Update(NodeId self, NodeId peer, double measured_rtt_ms);

  /// Update reading the peer's state from explicit values instead of the
  /// live arrays — message mode applies a pong's carried peer state through
  /// it. `peer` is still needed for the deterministic tiebreak direction.
  void UpdateAgainst(NodeId self, NodeId peer, const Vec& peer_coord,
                     double peer_error, double measured_rtt_ms);

  /// Predicted latency between two nodes: coordinate distance.
  double Predict(NodeId a, NodeId b) const;

 private:
  /// The one spring-update implementation behind both entry points;
  /// reads the peer coordinate as `peer_base[d * peer_stride]`.
  void UpdateKernel(NodeId self, NodeId peer, const double* peer_base,
                    size_t peer_stride, double peer_error,
                    double measured_rtt_ms);

  Params params_;
  CoordBlock coords_;
  std::vector<double> error_;
};

/// Options for driving Vivaldi to convergence against a latency oracle.
struct VivaldiRunOptions {
  size_t rounds = 60;               ///< Gossip rounds.
  double rtt_noise_sigma = 0.05;    ///< Multiplicative LogNormal noise on
                                    ///< each sample (measurement error).
};

/// Runs Vivaldi over simulated RTTs from `lat` (shortest-path latencies with
/// multiplicative noise) and leaves converged coordinates in the returned
/// system. Each round every node takes 8 samples, alternating between its
/// 8 long-lived neighbors and random nodes: mixing near and far neighbors
/// is what makes Vivaldi embeddings globally accurate. Deterministic given
/// `rng`'s state.
VivaldiSystem RunVivaldi(const net::LatencyView& lat,
                         const VivaldiSystem::Params& params,
                         const VivaldiRunOptions& options, Rng* rng);

}  // namespace sbon::coords

#endif  // SBON_COORDS_VIVALDI_H_
