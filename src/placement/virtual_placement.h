#ifndef SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
#define SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_

#include <string>

#include "common/status.h"
#include "coords/cost_space.h"
#include "overlay/circuit.h"

namespace sbon::placement {

/// Computes ideal cost-space coordinates for a circuit's placeable services
/// (paper Sec. 3.2, "Virtual Placement"). Operates only over the vector
/// dimensions; scalar dimensions enter later, during physical mapping.
///
/// Implementations read the coordinates of pinned vertices (producers,
/// consumer) and of already-bound reused vertices from `space` via their
/// hosts, and write `virtual_coord` on every placeable vertex.
class VirtualPlacer {
 public:
  virtual ~VirtualPlacer() = default;

  /// Fills `virtual_coord` (vector dims) for all placeable vertices.
  /// Virtual placement is computationally cheap and instantiates nothing.
  virtual Status Place(overlay::Circuit* circuit,
                       const coords::CostSpace& space) const = 0;

  /// Identifier used in bench output.
  virtual std::string Name() const = 0;
};

namespace internal {

/// Anchor coordinate of vertex `i`: pinned and reused vertices anchor at
/// their host's vector coordinate; placeable vertices use their current
/// `virtual_coord`.
Vec AnchorCoord(const overlay::Circuit& c, int i,
                const coords::CostSpace& space);

/// The raw-double view one `Place` call sweeps over. Construction fetches
/// every anchor's host vector coordinate once (pinned and reused vertices)
/// and seeds each placeable vertex's `virtual_coord` at the rate-weighted
/// centroid of those anchors, a deterministic start for the iterative
/// refiners. `coord(i)` is then vertex i's anchor: the cached host
/// coordinate, or the live `virtual_coord` storage of a placeable vertex,
/// which sweeps read and write in place, so they stay Gauss-Seidel.
///
/// Bit-identity contract: sweeps over a frame write each per-component
/// expression exactly as `Vec::AddScaled`, `operator/` and `DistanceTo`
/// write it, so results equal the `Vec` formulation bit for bit.
///
/// The buffers are thread-local and keep their capacity, so a frame over a
/// warm circuit (its `virtual_coord`s already sized) allocates nothing.
/// At most one frame per thread may be live.
class SweepFrame {
 public:
  SweepFrame(overlay::Circuit* circuit, const coords::CostSpace& space);
  SweepFrame(const SweepFrame&) = delete;
  SweepFrame& operator=(const SweepFrame&) = delete;

  size_t dims() const { return dims_; }
  const double* coord(int i) const { return coords_[i]; }
  double* mutable_coord(int i) { return coords_[i]; }
  /// `dims()` doubles of per-vertex scratch (a sweep's numerator).
  double* accum() { return accum_; }

 private:
  size_t dims_;
  double* const* coords_;
  double* accum_;
};

}  // namespace internal

}  // namespace sbon::placement

#endif  // SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
