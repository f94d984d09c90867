#ifndef SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
#define SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_

#include <span>
#include <string>
#include <vector>

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

/// One spring of a placeable vertex: an incident edge's rate (> 0) and the
/// anchor at the edge's other end.
struct SweepTerm {
  double rate;
  const double* anchor;
};

/// A placeable vertex's row of the term table: its live `virtual_coord`
/// storage, its terms `[begin, end)`, and their rate sum.
struct SweepRow {
  double* coord;
  double rate_sum;
  size_t begin;
  size_t end;
};

/// The storage a `SweepFrame` fills. Each placer owns one.
struct SweepBuffers {
  std::vector<double> anchors;  ///< NumVertices x dims host coordinates
  std::vector<double> accum;    ///< dims
  std::vector<SweepRow> rows;   ///< per placeable vertex
  std::vector<SweepTerm> terms;
};

/// The raw-double view one `Place` call sweeps over. Construction fetches
/// every anchor's host vector coordinate once (pinned and reused vertices)
/// and seeds each placeable vertex's `virtual_coord` at the rate-weighted
/// centroid of those anchors, a deterministic start for the iterative
/// refiners. It then builds the term table: one row per placeable vertex,
/// in ascending vertex order, whose terms are its incident edges of
/// positive rate in ascending edge order. A term's anchor is the cached
/// host coordinate, or the live `virtual_coord` storage of a placeable
/// neighbor, which sweeps read and write in place, so they stay
/// Gauss-Seidel. `rate_sum` is the sum of the row's rates in term order:
/// the spring sweep's denominator, which no sweep changes, hoisted.
///
/// Bit-identity contract: sweeps over a frame write each per-component
/// expression exactly as `Vec::AddScaled`, `operator/` and `DistanceTo`
/// write it, and add each row's terms in edge order, so results equal the
/// `Vec` formulation bit for bit.
///
/// The frame fills `buffers`, which its caller owns and reuses: the buffers
/// keep their capacity, so a frame over a warm circuit (its
/// `virtual_coord`s already sized) allocates nothing. A frame is valid
/// until its buffers are next filled.
class SweepFrame {
 public:
  SweepFrame(overlay::Circuit* circuit, const coords::CostSpace& space,
             SweepBuffers* buffers);
  SweepFrame(const SweepFrame&) = delete;
  SweepFrame& operator=(const SweepFrame&) = delete;

  size_t dims() const { return dims_; }
  std::span<const SweepRow> rows() const { return buffers_->rows; }
  const SweepTerm* terms() const { return buffers_->terms.data(); }
  /// `dims()` doubles of per-vertex scratch (a sweep's numerator).
  double* accum() { return buffers_->accum.data(); }

 private:
  size_t dims_;
  SweepBuffers* buffers_;
};

}  // namespace internal

}  // namespace sbon::placement

#endif  // SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
