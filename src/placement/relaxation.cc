#include "placement/relaxation.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

namespace sbon::placement {

using internal::SweepFrame;
using internal::SweepRow;
using internal::SweepTerm;

namespace {

bool HasPlaceable(const overlay::Circuit& circuit) {
  for (int v = 0; v < static_cast<int>(circuit.NumVertices()); ++v) {
    if (circuit.Placeable(v)) return true;
  }
  return false;
}

// Calls `fn(std::integral_constant<size_t, kDims>)` once: kDims is the
// space's vector dimension count for 2 and 3 (the library's spaces), so the
// sweep bodies run with every per-component loop unrolled; any other count
// runs the same bodies at kDims = 0, which reads the frame's runtime count.
template <typename Fn>
void DispatchDims(size_t dims, Fn&& fn) {
  switch (dims) {
    case 2:
      fn(std::integral_constant<size_t, 2>());
      break;
    case 3:
      fn(std::integral_constant<size_t, 3>());
      break;
    default:
      fn(std::integral_constant<size_t, 0>());
      break;
  }
}

// Moves a placeable vertex to `num / den` (target written into `num`) and
// returns the squared distance it moved: `Vec::operator/`, then
// `DistanceTo`'s sum from the old position, component order unchanged.
// Sweeps take the sqrt of the largest squared move only: a correctly
// rounded sqrt is monotone, so that equals the largest `DistanceTo`.
inline double MoveTo(double* cur, double* num, double den, size_t dims) {
  double s = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    num[d] /= den;
    const double diff = cur[d] - num[d];
    s += diff * diff;
  }
  for (size_t d = 0; d < dims; ++d) cur[d] = num[d];
  return s;
}

// Spring-system Gauss-Seidel sweeps: each placeable vertex moves to the
// rate-weighted average of its neighbors' anchors. The denominator is the
// row's hoisted rate sum, the same sum in the same order as a per-sweep
// `den += rate`.
template <size_t kDims>
void SpringSweeps(SweepFrame* frame, const RelaxationPlacer::Params& params) {
  const size_t dims = kDims != 0 ? kDims : frame->dims();
  double local[kDims != 0 ? kDims : 1];
  double* num = kDims != 0 ? local : frame->accum();
  const SweepTerm* terms = frame->terms();
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move_sq = 0.0;
    for (const SweepRow& row : frame->rows()) {
      if (row.rate_sum <= 0.0) continue;
      for (size_t d = 0; d < dims; ++d) num[d] = 0.0;
      for (size_t t = row.begin; t < row.end; ++t) {
        const double* a = terms[t].anchor;
        const double rate = terms[t].rate;
        for (size_t d = 0; d < dims; ++d) num[d] += a[d] * rate;
      }
      max_move_sq = std::max(max_move_sq,
                             MoveTo(row.coord, num, row.rate_sum, dims));
    }
    if (std::sqrt(max_move_sq) < params.tolerance) break;
  }
}

// Weiszfeld sweeps for the rate-weighted geometric median of each
// placeable vertex's neighbor anchors.
template <size_t kDims>
void WeiszfeldSweeps(SweepFrame* frame, const GradientPlacer::Params& params) {
  const size_t dims = kDims != 0 ? kDims : frame->dims();
  double local[kDims != 0 ? kDims : 1];
  double* num = kDims != 0 ? local : frame->accum();
  const SweepTerm* terms = frame->terms();
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move_sq = 0.0;
    for (const SweepRow& row : frame->rows()) {
      for (size_t d = 0; d < dims; ++d) num[d] = 0.0;
      double den = 0.0;
      const double* cur = row.coord;
      for (size_t t = row.begin; t < row.end; ++t) {
        const double* a = terms[t].anchor;
        double s = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          const double diff = cur[d] - a[d];
          s += diff * diff;
        }
        const double w =
            terms[t].rate /
            std::max(std::sqrt(s), GradientPlacer::kDistanceGuard);
        for (size_t d = 0; d < dims; ++d) num[d] += a[d] * w;
        den += w;
      }
      if (den <= 0.0) continue;
      max_move_sq =
          std::max(max_move_sq, MoveTo(row.coord, num, den, dims));
    }
    if (std::sqrt(max_move_sq) < params.tolerance) break;
  }
}

}  // namespace

Status RelaxationPlacer::Place(overlay::Circuit* circuit,
                               const coords::CostSpace& space) const {
  if (!HasPlaceable(*circuit)) return Status::OK();
  SweepFrame frame(circuit, space, &buffers_);
  DispatchDims(frame.dims(), [&](auto dims) {
    SpringSweeps<decltype(dims)::value>(&frame, params_);
  });
  return Status::OK();
}

Status CentroidPlacer::Place(overlay::Circuit* circuit,
                             const coords::CostSpace& space) const {
  const SweepFrame seeded(circuit, space, &buffers_);  // construction seeds
  return Status::OK();
}

Status GradientPlacer::Place(overlay::Circuit* circuit,
                             const coords::CostSpace& space) const {
  if (!HasPlaceable(*circuit)) return Status::OK();
  // Seed from the spring equilibrium: Weiszfeld sweeps are monotone
  // non-increasing in the linear objective (each per-vertex step minimizes
  // an MM majorizer), so starting there guarantees the result is at least
  // as good as relaxation on sum(rate * dist) — and avoids the coordinate-
  // descent stalls the centroid seed can hit at non-smooth points.
  SweepFrame frame(circuit, space, &buffers_);
  DispatchDims(frame.dims(), [&](auto dims) {
    SpringSweeps<decltype(dims)::value>(&frame, RelaxationPlacer::Params());
    WeiszfeldSweeps<decltype(dims)::value>(&frame, params_);
  });
  return Status::OK();
}

namespace {

// Vertex i's anchor, read in place: a pinned or reused vertex's host column
// of `space.vector_block()` (one value per lane), a placeable vertex's
// `virtual_coord`.
struct AnchorView {
  const double* p;
  size_t stride;
};

AnchorView Anchor(const overlay::Circuit& c, int i, const CoordBlock& block) {
  const overlay::CircuitVertex& v = c.vertex(i);
  if (v.pinned || v.reused) return {block.lane(0) + v.host, block.stride()};
  return {v.virtual_coord.data(), 1};
}

// The physical edge's anchor distance, `Vec::DistanceTo`'s arithmetic.
double EdgeDistance(const overlay::Circuit& c, const overlay::CircuitEdge& e,
                    const CoordBlock& block) {
  const AnchorView from = Anchor(c, e.from, block);
  const AnchorView to = Anchor(c, e.to, block);
  double s = 0.0;
  for (size_t d = 0; d < block.dims(); ++d) {
    const double diff = from.p[d * from.stride] - to.p[d * to.stride];
    s += diff * diff;
  }
  return std::sqrt(s);
}

}  // namespace

double VirtualLinearCost(const overlay::Circuit& circuit,
                         const coords::CostSpace& space) {
  const CoordBlock& block = space.vector_block();
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    total += e.rate_bytes_per_s * EdgeDistance(circuit, e, block);
  }
  return total;
}

double VirtualQuadraticCost(const overlay::Circuit& circuit,
                            const coords::CostSpace& space) {
  const CoordBlock& block = space.vector_block();
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const double d = EdgeDistance(circuit, e, block);
    total += e.rate_bytes_per_s * d * d;
  }
  return total;
}

}  // namespace sbon::placement
