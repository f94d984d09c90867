#include "placement/relaxation.h"

#include <algorithm>
#include <cmath>

namespace sbon::placement {

using internal::AnchorCoord;
using internal::SweepFrame;

namespace {

bool HasPlaceable(const overlay::Circuit& circuit) {
  for (int v = 0; v < static_cast<int>(circuit.NumVertices()); ++v) {
    if (circuit.Placeable(v)) return true;
  }
  return false;
}

// Moves placeable vertex v to `num / den` (target written into `num`) and
// returns how far it moved: `Vec::operator/`, then `DistanceTo` from the
// old position, component order unchanged.
double MoveTo(double* cur, double* num, double den, size_t dims) {
  double s = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    num[d] /= den;
    const double diff = cur[d] - num[d];
    s += diff * diff;
  }
  for (size_t d = 0; d < dims; ++d) cur[d] = num[d];
  return std::sqrt(s);
}

// Spring-system Gauss-Seidel sweeps: each placeable vertex moves to the
// rate-weighted average of its neighbors' anchors.
void SpringSweeps(const overlay::Circuit& circuit, SweepFrame* frame,
                  const RelaxationPlacer::Params& params) {
  const size_t dims = frame->dims();
  double* num = frame->accum();
  const int n = static_cast<int>(circuit.NumVertices());
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!circuit.Placeable(v)) continue;
      for (size_t d = 0; d < dims; ++d) num[d] = 0.0;
      double den = 0.0;
      for (const auto& [edge_idx, other] : circuit.IncidentEdges(v)) {
        const double rate = circuit.edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        const double* a = frame->coord(other);
        for (size_t d = 0; d < dims; ++d) num[d] += a[d] * rate;
        den += rate;
      }
      if (den <= 0.0) continue;
      max_move = std::max(max_move,
                          MoveTo(frame->mutable_coord(v), num, den, dims));
    }
    if (max_move < params.tolerance) break;
  }
}

}  // namespace

Status RelaxationPlacer::Place(overlay::Circuit* circuit,
                               const coords::CostSpace& space) const {
  if (!HasPlaceable(*circuit)) return Status::OK();
  SweepFrame frame(circuit, space);
  SpringSweeps(*circuit, &frame, params_);
  return Status::OK();
}

Status CentroidPlacer::Place(overlay::Circuit* circuit,
                             const coords::CostSpace& space) const {
  const SweepFrame seeded(circuit, space);  // construction seeds
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
  SweepFrame frame(circuit, space);
  SpringSweeps(*circuit, &frame, RelaxationPlacer::Params());

  const size_t dims = frame.dims();
  double* num = frame.accum();
  const int n = static_cast<int>(circuit->NumVertices());
  for (size_t sweep = 0; sweep < params_.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!circuit->Placeable(v)) continue;
      // Weiszfeld step for the rate-weighted geometric median of the
      // neighbor anchors.
      for (size_t d = 0; d < dims; ++d) num[d] = 0.0;
      double den = 0.0;
      const double* cur = frame.coord(v);
      for (const auto& [edge_idx, other] : circuit->IncidentEdges(v)) {
        const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        const double* a = frame.coord(other);
        double s = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          const double diff = cur[d] - a[d];
          s += diff * diff;
        }
        const double w = rate / std::max(std::sqrt(s), params_.epsilon);
        for (size_t d = 0; d < dims; ++d) num[d] += a[d] * w;
        den += w;
      }
      if (den <= 0.0) continue;
      max_move = std::max(max_move,
                          MoveTo(frame.mutable_coord(v), num, den, dims));
    }
    if (max_move < params_.tolerance) break;
  }
  return Status::OK();
}

namespace {

Vec EndpointCoord(const overlay::Circuit& c, int i,
                  const coords::CostSpace& space) {
  return AnchorCoord(c, i, space);
}

}  // namespace

double VirtualLinearCost(const overlay::Circuit& circuit,
                         const coords::CostSpace& space) {
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    total += e.rate_bytes_per_s *
             EndpointCoord(circuit, e.from, space)
                 .DistanceTo(EndpointCoord(circuit, e.to, space));
  }
  return total;
}

double VirtualQuadraticCost(const overlay::Circuit& circuit,
                            const coords::CostSpace& space) {
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const double d = EndpointCoord(circuit, e.from, space)
                         .DistanceTo(EndpointCoord(circuit, e.to, space));
    total += e.rate_bytes_per_s * d * d;
  }
  return total;
}

}  // namespace sbon::placement
