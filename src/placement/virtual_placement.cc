#include "placement/virtual_placement.h"

namespace sbon::placement::internal {

SweepFrame::SweepFrame(overlay::Circuit* circuit,
                       const coords::CostSpace& space, SweepBuffers* buffers)
    : dims_(space.spec().vector_dims()), buffers_(buffers) {
  SweepBuffers& b = *buffers;
  const int n = static_cast<int>(circuit->NumVertices());
  b.anchors.resize(static_cast<size_t>(n) * dims_);
  b.accum.resize(dims_);
  // Vertex i's anchor: the cached host coordinate of a pinned or reused
  // vertex, or the live `virtual_coord` storage of a placeable one.
  const auto anchor = [&](int i) -> double* {
    if (circuit->Placeable(i)) {
      return circuit->mutable_vertex(i).virtual_coord.data();
    }
    return b.anchors.data() + static_cast<size_t>(i) * dims_;
  };
  for (int i = 0; i < n; ++i) {
    if (circuit->Placeable(i)) continue;
    space.vector_block().NodeTo(circuit->vertex(i).host, anchor(i));
  }
  // Seed at the pinned centroid: each edge adds its anchored ends,
  // weighted by its rate, in edge order (`Vec::AddScaled`, then `/=`).
  double* centroid = b.accum.data();
  for (size_t d = 0; d < dims_; ++d) centroid[d] = 0.0;
  double weight = 0.0;
  for (const overlay::CircuitEdge& e : circuit->edges()) {
    for (int end : {e.from, e.to}) {
      if (circuit->Placeable(end)) continue;
      const double* a = anchor(end);
      for (size_t d = 0; d < dims_; ++d) {
        centroid[d] += a[d] * e.rate_bytes_per_s;
      }
      weight += e.rate_bytes_per_s;
    }
  }
  if (weight > 0.0) {
    for (size_t d = 0; d < dims_; ++d) centroid[d] /= weight;
  }
  for (int i = 0; i < n; ++i) {
    if (!circuit->Placeable(i)) continue;
    circuit->mutable_vertex(i).virtual_coord.AssignFrom(centroid, dims_);
  }
  // The term table, built once every placeable coordinate has its final
  // storage.
  // Each edge adds at most one term per end.
  b.rows.clear();
  b.rows.reserve(static_cast<size_t>(n));
  b.terms.clear();
  b.terms.reserve(2 * circuit->edges().size());
  for (int v = 0; v < n; ++v) {
    if (!circuit->Placeable(v)) continue;
    SweepRow row{anchor(v), 0.0, b.terms.size(), 0};
    for (const auto& [edge_idx, other] : circuit->IncidentEdges(v)) {
      const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
      if (rate <= 0.0) continue;
      b.terms.push_back(SweepTerm{rate, anchor(other)});
      row.rate_sum += rate;
    }
    row.end = b.terms.size();
    b.rows.push_back(row);
  }
}

}  // namespace sbon::placement::internal
