#include "placement/virtual_placement.h"

#include <vector>

namespace sbon::placement::internal {

Vec AnchorCoord(const overlay::Circuit& c, int i,
                const coords::CostSpace& space) {
  const overlay::CircuitVertex& v = c.vertex(i);
  if (v.pinned || v.reused) return space.VectorCoord(v.host);
  return v.virtual_coord;
}

namespace {

struct SweepBuffers {
  std::vector<double*> coords;  // per vertex: anchor or live virtual_coord
  std::vector<double> anchors;  // NumVertices x dims host coordinates
  std::vector<double> accum;    // dims
};

SweepBuffers& Buffers() {
  thread_local SweepBuffers buffers;
  return buffers;
}

}  // namespace

SweepFrame::SweepFrame(overlay::Circuit* circuit,
                       const coords::CostSpace& space)
    : dims_(space.spec().vector_dims()) {
  SweepBuffers& b = Buffers();
  const size_t n = circuit->NumVertices();
  b.coords.assign(n, nullptr);
  b.anchors.resize(n * dims_);
  b.accum.resize(dims_);
  for (size_t i = 0; i < n; ++i) {
    if (circuit->Placeable(static_cast<int>(i))) continue;
    b.coords[i] = b.anchors.data() + i * dims_;
    space.vector_block().NodeTo(circuit->vertex(static_cast<int>(i)).host,
                                b.coords[i]);
  }
  // Seed at the pinned centroid: each edge adds its anchored ends,
  // weighted by its rate, in edge order (`Vec::AddScaled`, then `/=`).
  double* centroid = b.accum.data();
  for (size_t d = 0; d < dims_; ++d) centroid[d] = 0.0;
  double weight = 0.0;
  for (const overlay::CircuitEdge& e : circuit->edges()) {
    for (int end : {e.from, e.to}) {
      const double* anchor = b.coords[end];
      if (anchor == nullptr) continue;
      for (size_t d = 0; d < dims_; ++d) {
        centroid[d] += anchor[d] * e.rate_bytes_per_s;
      }
      weight += e.rate_bytes_per_s;
    }
  }
  if (weight > 0.0) {
    for (size_t d = 0; d < dims_; ++d) centroid[d] /= weight;
  }
  for (size_t i = 0; i < n; ++i) {
    if (b.coords[i] != nullptr) continue;
    Vec& vc = circuit->mutable_vertex(static_cast<int>(i)).virtual_coord;
    vc.AssignFrom(centroid, dims_);
    b.coords[i] = vc.data();
  }
  coords_ = b.coords.data();
  accum_ = b.accum.data();
}

}  // namespace sbon::placement::internal
