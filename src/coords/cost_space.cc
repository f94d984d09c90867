#include "coords/cost_space.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace sbon::coords {

CostSpaceSpec CostSpaceSpec::LatencyOnly(size_t vector_dims) {
  return CostSpaceSpec(vector_dims, {});
}

CostSpaceSpec CostSpaceSpec::LatencyAndLoad(size_t vector_dims,
                                            double load_scale) {
  std::vector<ScalarDimSpec> scalars;
  scalars.push_back(ScalarDimSpec{
      "cpu_load", std::make_shared<SquaredWeighting>(load_scale)});
  return CostSpaceSpec(vector_dims, std::move(scalars));
}

CostSpace::CostSpace(CostSpaceSpec spec, size_t num_nodes)
    : spec_(std::move(spec)),
      vector_coords_(spec_.vector_dims(), num_nodes),
      raw_scalars_(spec_.num_scalar_dims(), num_nodes),
      weighted_scalars_(spec_.num_scalar_dims(), num_nodes) {
  // The weighted cache must hold w_i(0) for the all-zero initial metrics —
  // not necessarily zero (weightings are only required to be >= 0).
  for (size_t i = 0; i < spec_.num_scalar_dims(); ++i) {
    const double w0 = spec_.scalar_dim(i).weighting->Apply(0.0);
    double* lane = weighted_scalars_.lane(i);
    for (size_t n = 0; n < num_nodes; ++n) lane[n] = w0;
    if (w0 < 0.0) negative_scalars_ += num_nodes;
  }
}

Status CostSpace::SetVectorCoord(NodeId n, const Vec& coord) {
  if (n >= NumNodes()) return Status::OutOfRange("node id");
  if (coord.dims() != spec_.vector_dims()) {
    return Status::InvalidArgument("vector coord dims mismatch");
  }
  vector_coords_.SetNode(n, coord);
  return Status::OK();
}

Status CostSpace::SetScalarMetric(NodeId n, size_t i, double raw) {
  if (n >= NumNodes()) return Status::OutOfRange("node id");
  if (i >= spec_.num_scalar_dims()) {
    return Status::OutOfRange("scalar dim index");
  }
  raw_scalars_.At(i, n) = raw;
  // Weightings are pure functions, so caching at write time returns exactly
  // what compute-on-read returned.
  double& weighted = weighted_scalars_.At(i, n);
  if (weighted < 0.0) --negative_scalars_;
  weighted = spec_.scalar_dim(i).weighting->Apply(raw);
  if (weighted < 0.0) ++negative_scalars_;
  return Status::OK();
}

double CostSpace::ScalarPenalty(NodeId n) const {
  double s = 0.0;
  for (size_t i = 0; i < spec_.num_scalar_dims(); ++i) {
    s += weighted_scalars_.At(i, n);
  }
  return s;
}

double CostSpace::PenaltyFloor() const {
  if (negative_scalars_ == 0) return 0.0;
  double floor = 0.0;
  for (NodeId n = 0; n < NumNodes(); ++n) {
    floor = std::min(floor, ScalarPenalty(n));
  }
  return floor;
}

Vec CostSpace::FullCoord(NodeId n) const {
  Vec out = vector_coords_.NodeVec(n);
  for (size_t i = 0; i < spec_.num_scalar_dims(); ++i) {
    out.Append(weighted_scalars_.At(i, n));
  }
  return out;
}

double CostSpace::VectorDistance(NodeId a, NodeId b) const {
  const double* pa = vector_coords_.lane(0) + a;
  const double* pb = vector_coords_.lane(0) + b;
  const size_t stride = vector_coords_.stride();
  double s = 0.0;
  for (size_t d = 0; d < spec_.vector_dims(); ++d) {
    const double diff = pa[d * stride] - pb[d * stride];
    s += diff * diff;
  }
  return std::sqrt(s);
}

Vec CostSpace::IdealTarget(const Vec& vector_point) const {
  Vec out = vector_point;
  for (size_t i = 0; i < spec_.num_scalar_dims(); ++i) out.Append(0.0);
  return out;
}

void CostSpace::SyncVectorFrom(const CoordBlock& coords) {
  assert(coords.dims() == spec_.vector_dims());
  assert(coords.nodes() == NumNodes());
  const size_t n = NumNodes();
  for (size_t d = 0; d < spec_.vector_dims(); ++d) {
    const double* src = coords.lane(d);
    double* dst = vector_coords_.lane(d);
    for (size_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

void CostSpace::FullCoordsInto(const NodeId* nodes, size_t count,
                               CoordBlock* out) const {
  assert(out->dims() == spec_.total_dims());
  assert(out->nodes() >= count);
  const size_t vdims = spec_.vector_dims();
  for (size_t d = 0; d < vdims; ++d) {
    const double* src = vector_coords_.lane(d);
    double* dst = out->lane(d);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) dst[j] = src[nodes[j]];
  }
  for (size_t i = 0; i < spec_.num_scalar_dims(); ++i) {
    const double* src = weighted_scalars_.lane(i);
    double* dst = out->lane(vdims + i);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) dst[j] = src[nodes[j]];
  }
}

void CostSpace::VectorDistancesToMany(const Vec& vector_point,
                                      const NodeId* nodes, size_t count,
                                      double* out) const {
  assert(vector_point.dims() == spec_.vector_dims());
  kernels::DistanceSquaredToMany(vector_coords_, vector_point.data(), nodes,
                                 count, out);
  kernels::SqrtMany(out, count);
}

}  // namespace sbon::coords
