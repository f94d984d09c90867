#include "common/coord_block.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"

namespace sbon {

void CoordBlock::Reset(size_t dims, size_t nodes) {
  dims_ = dims;
  nodes_ = nodes;
  if (stride_ < nodes || data_.size() < dims * stride_) {
    stride_ = std::max(nodes, stride_);
    data_.assign(dims_ * stride_, 0.0);
  } else {
    std::fill(data_.begin(), data_.begin() + dims_ * stride_, 0.0);
  }
}

void CoordBlock::EnsureNodes(size_t nodes) {
  if (nodes <= nodes_) return;
  if (nodes <= stride_) {
    nodes_ = nodes;
    return;  // new slots already zero: Reset/growth zero-fill the lanes
  }
  const size_t new_stride = std::max(nodes, stride_ * 2);
  std::vector<double> grown(dims_ * new_stride, 0.0);
  for (size_t d = 0; d < dims_; ++d) {
    std::copy(data_.begin() + d * stride_,
              data_.begin() + d * stride_ + nodes_,
              grown.begin() + d * new_stride);
  }
  data_ = std::move(grown);
  stride_ = new_stride;
  nodes_ = nodes;
}

namespace kernels {

void DistanceSquaredToMany(const CoordBlock& b, const double* target,
                           double* out) {
  const size_t n = b.nodes();
  const size_t dims = b.dims();
  if (n == 0) return;
  assert(dims >= 1);
  {
    const double t = target[0];
    const double* l = b.lane(0);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < n; ++j) {
      const double diff = l[j] - t;
      out[j] = diff * diff;
    }
  }
  for (size_t d = 1; d < dims; ++d) {
    const double t = target[d];
    const double* l = b.lane(d);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < n; ++j) {
      const double diff = l[j] - t;
      out[j] += diff * diff;
    }
  }
}

void DistanceSquaredToMany(const CoordBlock& b, const double* target,
                           const NodeId* ids, size_t count, double* out) {
  const size_t dims = b.dims();
  if (count == 0) return;
  assert(dims >= 1);
  {
    const double t = target[0];
    const double* l = b.lane(0);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) {
      const double diff = l[ids[j]] - t;
      out[j] = diff * diff;
    }
  }
  for (size_t d = 1; d < dims; ++d) {
    const double t = target[d];
    const double* l = b.lane(d);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) {
      const double diff = l[ids[j]] - t;
      out[j] += diff * diff;
    }
  }
}

void DisplacementSquared(const CoordBlock& a, const CoordBlock& b,
                         const NodeId* ids, size_t count, double* out) {
  const size_t dims = a.dims();
  assert(dims == b.dims());
  if (count == 0) return;
  assert(dims >= 1);
  {
    const double* la = a.lane(0);
    const double* lb = b.lane(0);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) {
      const double diff = la[j] - lb[ids[j]];
      out[j] = diff * diff;
    }
  }
  for (size_t d = 1; d < dims; ++d) {
    const double* la = a.lane(d);
    const double* lb = b.lane(d);
    SBON_SIMD_LOOP
    for (size_t j = 0; j < count; ++j) {
      const double diff = la[j] - lb[ids[j]];
      out[j] += diff * diff;
    }
  }
}

void SqrtMany(double* v, size_t count) {
  SBON_SIMD_LOOP
  for (size_t j = 0; j < count; ++j) v[j] = std::sqrt(v[j]);
}

double DistanceSquaredAt(const CoordBlock& b, size_t node,
                         const double* target) {
  const double* base = b.lane(0) + node;
  const size_t stride = b.stride();
  const size_t dims = b.dims();
  double s = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    const double diff = base[d * stride] - target[d];
    s += diff * diff;
  }
  return s;
}

}  // namespace kernels

}  // namespace sbon
