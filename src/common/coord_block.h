#ifndef SBON_COMMON_COORD_BLOCK_H_
#define SBON_COMMON_COORD_BLOCK_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/vec.h"

namespace sbon {

/// Structure-of-arrays coordinate store: one contiguous row-major `double`
/// block of `dims` per-dimension lanes, each lane holding one value per
/// node. Lane `d` is unit-stride over node index, so batched sweeps
/// (distance to a target over every candidate, displacement scans between
/// two blocks) vectorize across candidates while keeping each candidate's
/// accumulation order identical to the scalar per-`Vec` code — which is
/// what keeps fixed-seed results bit-identical across the layout change.
///
/// `Vec` remains the value type at API edges: `NodeVec`/`SetNode` convert
/// between the lane layout and a dense per-node vector.
class CoordBlock {
 public:
  CoordBlock() = default;
  CoordBlock(size_t dims, size_t nodes) { Reset(dims, nodes); }

  /// Re-shapes to `dims x nodes`, zero-filling every value. Keeps the
  /// existing heap allocation when it is large enough.
  void Reset(size_t dims, size_t nodes);

  /// Grows the node count (zero-filling new slots, preserving existing
  /// ones). Capacity grows geometrically, so incremental one-node growth —
  /// the index publish path — stays amortized O(dims) per call.
  void EnsureNodes(size_t nodes);

  size_t dims() const { return dims_; }
  size_t nodes() const { return nodes_; }
  /// Distance (in doubles) between consecutive lanes; >= nodes().
  size_t stride() const { return stride_; }

  double* lane(size_t d) {
    assert(d < dims_);
    return data_.data() + d * stride_;
  }
  const double* lane(size_t d) const {
    assert(d < dims_);
    return data_.data() + d * stride_;
  }

  double At(size_t d, size_t node) const {
    assert(d < dims_ && node < nodes_);
    return data_[d * stride_ + node];
  }
  double& At(size_t d, size_t node) {
    assert(d < dims_ && node < nodes_);
    return data_[d * stride_ + node];
  }

  /// Writes one node's coordinate from a dense vector (dims must match).
  void SetNode(size_t node, const Vec& v) {
    assert(v.dims() == dims_);
    SetNode(node, v.data());
  }
  /// Writes one node's coordinate from `dims()` contiguous doubles.
  void SetNode(size_t node, const double* v) {
    assert(node < nodes_);
    for (size_t d = 0; d < dims_; ++d) data_[d * stride_ + node] = v[d];
  }

  /// Materializes one node's coordinate as a dense `Vec` (a copy).
  Vec NodeVec(size_t node) const {
    assert(node < nodes_);
    Vec v(dims_);
    double* out = v.data();
    for (size_t d = 0; d < dims_; ++d) out[d] = data_[d * stride_ + node];
    return v;
  }
  /// Copies one node's coordinate into `dims()` contiguous doubles.
  void NodeTo(size_t node, double* out) const {
    assert(node < nodes_);
    for (size_t d = 0; d < dims_; ++d) out[d] = data_[d * stride_ + node];
  }

 private:
  size_t dims_ = 0;
  size_t nodes_ = 0;
  size_t stride_ = 0;
  std::vector<double> data_;  // dims_ lanes of stride_ doubles each
};

namespace kernels {

/// out[j] = squared distance from node j's coordinate in `b` to `target`
/// (`target` has b.dims() contiguous doubles), for every j in [0, b.nodes()).
/// Per element the accumulation runs dims-ascending, exactly like
/// `Vec::DistanceSquaredTo`.
void DistanceSquaredToMany(const CoordBlock& b, const double* target,
                           double* out);

/// Gather form: out[j] = squared distance from node ids[j] to `target`.
void DistanceSquaredToMany(const CoordBlock& b, const double* target,
                           const NodeId* ids, size_t count, double* out);

/// out[j] = squared distance between node j of `a` and node ids[j] of `b` —
/// the refresh displacement scan (`a` is positional scratch, `b` is
/// addressed by node id). Blocks must have equal dims.
void DisplacementSquared(const CoordBlock& a, const CoordBlock& b,
                         const NodeId* ids, size_t count, double* out);

/// v[j] = sqrt(v[j]) for j in [0, count).
void SqrtMany(double* v, size_t count);

/// Squared distance from one node of `b` to `target` — the single-pair form
/// with the same dims-ascending accumulation order as the batched sweeps.
double DistanceSquaredAt(const CoordBlock& b, size_t node,
                         const double* target);

}  // namespace kernels

}  // namespace sbon

#endif  // SBON_COMMON_COORD_BLOCK_H_
