#ifndef SBON_COORDS_COST_SPACE_H_
#define SBON_COORDS_COST_SPACE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/coord_block.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/vec.h"
#include "coords/weighting.h"

namespace sbon::coords {

/// Specification of one scalar dimension (paper Sec. 3.1): a single-node
/// property (CPU load, memory, ...) mapped into the space through a
/// deployer-supplied weighting function.
struct ScalarDimSpec {
  std::string name;
  std::shared_ptr<const WeightingFn> weighting;
};

/// The semantics of a cost space: how many vector (relational) dimensions it
/// has and which scalar dimensions with which weighting functions. Per the
/// paper, "the semantics of a particular cost space must be known by all
/// nodes in the SBON"; in this library a single `CostSpaceSpec` instance is
/// shared by everything operating in the same space.
class CostSpaceSpec {
 public:
  CostSpaceSpec(size_t vector_dims, std::vector<ScalarDimSpec> scalar_dims)
      : vector_dims_(vector_dims), scalar_dims_(std::move(scalar_dims)) {}

  /// Convenience: a latency-only space ("pure latency space", Sec. 3.1).
  static CostSpaceSpec LatencyOnly(size_t vector_dims = 2);

  /// Convenience: the paper's Figure 2 space — 2 latency dimensions plus a
  /// squared-CPU-load scalar dimension, scaled so a fully loaded node sits
  /// `load_scale` ms "away" from an idle one.
  static CostSpaceSpec LatencyAndLoad(size_t vector_dims = 2,
                                      double load_scale = 100.0);

  size_t vector_dims() const { return vector_dims_; }
  size_t num_scalar_dims() const { return scalar_dims_.size(); }
  size_t total_dims() const { return vector_dims_ + scalar_dims_.size(); }
  const ScalarDimSpec& scalar_dim(size_t i) const { return scalar_dims_[i]; }

 private:
  size_t vector_dims_;
  std::vector<ScalarDimSpec> scalar_dims_;
};

/// The live cost space: per-node vector coordinates (maintained by a network
/// coordinate system such as Vivaldi) plus per-node raw scalar metrics
/// (maintained by monitoring). A point in this space corresponds to a
/// physical node (paper Sec. 3.1).
///
/// Storage is structure-of-arrays (`CoordBlock` lanes): batched evaluations
/// — candidate-set distances, the refresh displacement scan — sweep
/// unit-stride lanes, and `Vec` access materializes copies at the API edge.
/// Weighted scalar coordinates are cached at metric-write time (weighting
/// functions are pure), so every read path sees the same values the
/// compute-on-read implementation produced.
class CostSpace {
 public:
  CostSpace(CostSpaceSpec spec, size_t num_nodes);

  const CostSpaceSpec& spec() const { return spec_; }
  size_t NumNodes() const { return vector_coords_.nodes(); }

  /// Installs the vector-part coordinate of a node (dims must match spec).
  Status SetVectorCoord(NodeId n, const Vec& coord);
  /// Installs the raw (unweighted) scalar metric of a node for dim `i`.
  Status SetScalarMetric(NodeId n, size_t i, double raw);

  /// Vector part of the node's coordinate, materialized as a value.
  Vec VectorCoord(NodeId n) const { return vector_coords_.NodeVec(n); }
  /// Raw scalar metric before weighting.
  double RawScalar(NodeId n, size_t i) const { return raw_scalars_.At(i, n); }
  /// Weighted scalar coordinate w_i(raw).
  double WeightedScalar(NodeId n, size_t i) const {
    return weighted_scalars_.At(i, n);
  }
  /// Sum of weighted scalar coordinates — the node's total penalty; used as
  /// the load term of circuit cost.
  double ScalarPenalty(NodeId n) const;
  /// min(0, smallest ScalarPenalty of any node): no node's penalty is
  /// lower. O(1) while no weighted scalar is negative (every penalty is
  /// then a sum of non-negative terms); a scan of every node otherwise.
  double PenaltyFloor() const;

  /// Full coordinate: vector dims followed by weighted scalar dims.
  Vec FullCoord(NodeId n) const;

  /// Distance in the vector subspace only (what virtual placement uses —
  /// "the virtual placement algorithm operates only over the vector cost
  /// dimensions", Sec. 3.2).
  double VectorDistance(NodeId a, NodeId b) const;

  /// The ideal target over `vector_point`: its vector part followed by a
  /// zero in every scalar dimension ("the ideal scalar components will all
  /// be zero", Sec. 3.2). Physical mapping asks the coordinate index for
  /// the nodes nearest it; reuse pruning searches a sphere around it.
  Vec IdealTarget(const Vec& vector_point) const;

  // --- structure-of-arrays access and batched kernels ---------------------

  /// The vector-part lanes (vector_dims x NumNodes), read-only.
  const CoordBlock& vector_block() const { return vector_coords_; }

  /// Bulk-copies the vector part from a lane-major block of the same shape
  /// (the per-epoch Vivaldi -> cost-space sync).
  void SyncVectorFrom(const CoordBlock& coords);

  /// Writes the full coordinates of nodes[0..count) into `out` node slots
  /// [0, count): vector lanes first, then the cached weighted scalar lanes.
  /// `out` must be shaped total_dims x (>= count).
  void FullCoordsInto(const NodeId* nodes, size_t count,
                      CoordBlock* out) const;

  /// Vector subspace distances over a candidate set: out[j] is the
  /// distance from nodes[j] to `vector_point`.
  void VectorDistancesToMany(const Vec& vector_point, const NodeId* nodes,
                             size_t count, double* out) const;

 private:
  CostSpaceSpec spec_;
  CoordBlock vector_coords_;     // vector_dims x N lanes
  CoordBlock raw_scalars_;       // num_scalar_dims x N lanes
  CoordBlock weighted_scalars_;  // num_scalar_dims x N lanes, w_i(raw) cache
  size_t negative_scalars_ = 0;  // entries of weighted_scalars_ below 0
};

}  // namespace sbon::coords

#endif  // SBON_COORDS_COST_SPACE_H_
