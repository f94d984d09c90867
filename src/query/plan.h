#ifndef SBON_QUERY_PLAN_H_
#define SBON_QUERY_PLAN_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "query/catalog.h"

namespace sbon::query {

/// Kinds of logical operators ("services" once instantiated in the SBON —
/// the paper uses the broader term because in-network code need not be a
/// classical database operator).
enum class OpKind : uint8_t {
  kProducer,   ///< Leaf: a pinned stream source.
  kSelect,     ///< Stateless filter with a selectivity.
  kJoin,       ///< Binary windowed stream join.
  kAggregate,  ///< Windowed aggregation shrinking the rate by a factor.
  kConsumer,   ///< Root: the pinned query sink.
};

const char* OpKindName(OpKind k);

/// The children of one op: at most two (a join's), stored in place. A
/// producer has none; select, aggregate and consumer ops have one.
class ChildList {
 public:
  const int* begin() const { return at_.data(); }
  const int* end() const { return at_.data() + count_; }
  size_t size() const { return count_; }
  int operator[](size_t i) const { return at_[i]; }
  bool operator==(const ChildList& o) const {
    return std::equal(begin(), end(), o.begin(), o.end());
  }

 private:
  friend class LogicalPlan;
  std::array<int, 2> at_{};
  uint8_t count_ = 0;
};

/// One operator of a logical plan. Plans are DAG-free trees stored in an
/// index-addressed arena (children refer to earlier indices).
struct PlanOp {
  OpKind kind = OpKind::kProducer;
  StreamId stream = 0;        ///< kProducer only.
  double selectivity = 1.0;   ///< kSelect / kJoin.
  double rate_factor = 1.0;   ///< kAggregate: out rate = in rate * factor.
  ChildList children;         ///< Indices of child ops.
  /// Ops that list this one as a child, counted by the builders.
  int num_parents = 0;

  // Annotations filled in by LogicalPlan::AnnotateRates():
  double out_tuple_rate = 0.0;  ///< tuples/s leaving this op.
  double out_tuple_size = 0.0;  ///< bytes per output tuple.
  double out_bytes_per_s = 0.0; ///< product of the two.

  /// This op's stream set as a range of the plan's stream pool; read it
  /// through LogicalPlan::StreamSet.
  uint32_t stream_begin = 0;
  uint32_t stream_count = 0;
};

/// A logical query plan: the identity and order of services that answer a
/// query (paper Sec. 2.1). Producer leaves and the consumer root are pinned;
/// interior services are unpinned (placeable).
class LogicalPlan {
 public:
  LogicalPlan() = default;

  /// Builders; children must already exist. Return the op index.
  int AddProducer(StreamId stream);
  int AddSelect(int child, double selectivity);
  int AddJoin(int left, int right, double selectivity);
  int AddAggregate(int child, double rate_factor);
  /// Sets the consumer root over `child` at the pinned `consumer` node.
  int SetConsumer(int child, NodeId consumer);

  /// Reserves room for `num_ops` ops, so building that many allocates the
  /// op array once.
  void Reserve(size_t num_ops) { ops_.reserve(num_ops); }

  size_t NumOps() const { return ops_.size(); }
  const PlanOp& op(int i) const { return ops_[i]; }

  /// Sorted stream ids contributing to op `i`'s output (empty before
  /// AnnotateRates) — the op's *reuse signature* together with kind and
  /// parameters (two circuits computing a join over the same streams with
  /// the same predicates can share one service instance, paper Sec.
  /// 2.2/3.4). The view lasts until the plan is re-annotated, assigned to
  /// or destroyed.
  std::span<const StreamId> StreamSet(int i) const {
    return std::span<const StreamId>(stream_pool_)
        .subspan(ops_[i].stream_begin, ops_[i].stream_count);
  }

  int root() const { return root_; }
  NodeId consumer() const { return consumer_; }

  /// Structural checks: consumer root present, children valid, and every op
  /// but the root the child of exactly one op (from the builders' counts).
  Status Validate() const;

  /// Propagates tuple rates / sizes / stream sets bottom-up using the
  /// windowed-join rate model (see stats.h). Must be called before costing.
  ///
  /// Stream sets live in one pool per plan, sized once here. Producers and
  /// joins own a range of it (a join's is the merge of its children's);
  /// select, aggregate and consumer ops share their child's range. Ranges
  /// are offsets, so a copied or moved plan's sets stay valid.
  Status AnnotateRates(const Catalog& catalog, double join_window_s = 1.0);

  /// Sum over interior edges of the data rate flowing on them (bytes/s) —
  /// the network-blind "data volume" objective classical plan generation
  /// minimizes. Requires AnnotateRates.
  double IntermediateDataRate() const;

  /// Deterministic structural rendering, e.g.
  /// "C(J[0.01](J[0.1](P0,P1),P2))". Equal strings imply equal plans.
  std::string Canonical() const;

  /// 64-bit signature of the op's (kind, params, stream set) — the key used
  /// to find reusable service instances across queries.
  uint64_t OpSignature(int i) const;

 private:
  std::vector<PlanOp> ops_;
  std::vector<StreamId> stream_pool_;  ///< Backs every op's StreamSet.
  int root_ = -1;
  NodeId consumer_ = kInvalidNode;

  /// Appends `op` with at most two `children`, each of which must already
  /// exist and gains one parent. Returns the op index.
  int Append(PlanOp op, std::initializer_list<int> children);
  std::string CanonicalRec(int i) const;
};

}  // namespace sbon::query

#endif  // SBON_QUERY_PLAN_H_
