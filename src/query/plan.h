#ifndef SBON_QUERY_PLAN_H_
#define SBON_QUERY_PLAN_H_

#include <cstdint>
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

/// One operator of a logical plan. Plans are DAG-free trees stored in an
/// index-addressed arena (children refer to earlier indices).
struct PlanOp {
  OpKind kind = OpKind::kProducer;
  StreamId stream = 0;        ///< kProducer only.
  double selectivity = 1.0;   ///< kSelect / kJoin.
  double rate_factor = 1.0;   ///< kAggregate: out rate = in rate * factor.
  std::vector<int> children;  ///< Indices of child ops.
  /// Ops that list this one as a child, counted by the builders.
  int num_parents = 0;

  // Annotations filled in by LogicalPlan::AnnotateRates():
  double out_tuple_rate = 0.0;  ///< tuples/s leaving this op.
  double out_tuple_size = 0.0;  ///< bytes per output tuple.
  double out_bytes_per_s = 0.0; ///< product of the two.

  /// Sorted stream ids contributing to this op's output — the op's *reuse
  /// signature* together with kind and parameters (two circuits computing a
  /// join over the same streams with the same predicates can share one
  /// service instance, paper Sec. 2.2/3.4).
  std::vector<StreamId> stream_set;
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

  size_t NumOps() const { return ops_.size(); }
  const PlanOp& op(int i) const { return ops_[i]; }
  int root() const { return root_; }
  NodeId consumer() const { return consumer_; }

  /// Structural checks: consumer root present, children valid, and every op
  /// but the root the child of exactly one op (from the builders' counts).
  Status Validate() const;

  /// Propagates tuple rates / sizes / stream sets bottom-up using the
  /// windowed-join rate model (see stats.h). Must be called before costing.
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
  int root_ = -1;
  NodeId consumer_ = kInvalidNode;

  /// Appends `op` with `children`, each of which must already exist and
  /// gains one parent. Returns the op index.
  int Append(PlanOp op, std::vector<int> children);
  std::string CanonicalRec(int i) const;
};

}  // namespace sbon::query

#endif  // SBON_QUERY_PLAN_H_
