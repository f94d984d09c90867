#ifndef SBON_QUERY_ENUMERATE_H_
#define SBON_QUERY_ENUMERATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/catalog.h"
#include "query/plan.h"
#include "query/query_spec.h"

namespace sbon::query {

/// Most streams one query may join. The subset DP keeps one row of at most
/// `top_k` partial plans per stream subset: a table of (2^n * top_k)
/// entries, 16384 rows at this bound.
inline constexpr size_t kMaxStreams = 14;

/// Plan-enumeration options.
struct EnumerationOptions {
  /// Candidate plans to return (ranked by network-blind intermediate data
  /// rate). The integrated optimizer virtually places *all* of them; the
  /// two-step baseline only ever looks at the first. K partial plans are
  /// also retained per DP subset, so K=1 is exactly the classical DP.
  size_t top_k = 8;

  bool operator==(const EnumerationOptions&) const = default;
};

namespace internal {

/// A partial DP result over one stream subset. A join's children are
/// slots `left_slot` of subset `left` and `right_slot` of the rest.
struct Partial {
  double tuple_rate = 0.0;
  double tuple_size = 0.0;
  double cost = 0.0;  ///< bytes/s shipped on edges internal to the subtree
  uint64_t shape_hash = 0;  ///< order-insensitive structural hash for dedupe
  uint32_t left = 0;  ///< unused for a leaf (a singleton subset)
  uint32_t left_slot = 0;
  uint32_t right_slot = 0;
};

}  // namespace internal

/// Enumerates candidate logical plans using dynamic programming over
/// stream subsets with top-K pruning (paper Sec. 2.1: "dynamic programming
/// with pruning or some other enumeration algorithm"). Bushy trees are
/// explored; memory is O(2^n * top_k) for n streams, and a query of more
/// than `kMaxStreams` streams is rejected.
///
/// The enumerator owns its DP table and keeps it across calls, so a warm
/// call of the same or a smaller size allocates only the plans it returns
/// (two blocks each: the op array and the stream pool). The optimizers
/// keep one; it is not safe to share between threads.
class PlanEnumerator {
 public:
  /// Returned plans are distinct join shapes, annotated with rates, best
  /// (lowest data volume) first. Per-stream filters are pushed to the
  /// leaves; an aggregate (if any) sits directly under the consumer.
  StatusOr<std::vector<LogicalPlan>> Enumerate(
      const QuerySpec& spec, const Catalog& catalog,
      const EnumerationOptions& options);

 private:
  // One row of slots per stream subset (see enumerate.cc's Table); only
  // the first `kept_[mask]` slots of a row are read.
  std::vector<internal::Partial> slots_;
  std::vector<uint32_t> kept_;
};

/// PlanEnumerator::Enumerate on a fresh enumerator, for one-off callers.
StatusOr<std::vector<LogicalPlan>> EnumeratePlans(
    const QuerySpec& spec, const Catalog& catalog,
    const EnumerationOptions& options);

}  // namespace sbon::query

#endif  // SBON_QUERY_ENUMERATE_H_
