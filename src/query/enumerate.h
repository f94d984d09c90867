#ifndef SBON_QUERY_ENUMERATE_H_
#define SBON_QUERY_ENUMERATE_H_

#include <cstddef>
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

/// Enumerates candidate logical plans for `spec` using dynamic programming
/// over stream subsets with top-K pruning (paper Sec. 2.1: "dynamic
/// programming with pruning or some other enumeration algorithm"). Bushy
/// trees are explored; memory is O(2^n * top_k) for n streams, and a query
/// of more than `kMaxStreams` streams is rejected.
///
/// Returned plans are distinct join shapes, annotated with rates, best
/// (lowest data volume) first. Per-stream filters are pushed to the leaves;
/// an aggregate (if any) sits directly under the consumer.
StatusOr<std::vector<LogicalPlan>> EnumeratePlans(
    const QuerySpec& spec, const Catalog& catalog,
    const EnumerationOptions& options);

}  // namespace sbon::query

#endif  // SBON_QUERY_ENUMERATE_H_
