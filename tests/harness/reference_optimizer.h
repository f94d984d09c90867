#ifndef SBON_TESTS_HARNESS_REFERENCE_OPTIMIZER_H_
#define SBON_TESTS_HARNESS_REFERENCE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "overlay/circuit.h"
#include "overlay/sbon.h"
#include "placement/virtual_placement.h"
#include "query/catalog.h"
#include "query/plan.h"
#include "query/query_spec.h"

namespace sbon::test {

/// The exhaustive optimizer the best-first one must match: place and map
/// every candidate plan in full, in enumeration order; at a reuse radius
/// other than 0 run the optimizer's greedy reuse passes over each; and keep
/// the first strictly cheaper circuit by a local copy of the estimate
/// (network usage over physical edges in edge order, plus lambda times
/// `overlay::LoadPenalty`). Its `mapping` report bills every candidate and
/// every reuse variant.
StatusOr<core::OptimizeResult> ExhaustiveOptimize(
    const core::OptimizerConfig& config,
    const placement::VirtualPlacer& placer, const query::QuerySpec& spec,
    const query::Catalog& catalog, const overlay::Sbon& sbon);

/// Exhaustively enumerates *every* distinct join tree (bushy, all leaf
/// partitions), by ascending intermediate data rate — the oracle the
/// subset DP's optimality is tested against. Filters sit on the leaves and
/// an aggregate (if any) under the consumer, as in query::EnumeratePlans.
/// Limited to NumStreams() <= 7 (105 trees at n=5, 945 at n=6).
StatusOr<std::vector<query::LogicalPlan>> EnumerateAllPlansExhaustive(
    const query::QuerySpec& spec, const query::Catalog& catalog);

/// The subset DP that query::EnumeratePlans replaced, kept as its
/// reference: an arena node for every join considered, and per subset all
/// candidates collected, sorted by (cost, shape hash) and deduplicated down
/// to the `top_k` cheapest distinct shapes. Same validation, same plans.
StatusOr<std::vector<query::LogicalPlan>> ReferenceEnumeratePlans(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    size_t top_k);

/// The first difference between two circuits' plan ops (kind, stream,
/// children, output rate) or vertices (host, `reused` flag, service id), as
/// text; "" when they agree.
std::string CircuitDiff(const overlay::Circuit& a, const overlay::Circuit& b);

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_REFERENCE_OPTIMIZER_H_
