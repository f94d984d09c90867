#ifndef SBON_QUERY_WORKLOAD_H_
#define SBON_QUERY_WORKLOAD_H_

#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "query/catalog.h"
#include "query/query_spec.h"

namespace sbon::query {

/// Shape of a random query's join graph.
enum class JoinGraphShape {
  kChain,  ///< s0 - s1 - s2 - ... (predicates between neighbors only)
  kStar,   ///< s0 joined with every other stream
  kClique, ///< predicates between every pair
};

/// Upper bounds of a random stream's tuple size (bytes) and of a random
/// aggregate's rate factor; `WorkloadParams` holds the lower bounds.
inline constexpr double kTupleSizeMax = 512.0;
inline constexpr double kAggregateFactorMax = 0.2;

/// Parameters of the synthetic workload generator. Defaults model a sensor
/// network / continuous query mix: heavy-tailed stream rates, selective join
/// predicates, occasional filters and aggregates.
struct WorkloadParams {
  // --- catalog ---
  size_t num_streams = 40;
  double rate_pareto_xm = 10.0;     ///< tuples/s scale
  double rate_pareto_alpha = 1.6;   ///< tail index (heavy tail)
  double rate_cap = 2000.0;         ///< clamp for stability
  double tuple_size_min = 32.0;  ///< at most kTupleSizeMax

  // --- queries ---
  size_t min_streams_per_query = 2;
  size_t max_streams_per_query = 5;
  double join_sel_log10_min = -5.0;  ///< selectivity in [1e-5, 1e-2]
  double join_sel_log10_max = -2.0;
  double chain_prob = 0.5;           ///< else star/clique split evenly
  double filter_prob = 0.4;          ///< chance a stream gets a filter
  double filter_sel_min = 0.05;
  double filter_sel_max = 0.8;
  double aggregate_prob = 0.3;
  double aggregate_factor_min = 0.01;  ///< at most kAggregateFactorMax
  double join_window_s = 1.0;
};

/// Rejects parameter combinations the generator would silently mangle:
/// probabilities outside [0, 1], inverted min/max pairs (a `_min` above its
/// k...Max constant included), non-positive Pareto scale/tail or join
/// window, selectivities outside (0, 1].
Status ValidateWorkloadParams(const WorkloadParams& params);

/// Populates a catalog with random streams pinned to random nodes drawn
/// from `producer_sites` (typically the overlay-eligible nodes of the
/// topology). Fails (without drawing from `rng`) on invalid params or an
/// empty site list.
StatusOr<Catalog> MakeRandomCatalog(const WorkloadParams& params,
                                    const std::vector<NodeId>& producer_sites,
                                    Rng* rng);

/// Draws one random query over distinct catalog streams, delivered to a
/// consumer drawn from `consumer_sites`. Fails (without drawing from `rng`)
/// on invalid params, an empty site list, or a catalog smaller than
/// `min_streams_per_query`.
StatusOr<QuerySpec> MakeRandomQuery(const WorkloadParams& params,
                                    const Catalog& catalog,
                                    const std::vector<NodeId>& consumer_sites,
                                    Rng* rng);

}  // namespace sbon::query

#endif  // SBON_QUERY_WORKLOAD_H_
