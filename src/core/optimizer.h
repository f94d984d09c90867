#ifndef SBON_CORE_OPTIMIZER_H_
#define SBON_CORE_OPTIMIZER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "dht/coord_index.h"
#include "overlay/sbon.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "placement/virtual_placement.h"
#include "query/enumerate.h"
#include "query/query_spec.h"

namespace sbon::core {

/// Shared optimizer configuration.
struct OptimizerConfig {
  /// Weight of the node-load penalty relative to network usage when ranking
  /// candidate circuits.
  double lambda = 1.0;
  /// Plan enumeration (the integrated optimizer places every one of the
  /// top-K candidates; the two-step baseline uses K=1 internally).
  query::EnumerationOptions enumeration;
  /// Physical mapping behaviour.
  placement::MappingOptions mapping;
};

/// Everything an optimization run produced: the winning placed circuit plus
/// accounting of the work performed.
struct OptimizeResult {
  overlay::Circuit circuit;  ///< fully placed; not yet installed
  /// Cost-space estimate the optimizer ranked this circuit by (a deployed
  /// optimizer cannot see true latencies; benches measure those separately).
  double estimated_cost = 0.0;
  size_t plans_considered = 0;
  size_t placements_evaluated = 0;  ///< candidate circuits placed + mapped
  size_t reuse_candidates_considered = 0;
  size_t services_reused = 0;
  placement::MappingReport mapping;
};

/// Interface of a query optimizer operating against a live SBON.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Produces a placed (not installed) circuit answering `spec`.
  virtual StatusOr<OptimizeResult> Optimize(const query::QuerySpec& spec,
                                            const query::Catalog& catalog,
                                            overlay::Sbon* sbon) = 0;

  virtual std::string Name() const = 0;
};

/// Ranking metric shared by all optimizers: cost-space estimate of network
/// usage (rate x host vector distance over physical edges, in edge order)
/// plus lambda times `overlay::LoadPenalty`. Fails unless the circuit is
/// fully placed.
StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda);

}  // namespace sbon::core

#endif  // SBON_CORE_OPTIMIZER_H_
