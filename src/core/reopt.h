#ifndef SBON_CORE_REOPT_H_
#define SBON_CORE_REOPT_H_

#include "core/optimizer.h"

namespace sbon::core {

/// Configuration of circuit re-optimization (paper Sec. 3.3): as network and
/// node dynamics change, hosting nodes can locally re-run placement and
/// migrate services; stronger drifts trigger a full re-optimization that
/// deploys a parallel circuit and cancels the original. The improvement
/// bars live here; lambda and the mapping options are the query's own
/// (the `OptimizerConfig` it was optimized with), so a re-optimization
/// prices the running circuit exactly as the optimizer priced it. The full
/// re-plan is the engine's deploy step (engine::StreamEngine::Reoptimize);
/// only the local pass lives here.
struct ReoptConfig {
  /// Minimum fractional estimated-cost improvement before any migration is
  /// performed (hysteresis against oscillation).
  double migration_hysteresis = 0.05;
  /// Minimum fractional improvement before a full re-plan replaces the
  /// running circuit.
  double replan_threshold = 0.15;
};

/// Outcome of one local re-optimization pass.
struct LocalReoptReport {
  size_t services_considered = 0;
  size_t migrations = 0;
  double estimated_cost_before = 0.0;
  double estimated_cost_after = 0.0;
  /// Accounting of the re-mapping run (its index lookups/hops/probes),
  /// whether or not anything migrated.
  placement::MappingReport mapping;
};

/// Re-runs virtual placement + mapping (with `query_config.mapping`) for
/// `circuit_id` against the current cost space and migrates services whose
/// new hosts improve the estimated cost (at `query_config.lambda`) by at
/// least the hysteresis fraction. Local: no plan rewriting. Shared service
/// instances serve several circuits; migrating one for this circuit's
/// benefit can hurt the others, so they stay where they are.
StatusOr<LocalReoptReport> LocalReoptimize(
    overlay::Sbon* sbon, CircuitId circuit_id,
    const placement::VirtualPlacer& placer,
    const OptimizerConfig& query_config, const ReoptConfig& config);

}  // namespace sbon::core

#endif  // SBON_CORE_REOPT_H_
