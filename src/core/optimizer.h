#ifndef SBON_CORE_OPTIMIZER_H_
#define SBON_CORE_OPTIMIZER_H_

#include <memory>
#include <vector>

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
  /// candidate circuits. Must be >= 0: the optimizers reject anything else
  /// with InvalidArgument.
  double lambda = 1.0;
  /// Multi-query reuse radius (paper Sec. 3.4): only instances hosted
  /// within this cost-space distance of a new service's virtual coordinate
  /// are considered for reuse. 0 disables reuse (the integrated optimizer);
  /// below 0 means unbounded. Only the multi-query optimizer reads it.
  double reuse_radius = 50.0;
  /// Plan enumeration (the integrated optimizer virtually places every one
  /// of the top-K candidates; the two-step baseline is K=1).
  query::EnumerationOptions enumeration;
  /// Physical mapping behaviour.
  placement::MappingOptions mapping;

  bool operator==(const OptimizerConfig&) const = default;
};

/// Everything an optimization run produced: the winning placed circuit plus
/// accounting of the work performed.
struct OptimizeResult {
  overlay::Circuit circuit;  ///< fully placed; not yet installed
  /// Cost-space estimate the optimizer ranked this circuit by (a deployed
  /// optimizer cannot see true latencies; benches measure those separately).
  double estimated_cost = 0.0;
  size_t plans_considered = 0;
  /// Candidate circuits placed and fully mapped. The integrated optimizer
  /// stops mapping a candidate once its cost bound cannot win, so this can
  /// be below `plans_considered`.
  size_t placements_evaluated = 0;
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
};

/// Places and maps an unplaced circuit in one go (virtual placement with
/// `placer`, then DHT mapping over the caller's `candidates` buffer).
Status PlaceAndMap(overlay::Circuit* circuit, overlay::Sbon* sbon,
                   const placement::VirtualPlacer& placer,
                   const placement::MappingOptions& mapping,
                   placement::MappingReport* report,
                   std::vector<NodeId>* candidates);

/// Ranking metric shared by all optimizers: cost-space estimate of network
/// usage (rate x host vector distance over physical edges, in edge order)
/// plus lambda times `overlay::LoadPenalty`. Fails unless the circuit is
/// fully placed.
StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda);

/// Lower bound on the `EstimateCost` of every full mapping of a virtually
/// placed, partly mapped circuit (unmapped vertices have host
/// kInvalidNode). Evaluates EstimateCost's expression in the same term
/// order, each term that needs an unmapped host replaced by its lower
/// bound: 0 for a network-usage term, `penalty_floor` x rate for a penalty
/// term. With lambda >= 0, non-negative rates and `penalty_floor` at most
/// every node's `ScalarPenalty`, monotone rounding keeps the bound at or
/// below the mapped cost; on a fully placed circuit it is EstimateCost, bit
/// for bit.
double EstimateCostLowerBound(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda,
                              double penalty_floor);

/// The optimizers' shared precondition: InvalidArgument unless
/// `lambda >= 0`. A negative weight would reward load, and the integrated
/// optimizer's cost bound rests on it.
Status ValidateLambda(double lambda);

}  // namespace sbon::core

#endif  // SBON_CORE_OPTIMIZER_H_
