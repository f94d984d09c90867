#include "core/two_step.h"

#include <utility>

namespace sbon::core {

Status PlaceAndMap(overlay::Circuit* circuit, overlay::Sbon* sbon,
                   const placement::VirtualPlacer& placer,
                   const placement::MappingOptions& mapping,
                   placement::MappingReport* report) {
  Status st = placer.Place(circuit, sbon->cost_space());
  if (!st.ok()) return st;
  return placement::MapCircuit(circuit, *sbon, mapping, report);
}

TwoStepOptimizer::TwoStepOptimizer(
    OptimizerConfig config,
    std::shared_ptr<const placement::VirtualPlacer> placer)
    : config_(std::move(config)), placer_(std::move(placer)) {}

StatusOr<OptimizeResult> TwoStepOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  Status valid = ValidateLambda(config_.lambda);
  if (!valid.ok()) return valid;
  // Step 1: network-blind plan generation — classical DP, one winner.
  query::EnumerationOptions enum_opts = config_.enumeration;
  enum_opts.top_k = 1;
  auto plans = query::EnumeratePlans(spec, catalog, enum_opts);
  if (!plans.ok()) return plans.status();

  // Step 2: place that plan.
  auto circuit = overlay::Circuit::FromPlan(std::move((*plans)[0]), catalog);
  if (!circuit.ok()) return circuit.status();
  OptimizeResult result;
  Status st = PlaceAndMap(&circuit.value(), sbon, *placer_, config_.mapping,
                          &result.mapping);
  if (!st.ok()) return st;

  auto cost = EstimateCost(*circuit, *sbon, config_.lambda);
  if (!cost.ok()) return cost.status();
  result.circuit = std::move(circuit.value());
  result.estimated_cost = *cost;
  result.plans_considered = 1;
  result.placements_evaluated = 1;
  return result;
}

}  // namespace sbon::core
