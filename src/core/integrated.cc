#include "core/integrated.h"

#include <utility>

#include "core/two_step.h"

namespace sbon::core {

IntegratedOptimizer::IntegratedOptimizer(
    OptimizerConfig config,
    std::shared_ptr<const placement::VirtualPlacer> placer)
    : config_(std::move(config)), placer_(std::move(placer)) {}

StatusOr<OptimizeResult> IntegratedOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  auto plans = query::EnumeratePlans(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  OptimizeResult best;
  bool have_best = false;
  size_t placements = 0;
  placement::MappingReport mapping_total;

  for (query::LogicalPlan& plan : *plans) {
    auto circuit = overlay::Circuit::FromPlan(std::move(plan), catalog);
    if (!circuit.ok()) return circuit.status();
    placement::MappingReport report;
    Status st = PlaceAndMap(&circuit.value(), sbon, *placer_,
                            config_.mapping, &report);
    if (!st.ok()) return st;
    ++placements;
    mapping_total.dht_cost.lookups += report.dht_cost.lookups;
    mapping_total.dht_cost.routing_hops += report.dht_cost.routing_hops;
    mapping_total.dht_cost.ring_probes += report.dht_cost.ring_probes;
    mapping_total.services_mapped += report.services_mapped;
    mapping_total.total_mapping_error += report.total_mapping_error;
    mapping_total.load_overrides += report.load_overrides;

    auto cost = EstimateCost(*circuit, *sbon, config_.lambda);
    if (!cost.ok()) return cost.status();
    if (!have_best || *cost < best.estimated_cost) {
      best.circuit = std::move(circuit.value());
      best.estimated_cost = *cost;
      have_best = true;
    }
  }
  if (!have_best) return Status::Internal("no candidate circuit produced");
  best.plans_considered = plans->size();
  best.placements_evaluated = placements;
  best.mapping = mapping_total;
  return best;
}

}  // namespace sbon::core
