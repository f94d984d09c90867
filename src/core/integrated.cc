#include "core/integrated.h"

#include <algorithm>
#include <utility>

namespace sbon::core {

IntegratedOptimizer::IntegratedOptimizer(
    OptimizerConfig config,
    std::shared_ptr<const placement::VirtualPlacer> placer)
    : config_(std::move(config)), placer_(std::move(placer)) {}

StatusOr<OptimizeResult> IntegratedOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  Status st = ValidateLambda(config_.lambda);
  if (!st.ok()) return st;
  auto plans = enumerator_.Enumerate(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  candidates_.clear();
  candidates_.reserve(plans->size());
  const coords::CostSpace& space = sbon->cost_space();
  for (size_t index = 0; index < plans->size(); ++index) {
    auto circuit =
        overlay::Circuit::FromPlan(std::move((*plans)[index]), catalog);
    if (!circuit.ok()) return circuit.status();
    st = placer_->Place(&circuit.value(), space);
    if (!st.ok()) return st;
    candidates_.push_back(
        Candidate{placement::VirtualLinearCost(*circuit, space), index,
                  std::move(circuit.value())});
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.virtual_usage != b.virtual_usage) {
                return a.virtual_usage < b.virtual_usage;
              }
              return a.index < b.index;
            });

  const double penalty_floor = space.PenaltyFloor();
  OptimizeResult result;
  Candidate* best = nullptr;
  double best_cost = 0.0;
  // True if (cost, index) would replace the best so far: the least
  // (estimated cost, enumeration index) wins, as in a loop that maps every
  // candidate in enumeration order and keeps the first strictly cheaper.
  auto beats_best = [&](double cost, size_t index) {
    return best == nullptr || cost < best_cost ||
           (cost == best_cost && index < best->index);
  };
  for (Candidate& candidate : candidates_) {
    overlay::Circuit& circuit = candidate.circuit;
    bool pruned = false;
    for (int v = 0; v < static_cast<int>(circuit.NumVertices()); ++v) {
      if (!circuit.Placeable(v)) continue;
      if (best != nullptr &&
          !beats_best(EstimateCostLowerBound(circuit, *sbon, config_.lambda,
                                             penalty_floor),
                      candidate.index)) {
        pruned = true;
        break;
      }
      st = placement::MapVertex(&circuit, v, *sbon, config_.mapping,
                                &result.mapping, &mapping_candidates_);
      if (!st.ok()) return st;
    }
    if (pruned) continue;
    ++result.placements_evaluated;
    auto cost = EstimateCost(circuit, *sbon, config_.lambda);
    if (!cost.ok()) return cost.status();
    if (beats_best(*cost, candidate.index)) {
      best = &candidate;
      best_cost = *cost;
    }
  }
  if (best == nullptr) {
    return Status::Internal("no candidate circuit produced");
  }
  result.circuit = std::move(best->circuit);
  result.estimated_cost = best_cost;
  result.plans_considered = candidates_.size();
  return result;
}

}  // namespace sbon::core
