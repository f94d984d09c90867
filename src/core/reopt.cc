#include "core/reopt.h"

#include <utility>
#include <vector>

#include "overlay/metrics.h"

namespace sbon::core {

StatusOr<LocalReoptReport> LocalReoptimize(
    overlay::Sbon* sbon, CircuitId circuit_id,
    const placement::VirtualPlacer& placer,
    const OptimizerConfig& query_config, const ReoptConfig& config) {
  const overlay::Circuit* live = sbon->ledger().FindCircuit(circuit_id);
  if (live == nullptr) return Status::NotFound("no such circuit");

  LocalReoptReport report;
  auto before = EstimateCost(*live, *sbon, query_config.lambda);
  if (!before.ok()) return before.status();
  report.estimated_cost_before = *before;
  report.estimated_cost_after = *before;

  // Re-place a scratch copy against the current cost space.
  overlay::Circuit scratch = *live;
  std::vector<NodeId> candidates;
  Status st = PlaceAndMap(&scratch, *sbon, placer, query_config.mapping,
                          &report.mapping, &candidates);
  if (!st.ok()) return st;
  auto after = EstimateCost(scratch, *sbon, query_config.lambda);
  if (!after.ok()) return after.status();

  report.services_considered = scratch.PlaceableVertices().size();
  if (*after >=
      *before * (1.0 - config.migration_hysteresis)) {
    return report;  // not worth moving anything
  }

  // Adopt the improved placement by migrating the services that moved,
  // remembering the old hosts so the move can be verified and rolled back:
  // the scratch estimate was computed against pre-migration loads, and a
  // migration shifts the service's own load onto its new host.
  std::vector<std::pair<ServiceInstanceId, NodeId>> undo;
  for (int v : scratch.PlaceableVertices()) {
    const overlay::CircuitVertex& new_v = scratch.vertex(v);
    const overlay::CircuitVertex& old_v = live->vertex(v);
    if (old_v.service == kInvalidService) continue;
    if (new_v.host == old_v.host) continue;
    const overlay::ServiceInstance* inst =
        sbon->ledger().FindService(old_v.service);
    if (inst == nullptr) continue;
    if (inst->Shared()) continue;
    Status mig = sbon->MigrateService(old_v.service, new_v.host);
    if (!mig.ok()) return mig;
    undo.emplace_back(old_v.service, old_v.host);
    ++report.migrations;
  }
  auto final_cost = EstimateCost(*sbon->ledger().FindCircuit(circuit_id),
                                 *sbon, query_config.lambda);
  if (!final_cost.ok()) return final_cost.status();
  if (*final_cost >= *before && !undo.empty()) {
    // Verification failed (load displacement ate the predicted gain):
    // roll every service back to its original host.
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      Status back = sbon->MigrateService(it->first, it->second);
      if (!back.ok()) return back;
    }
    report.migrations = 0;
    report.estimated_cost_after = *before;
    return report;
  }
  report.estimated_cost_after = *final_cost;
  return report;
}

}  // namespace sbon::core
