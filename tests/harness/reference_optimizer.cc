#include "harness/reference_optimizer.h"

#include <utility>

#include "overlay/metrics.h"
#include "placement/mapping.h"
#include "query/enumerate.h"

namespace sbon::test {
namespace {

double ReferenceEstimate(const overlay::Circuit& circuit,
                         const coords::CostSpace& space, double lambda) {
  double network_usage = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    network_usage +=
        e.rate_bytes_per_s * space.VectorDistance(circuit.vertex(e.from).host,
                                                  circuit.vertex(e.to).host);
  }
  return network_usage + lambda * overlay::LoadPenalty(circuit, space);
}

}  // namespace

StatusOr<core::OptimizeResult> ExhaustiveIntegratedOptimize(
    const core::OptimizerConfig& config,
    const placement::VirtualPlacer& placer, const query::QuerySpec& spec,
    const query::Catalog& catalog, overlay::Sbon* sbon) {
  auto plans = query::EnumeratePlans(spec, catalog, config.enumeration);
  if (!plans.ok()) return plans.status();
  core::OptimizeResult best;
  bool have_best = false;
  for (query::LogicalPlan& plan : *plans) {
    auto circuit = overlay::Circuit::FromPlan(std::move(plan), catalog);
    if (!circuit.ok()) return circuit.status();
    Status st = placer.Place(&circuit.value(), sbon->cost_space());
    if (!st.ok()) return st;
    st = placement::MapCircuit(&circuit.value(), *sbon, config.mapping,
                               &best.mapping);
    if (!st.ok()) return st;
    ++best.placements_evaluated;
    const double cost =
        ReferenceEstimate(*circuit, sbon->cost_space(), config.lambda);
    if (!have_best || cost < best.estimated_cost) {
      best.circuit = std::move(circuit.value());
      best.estimated_cost = cost;
      have_best = true;
    }
  }
  if (!have_best) return Status::Internal("no candidate circuit produced");
  best.plans_considered = plans->size();
  return best;
}

std::string CircuitDiff(const overlay::Circuit& a, const overlay::Circuit& b) {
  const query::LogicalPlan& pa = a.plan();
  const query::LogicalPlan& pb = b.plan();
  if (pa.NumOps() != pb.NumOps() || a.NumVertices() != b.NumVertices()) {
    return "op counts differ: " + pa.Canonical() + " vs " + pb.Canonical();
  }
  for (int i = 0; i < static_cast<int>(pa.NumOps()); ++i) {
    const query::PlanOp& x = pa.op(i);
    const query::PlanOp& y = pb.op(i);
    if (x.kind != y.kind || x.stream != y.stream ||
        x.children != y.children || x.out_bytes_per_s != y.out_bytes_per_s) {
      return "op " + std::to_string(i) + " differs: " + pa.Canonical() +
             " vs " + pb.Canonical();
    }
    if (a.vertex(i).host != b.vertex(i).host) {
      return "vertex " + std::to_string(i) + " host " +
             std::to_string(a.vertex(i).host) + " vs " +
             std::to_string(b.vertex(i).host);
    }
  }
  return "";
}

}  // namespace sbon::test
