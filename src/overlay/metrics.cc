#include "overlay/metrics.h"

#include <algorithm>
#include <set>
#include <vector>

namespace sbon::overlay {
namespace {

// Longest root-ward latency path from any producer leaf to the consumer.
// Circuits are trees, so a bottom-up DP over plan ops suffices. A reused
// vertex acts as a leaf whose path already accumulated the source circuit's
// upstream latency.
double CriticalPathLatency(const Circuit& c, const net::LatencyView& lat) {
  const query::LogicalPlan& plan = c.plan();
  std::vector<double> longest(plan.NumOps(), 0.0);
  double best = 0.0;
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const query::PlanOp& op = plan.op(i);
    const CircuitVertex& v = c.vertex(i);
    double l = 0.0;
    if (v.reused && v.service != kInvalidService) {
      l = v.reused_upstream_latency_ms;
    } else if (!v.reused) {
      for (int child : op.children) {
        const double hop =
            lat.Latency(c.vertex(child).host, c.vertex(i).host);
        l = std::max(l, longest[child] + hop);
      }
    }
    longest[i] = l;
    if (i == plan.root()) best = l;
  }
  return best;
}

}  // namespace

double LoadPenalty(const Circuit& circuit, const coords::CostSpace& space,
                   double unmapped_penalty) {
  double penalty = 0.0;
  for (int i = 0; i < static_cast<int>(circuit.NumVertices()); ++i) {
    if (!circuit.Placeable(i)) continue;
    const NodeId host = circuit.vertex(i).host;
    penalty += (host == kInvalidNode ? unmapped_penalty
                                     : space.ScalarPenalty(host)) *
               circuit.PhysicalInputRate(i);
  }
  return penalty;
}

StatusOr<CircuitCost> ComputeCircuitCost(const Circuit& circuit,
                                         const net::LatencyView& lat,
                                         const coords::CostSpace* space) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  CircuitCost cost;
  for (const CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const NodeId a = circuit.vertex(e.from).host;
    const NodeId b = circuit.vertex(e.to).host;
    cost.network_usage += e.rate_bytes_per_s * lat.Latency(a, b);
  }
  cost.critical_path_latency_ms = CriticalPathLatency(circuit, lat);
  if (space != nullptr) cost.node_penalty = LoadPenalty(circuit, *space);
  return cost;
}

StatusOr<double> UpstreamLatencyToService(const Circuit& circuit,
                                          ServiceInstanceId service,
                                          const net::LatencyView& lat) {
  const query::LogicalPlan& plan = circuit.plan();
  std::vector<double> longest(plan.NumOps(), 0.0);
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const CircuitVertex& v = circuit.vertex(i);
    double l = 0.0;
    if (v.reused && v.service != kInvalidService &&
        v.service != service) {
      l = v.reused_upstream_latency_ms;
    } else if (!v.reused || v.service == service) {
      for (int child : plan.op(i).children) {
        const double hop =
            lat.Latency(circuit.vertex(child).host, circuit.vertex(i).host);
        l = std::max(l, longest[child] + hop);
      }
    }
    longest[i] = l;
    if (v.service == service) return l;
  }
  return Status::NotFound("service not part of circuit");
}

}  // namespace sbon::overlay
