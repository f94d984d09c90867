#include "overlay/metrics.h"

#include <algorithm>
#include <set>
#include <vector>

namespace sbon::overlay {
namespace {

// Longest producer-to-`t` latency path. Circuits are trees whose children
// precede their parents, so a bottom-up DP over ops 0..t suffices. A
// reused vertex, `t` included, is a leaf: the bound one carries the source
// circuit's upstream latency, the ones inside its subtree carry 0.
double LongestPathTo(const Circuit& c, int t, const net::LatencyView& lat) {
  std::vector<double> longest(static_cast<size_t>(t) + 1, 0.0);
  for (int i = 0; i <= t; ++i) {
    const CircuitVertex& v = c.vertex(i);
    double l = 0.0;
    if (v.reused) {
      if (v.service != kInvalidService) l = v.reused_upstream_latency_ms;
    } else {
      for (int child : c.plan().op(i).children) {
        const double hop = lat.Latency(c.vertex(child).host, v.host);
        l = std::max(l, longest[child] + hop);
      }
    }
    longest[i] = l;
  }
  return longest[t];
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
  cost.critical_path_latency_ms =
      LongestPathTo(circuit, circuit.plan().root(), lat);
  if (space != nullptr) cost.node_penalty = LoadPenalty(circuit, *space);
  return cost;
}

StatusOr<double> UpstreamLatencyToService(const Circuit& circuit,
                                          ServiceInstanceId service,
                                          const net::LatencyView& lat) {
  for (int i = 0; i < static_cast<int>(circuit.NumVertices()); ++i) {
    if (circuit.vertex(i).service == service) {
      return LongestPathTo(circuit, i, lat);
    }
  }
  return Status::NotFound("service not part of circuit");
}

}  // namespace sbon::overlay
