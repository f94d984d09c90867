#ifndef SBON_OVERLAY_METRICS_H_
#define SBON_OVERLAY_METRICS_H_

#include "coords/cost_space.h"
#include "net/shortest_path.h"
#include "overlay/circuit.h"

namespace sbon::overlay {

/// Cost breakdown of a placed circuit.
struct CircuitCost {
  /// Sum over edges of rate x latency — the paper's objective: "the amount
  /// of data in transit in the network" (bytes * ms / s, reported in
  /// KB*ms/s by the benches).
  double network_usage = 0.0;
  /// Longest producer-to-consumer latency along the circuit tree (ms) —
  /// the "total data latency" of Figure 1's caption.
  double critical_path_latency_ms = 0.0;
  /// Load penalty: for every newly deployed service, the host's weighted
  /// scalar penalty (an "extra milliseconds" figure — e.g. squared load x
  /// 100 ms) multiplied by the data rate the service processes. This makes
  /// the penalty dimensionally identical to network usage, so lambda = 1
  /// reads as "a saturated host is as bad as shipping the service's input
  /// an extra <scale> ms". 0 when no cost space is supplied.
  double node_penalty = 0.0;

  /// network_usage + lambda * node_penalty.
  double Total(double lambda) const {
    return network_usage + lambda * node_penalty;
  }
};

/// Computes the cost of a fully placed circuit against true network
/// latencies. `space` may be null (latency-only accounting). A shared
/// service instance contributes its node penalty once per circuit that uses
/// it (each circuit is charged for the load it depends on).
StatusOr<CircuitCost> ComputeCircuitCost(const Circuit& circuit,
                                         const net::LatencyView& lat,
                                         const coords::CostSpace* space);

/// Load penalty of a placed circuit's newly deployed services: for every
/// placeable vertex, its host's weighted scalar penalty times the physical
/// input rate the service processes, summed in vertex order. The
/// `node_penalty` of `CircuitCost`. A placeable vertex with no host yet
/// contributes `unmapped_penalty` times its rate instead; with
/// `unmapped_penalty` at most every node's `ScalarPenalty`, the sum is a
/// lower bound on the penalty of every way to map those vertices.
double LoadPenalty(const Circuit& circuit, const coords::CostSpace& space,
                   double unmapped_penalty = 0.0);

/// Producer-to-vertex critical-path latency up to the vertex bound to
/// `service` within `circuit` (ms). Used when another circuit reuses that
/// service instance and needs the upstream latency it inherits. When
/// `circuit` itself reuses the instance, this is the latency its binding
/// carries (`reused_upstream_latency_ms`).
StatusOr<double> UpstreamLatencyToService(const Circuit& circuit,
                                          ServiceInstanceId service,
                                          const net::LatencyView& lat);

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_METRICS_H_
