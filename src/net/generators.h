#ifndef SBON_NET_GENERATORS_H_
#define SBON_NET_GENERATORS_H_

#include <cstddef>

#include "common/rng.h"
#include "common/status.h"
#include "net/topology.h"

namespace sbon::net {

/// Parameters of the GT-ITM-style transit-stub generator. Defaults produce
/// the paper's ~600-node topology (Figure 2): 4 transit domains x 4 transit
/// nodes, 3 stub domains per transit node, ~12 nodes per stub domain:
/// 16 transit + 48*12 = 592 routers, plus stub hosts if configured.
struct TransitStubParams {
  size_t transit_domains = 4;
  size_t transit_nodes_per_domain = 4;
  size_t stub_domains_per_transit_node = 3;
  size_t nodes_per_stub_domain = 12;
};

/// Latency range (ms) of one transit-stub link class; each link's latency
/// is drawn uniformly from it.
struct LatencyRange {
  double min_ms;
  double max_ms;
};
inline constexpr LatencyRange kIntraTransitLatency{10.0, 30.0};
inline constexpr LatencyRange kInterTransitLatency{30.0, 80.0};
inline constexpr LatencyRange kTransitStubLatency{5.0, 15.0};
inline constexpr LatencyRange kIntraStubLatency{1.0, 5.0};

/// Generates a connected transit-stub topology. Only stub-domain nodes can
/// host overlay services (transit routers are plain forwarders, matching
/// the SBON deployment model). Never fails for positive sizes; returns
/// InvalidArgument for degenerate parameters.
StatusOr<Topology> GenerateTransitStub(const TransitStubParams& params,
                                       Rng* rng);

/// Parameters of a Waxman random graph on the unit square.
struct WaxmanParams {
  size_t nodes = 100;
};

/// Generates a connected Waxman graph: nodes i, j at distance d are linked
/// with probability alpha * exp(-d / (beta * sqrt(2))) at alpha = 0.25,
/// beta = 0.35, with 50 ms of latency per unit of distance (extra edges are
/// added from a random spanning tree if the probabilistic phase leaves the
/// graph disconnected).
StatusOr<Topology> GenerateWaxman(const WaxmanParams& params, Rng* rng);

/// Generates a `side` x `side` grid with uniform `link_latency_ms` links.
/// Useful for tests where shortest-path distances are known analytically.
StatusOr<Topology> GenerateGrid(size_t side, double link_latency_ms);

/// Generates a star: node 0 is the hub, nodes 1..n-1 are leaves.
StatusOr<Topology> GenerateStar(size_t leaves, double link_latency_ms);

/// Generates a line of `n` nodes with uniform links.
StatusOr<Topology> GenerateLine(size_t n, double link_latency_ms);

}  // namespace sbon::net

#endif  // SBON_NET_GENERATORS_H_
