#include "net/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace sbon::net {
namespace {

// Probability scale of an extra intra-domain edge beyond the connecting
// ring (adds redundancy, mirrors GT-ITM edge probability).
constexpr double kExtraTransitEdgeProb = 0.5;
constexpr double kExtraStubEdgeProb = 0.25;

// Waxman edge probability scale, edge length sensitivity, and link latency
// in ms per unit Euclidean distance.
constexpr double kWaxmanAlpha = 0.25;
constexpr double kWaxmanBeta = 0.35;
constexpr double kWaxmanMsPerUnit = 50;

double Draw(const LatencyRange& range, Rng* rng) {
  return rng->Uniform(range.min_ms, range.max_ms);
}

// Connects `members` into a ring plus random chords, giving every generated
// domain 2-edge redundancy like GT-ITM's default connectivity.
void ConnectDomain(Topology* topo, const std::vector<NodeId>& members,
                   const LatencyRange& latency, double extra_edge_prob,
                   Rng* rng) {
  const size_t n = members.size();
  if (n <= 1) return;
  if (n == 2) {
    topo->AddLink(members[0], members[1], Draw(latency, rng));
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    topo->AddLink(members[i], members[(i + 1) % n], Draw(latency, rng));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 2; j < n; ++j) {
      if (i == 0 && j == n - 1) continue;  // already a ring edge
      if (rng->Bernoulli(extra_edge_prob / static_cast<double>(n))) {
        topo->AddLink(members[i], members[j], Draw(latency, rng));
      }
    }
  }
}

}  // namespace

StatusOr<Topology> GenerateTransitStub(const TransitStubParams& p, Rng* rng) {
  if (p.transit_domains == 0 || p.transit_nodes_per_domain == 0) {
    return Status::InvalidArgument("transit-stub: empty transit level");
  }
  if (p.nodes_per_stub_domain == 0) {
    return Status::InvalidArgument("transit-stub: empty stub domains");
  }
  Topology topo;
  int next_domain = 0;

  // Transit domains.
  std::vector<std::vector<NodeId>> transit_domains;
  for (size_t d = 0; d < p.transit_domains; ++d) {
    const int dom = next_domain++;
    std::vector<NodeId> members;
    for (size_t i = 0; i < p.transit_nodes_per_domain; ++i) {
      members.push_back(
          topo.AddNode(NodeKind::kTransit, dom, /*overlay_eligible=*/false));
    }
    ConnectDomain(&topo, members, kIntraTransitLatency, kExtraTransitEdgeProb,
                  rng);
    transit_domains.push_back(std::move(members));
  }

  // Inter-transit-domain links: ring over domains plus one random chord per
  // domain, connecting random representatives.
  const size_t td = transit_domains.size();
  if (td > 1) {
    for (size_t d = 0; d < td; ++d) {
      const auto& from = transit_domains[d];
      const auto& to = transit_domains[(d + 1) % td];
      const NodeId a = from[rng->UniformInt(from.size())];
      const NodeId b = to[rng->UniformInt(to.size())];
      topo.AddLink(a, b, Draw(kInterTransitLatency, rng));
      if (td > 2 && rng->Bernoulli(0.5)) {
        const size_t other = (d + 2 + rng->UniformInt(td - 2)) % td;
        if (other != d) {
          const auto& t2 = transit_domains[other];
          topo.AddLink(from[rng->UniformInt(from.size())],
                       t2[rng->UniformInt(t2.size())],
                       rng->Uniform(kInterTransitLatency.min_ms,
                                    kInterTransitLatency.max_ms));
        }
      }
    }
  }

  // Stub domains hanging off each transit node.
  for (const auto& domain : transit_domains) {
    for (NodeId tnode : domain) {
      for (size_t s = 0; s < p.stub_domains_per_transit_node; ++s) {
        const int dom = next_domain++;
        std::vector<NodeId> members;
        for (size_t i = 0; i < p.nodes_per_stub_domain; ++i) {
          members.push_back(topo.AddNode(NodeKind::kStub, dom,
                                         /*overlay_eligible=*/true));
        }
        ConnectDomain(&topo, members, kIntraStubLatency, kExtraStubEdgeProb,
                      rng);
        // Gateway link from a random stub node to its transit node.
        const NodeId gw = members[rng->UniformInt(members.size())];
        topo.AddLink(tnode, gw, Draw(kTransitStubLatency, rng));
      }
    }
  }

  if (!topo.IsConnected()) {
    return Status::Internal("transit-stub generator produced disconnected graph");
  }
  return topo;
}

StatusOr<Topology> GenerateWaxman(const WaxmanParams& p, Rng* rng) {
  if (p.nodes == 0) return Status::InvalidArgument("waxman: zero nodes");
  Topology topo;
  std::vector<double> x(p.nodes), y(p.nodes);
  for (size_t i = 0; i < p.nodes; ++i) {
    topo.AddNode(NodeKind::kHost, /*domain=*/-1, /*overlay_eligible=*/true);
    x[i] = rng->NextDouble();
    y[i] = rng->NextDouble();
  }
  const double kMaxDist = std::sqrt(2.0);
  auto dist = [&](size_t i, size_t j) {
    const double dx = x[i] - x[j], dy = y[i] - y[j];
    return std::sqrt(dx * dx + dy * dy);
  };
  for (size_t i = 0; i < p.nodes; ++i) {
    for (size_t j = i + 1; j < p.nodes; ++j) {
      const double d = dist(i, j);
      const double prob =
          kWaxmanAlpha * std::exp(-d / (kWaxmanBeta * kMaxDist));
      if (rng->Bernoulli(prob)) {
        topo.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j),
                     std::max(0.1, d * kWaxmanMsPerUnit));
      }
    }
  }
  // Guarantee connectivity: link each non-reachable component to a random
  // already-reachable node via a geometric-latency edge.
  std::vector<bool> seen(p.nodes, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  auto bfs_from = [&](std::vector<NodeId> frontier) {
    while (!frontier.empty()) {
      const NodeId n = frontier.back();
      frontier.pop_back();
      for (uint32_t li : topo.IncidentLinks(n)) {
        const Link& l = topo.links()[li];
        const NodeId other = (l.a == n) ? l.b : l.a;
        if (!seen[other]) {
          seen[other] = true;
          frontier.push_back(other);
        }
      }
    }
  };
  bfs_from({0});
  for (size_t i = 1; i < p.nodes; ++i) {
    if (!seen[i]) {
      NodeId anchor;
      do {
        anchor = static_cast<NodeId>(rng->UniformInt(p.nodes));
      } while (!seen[anchor]);
      topo.AddLink(static_cast<NodeId>(i), anchor,
                   std::max(0.1, dist(i, anchor) * kWaxmanMsPerUnit));
      seen[i] = true;
      bfs_from({static_cast<NodeId>(i)});
    }
  }
  return topo;
}

StatusOr<Topology> GenerateGrid(size_t side, double link_latency_ms) {
  if (side == 0) return Status::InvalidArgument("grid: zero side");
  Topology topo;
  for (size_t i = 0; i < side * side; ++i) {
    topo.AddNode(NodeKind::kHost);
  }
  for (size_t r = 0; r < side; ++r) {
    for (size_t c = 0; c < side; ++c) {
      const NodeId n = static_cast<NodeId>(r * side + c);
      if (c + 1 < side) topo.AddLink(n, n + 1, link_latency_ms);
      if (r + 1 < side) {
        topo.AddLink(n, static_cast<NodeId>(n + side), link_latency_ms);
      }
    }
  }
  return topo;
}

StatusOr<Topology> GenerateStar(size_t leaves, double link_latency_ms) {
  Topology topo;
  const NodeId hub = topo.AddNode(NodeKind::kHost);
  for (size_t i = 0; i < leaves; ++i) {
    const NodeId leaf = topo.AddNode(NodeKind::kHost);
    topo.AddLink(hub, leaf, link_latency_ms);
  }
  return topo;
}

StatusOr<Topology> GenerateLine(size_t n, double link_latency_ms) {
  if (n == 0) return Status::InvalidArgument("line: zero nodes");
  Topology topo;
  for (size_t i = 0; i < n; ++i) topo.AddNode(NodeKind::kHost);
  for (size_t i = 0; i + 1 < n; ++i) {
    topo.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                 link_latency_ms);
  }
  return topo;
}

}  // namespace sbon::net
