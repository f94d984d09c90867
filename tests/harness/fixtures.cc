#include "harness/fixtures.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "placement/relaxation.h"

namespace sbon::test {
namespace {

// Fixture failures must be loud in every build type (assert() vanishes
// under NDEBUG, which the default RelWithDebInfo build defines).
void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "fixture %s failed: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

}  // namespace

net::TransitStubParams TransitStubParamsFor(TopologySize size) {
  net::TransitStubParams p;
  switch (size) {
    case TopologySize::kTiny:
      p.transit_domains = 2;
      p.transit_nodes_per_domain = 2;
      p.stub_domains_per_transit_node = 2;
      p.nodes_per_stub_domain = 6;
      break;
    case TopologySize::kSmall:
      p.transit_domains = 2;
      p.transit_nodes_per_domain = 2;
      p.stub_domains_per_transit_node = 3;
      p.nodes_per_stub_domain = 8;
      break;
    case TopologySize::kMedium:
      // 4 transit + 4*3*21 = exactly 256 nodes (252 overlay hosts): the
      // N=256 churn/stress sweep size.
      p.transit_domains = 2;
      p.transit_nodes_per_domain = 2;
      p.stub_domains_per_transit_node = 3;
      p.nodes_per_stub_domain = 21;
      break;
    case TopologySize::kPaper:
      // Defaults already model the paper's ~600-node Figure 2 network.
      break;
  }
  return p;
}

net::Topology MakeTransitStubTopology(TopologySize size, uint64_t seed) {
  Rng rng(seed);
  auto topo = net::GenerateTransitStub(TransitStubParamsFor(size), &rng);
  CheckOk(topo.status(), "GenerateTransitStub");
  return std::move(topo.value());
}

std::unique_ptr<overlay::Sbon> MakeTransitStubSbon(
    TopologySize size, uint64_t seed, overlay::Sbon::Options opts) {
  opts.seed = seed;
  auto s = overlay::Sbon::Create(MakeTransitStubTopology(size, seed), opts);
  CheckOk(s.status(), "Sbon::Create");
  return std::move(s.value());
}

std::unique_ptr<overlay::Sbon> MakeGridSbon(size_t side, uint64_t seed,
                                            double link_latency_ms,
                                            overlay::Sbon::Options opts) {
  auto topo = net::GenerateGrid(side, link_latency_ms);
  CheckOk(topo.status(), "GenerateGrid");
  opts.seed = seed;
  auto s = overlay::Sbon::Create(std::move(topo.value()), opts);
  CheckOk(s.status(), "Sbon::Create");
  return std::move(s.value());
}

query::WorkloadParams TestWorkloadParams(size_t num_streams) {
  query::WorkloadParams wp;
  wp.num_streams = num_streams;
  wp.min_streams_per_query = 2;
  wp.max_streams_per_query = 4;
  wp.rate_cap = 500.0;
  return wp;
}

query::Catalog MakeCatalog(const overlay::Sbon& sbon,
                           const query::WorkloadParams& params,
                           uint64_t seed) {
  Rng rng(seed);
  return query::MakeRandomCatalog(params, sbon.overlay_nodes(), &rng).value();
}

std::vector<query::QuerySpec> MakeQueries(const overlay::Sbon& sbon,
                                          const query::Catalog& catalog,
                                          const query::WorkloadParams& params,
                                          size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<query::QuerySpec> qs;
  qs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    qs.push_back(
        query::MakeRandomQuery(params, catalog, sbon.overlay_nodes(), &rng)
            .value());
  }
  return qs;
}

std::vector<query::QuerySpec> MakeShareableJoins(const overlay::Sbon& sbon,
                                                 size_t num_streams,
                                                 size_t count, uint64_t seed) {
  Rng rng(seed);
  const std::vector<NodeId>& nodes = sbon.overlay_nodes();
  std::vector<query::QuerySpec> qs;
  qs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<StreamId> streams;
    for (StreamId s = 0; s < num_streams; ++s) {
      if (rng.Bernoulli(0.5)) streams.push_back(s);
    }
    if (streams.size() < 2) streams = {0, 1};
    qs.push_back(query::QuerySpec::SimpleJoin(
        std::move(streams), nodes[rng.UniformInt(nodes.size())], 0.001));
  }
  return qs;
}

query::Catalog TwoStreamCatalog(const overlay::Sbon& sbon) {
  const auto& nodes = sbon.overlay_nodes();
  if (nodes.size() < 2) {
    std::fprintf(stderr, "TwoStreamCatalog needs >= 2 overlay nodes\n");
    std::abort();
  }
  query::Catalog c;
  c.AddStream("a", 100.0, 64.0, nodes[0]);  // 6400 B/s
  c.AddStream("b", 10.0, 128.0, nodes[1]);  // 1280 B/s
  return c;
}

core::OptimizerConfig TestOptimizerConfig(size_t top_k) {
  core::OptimizerConfig cfg;
  cfg.enumeration.top_k = top_k;
  cfg.lambda = 1.0;
  return cfg;
}

core::OptimizerConfig IntegratedConfig(core::OptimizerConfig config) {
  config.reuse_radius = 0.0;
  return config;
}

std::shared_ptr<const placement::VirtualPlacer> DefaultPlacer() {
  return std::make_shared<placement::RelaxationPlacer>();
}

}  // namespace sbon::test
