// Multi-tenant dashboards: many users pose overlapping continuous queries
// over a shared pool of feeds. The multi-query optimizer (paper Sec. 3.4)
// merges identical services across tenants, but only searches for reuse
// inside a cost-space sphere of radius r around each new service.
//
// The example deploys 30 dashboard queries three times — reuse disabled,
// radius pruning, unbounded reuse — by submitting the same workload to a
// StreamEngine whose "multi-query" strategy gets a different reuse radius
// per run, and compares deployed services, network usage, and optimizer
// work (all read off engine Snapshot / per-query stats).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stream_engine.h"
#include "net/generators.h"
#include "query/workload.h"

namespace {

struct DeployStats {
  size_t circuits = 0;
  size_t services = 0;
  size_t reused = 0;
  size_t reuse_candidates = 0;
  double usage = 0.0;
};

DeployStats DeployAll(double radius, uint64_t seed) {
  sbon::Rng rng(seed);
  sbon::net::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.nodes_per_stub_domain = 8;
  auto topo = sbon::net::GenerateTransitStub(tp, &rng);

  sbon::engine::EngineOptions options;
  options.topology = std::move(topo.value());
  options.sbon.seed = seed;
  options.optimizer = "multi-query";
  options.config.enumeration.top_k = 4;
  options.config.reuse_radius = radius;
  options.refresh_index_on_install = true;
  auto created = sbon::engine::StreamEngine::Create(std::move(options));
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<sbon::engine::StreamEngine> engine =
      std::move(created.value());

  // A small pool of popular feeds shared by all tenants.
  sbon::query::WorkloadParams wp;
  wp.num_streams = 10;
  wp.min_streams_per_query = 2;
  wp.max_streams_per_query = 3;
  wp.join_sel_log10_min = -3.0;
  wp.join_sel_log10_max = -3.0;  // fixed predicate grid => shareable ops
  wp.filter_prob = 0.0;
  wp.aggregate_prob = 0.0;
  engine->SetCatalog(
      sbon::query::MakeRandomCatalog(wp, engine->sbon().overlay_nodes(),
                                     &engine->sbon().rng())
          .value());

  std::vector<sbon::query::QuerySpec> tenants;
  for (int tenant = 0; tenant < 30; ++tenant) {
    tenants.push_back(
        sbon::query::MakeRandomQuery(wp, engine->catalog(),
                                     engine->sbon().overlay_nodes(),
                                     &engine->sbon().rng())
            .value());
  }
  (void)engine->SubmitAll(tenants);  // failed tenants simply stay undeployed

  DeployStats stats;
  const sbon::engine::EngineSnapshot snap = engine->Snapshot();
  stats.circuits = snap.num_queries;
  stats.services = snap.num_services;
  stats.usage = snap.total_network_usage / 1000.0;
  for (const sbon::engine::QueryStats& q : snap.queries) {
    stats.reused += q.services_reused;
    stats.reuse_candidates += q.reuse_candidates_considered;
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("30 dashboard tenants over 10 shared feeds\n\n");
  std::printf("%-22s %-9s %-9s %-13s %-12s %s\n", "mode", "circuits",
              "services", "reused binds", "cands seen", "usage KB*ms/s");
  const DeployStats isolated = DeployAll(/*radius=*/0.0, /*seed=*/5);
  std::printf("%-22s %-9zu %-9zu %-13zu %-12zu %.1f\n",
              "no reuse (r = 0)", isolated.circuits, isolated.services,
              isolated.reused, isolated.reuse_candidates, isolated.usage);
  const DeployStats pruned = DeployAll(/*radius=*/25.0, /*seed=*/5);
  std::printf("%-22s %-9zu %-9zu %-13zu %-12zu %.1f\n",
              "radius pruning (r=25)", pruned.circuits, pruned.services,
              pruned.reused, pruned.reuse_candidates, pruned.usage);
  const DeployStats unbounded = DeployAll(/*radius=*/-1.0, /*seed=*/5);
  std::printf("%-22s %-9zu %-9zu %-13zu %-12zu %.1f\n",
              "unbounded reuse", unbounded.circuits, unbounded.services,
              unbounded.reused, unbounded.reuse_candidates, unbounded.usage);

  std::printf("\nradius pruning keeps %.0f%% of unbounded reuse's usage "
              "saving while examining %.0f%% of its candidates\n",
              100.0 * (isolated.usage - pruned.usage) /
                  std::max(1.0, isolated.usage - unbounded.usage),
              100.0 * pruned.reuse_candidates /
                  std::max<size_t>(1, unbounded.reuse_candidates));
  return 0;
}
