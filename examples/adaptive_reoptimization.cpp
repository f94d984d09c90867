// Adaptive re-optimization under network dynamics (paper Sec. 2 & 3.3):
// long-running circuits outlive the conditions they were optimized for.
// This example drives the engine's epoch pipeline over 120 simulated time
// units, where node loads evolve as stochastic processes and congestion
// epochs periodically reshuffle latencies, and compares a static deployment
// against one that periodically runs local re-optimization (service
// migration) with an occasional full re-plan.
//
// Everything goes through the StreamEngine lifecycle: each simulated time
// unit is one AdvanceEpoch (the explicit jitter -> load -> coords ->
// churn -> refresh pipeline), and Reoptimize keeps query handles valid
// across full re-plans — no manual circuit-id juggling when a re-plan
// swaps the circuit.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stream_engine.h"
#include "net/generators.h"
#include "query/workload.h"

namespace {

struct RunResult {
  double mean_cost = 0.0;  // time-averaged estimated circuit cost
  size_t migrations = 0;
  size_t replans = 0;
};

RunResult Simulate(bool adaptive, uint64_t seed) {
  sbon::Rng rng(seed);
  sbon::net::TransitStubParams tp;
  tp.transit_domains = 2;
  tp.nodes_per_stub_domain = 8;
  auto topo = sbon::net::GenerateTransitStub(tp, &rng);

  sbon::engine::EngineOptions options;
  options.topology = std::move(topo.value());
  options.sbon.seed = seed;
  options.sbon.load_params.sigma = 0.35;  // volatile loads
  options.sbon.load_params.theta = 0.4;
  options.sbon.load_params.hotspot_frac = 0.05;
  options.sbon.latency_jitter_sigma = 0.2;  // transient congestion epochs
  options.optimizer = "integrated";
  auto created = sbon::engine::StreamEngine::Create(std::move(options));
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<sbon::engine::StreamEngine> engine =
      std::move(created.value());

  sbon::query::WorkloadParams wp;
  wp.num_streams = 12;
  engine->SetCatalog(
      sbon::query::MakeRandomCatalog(wp, engine->sbon().overlay_nodes(),
                                     &engine->sbon().rng())
          .value());

  // Deploy 6 long-running queries.
  std::vector<sbon::engine::QueryHandle> deployed;
  for (int i = 0; i < 6; ++i) {
    auto handle = engine->Submit(
        sbon::query::MakeRandomQuery(wp, engine->catalog(),
                                     engine->sbon().overlay_nodes(),
                                     &engine->sbon().rng())
            .value());
    if (handle.ok()) deployed.push_back(*handle);
  }

  RunResult result;
  size_t samples = 0;

  constexpr int kHorizon = 120;
  for (int t = 1; t <= kHorizon; ++t) {
    // Load dynamics every time unit; the index refresh publishes the fresh
    // scalars. A congestion epoch every 15 units resamples latency jitter
    // and lets coordinates track the new latencies online.
    sbon::engine::EpochOptions epoch;
    epoch.dt = 1.0;
    const bool congestion = t % 15 == 0;
    epoch.tick_network = congestion;
    epoch.vivaldi_samples = congestion ? 8 : 0;
    engine->AdvanceEpoch(epoch);

    // Cost sampling every 5 units.
    if (t % 5 == 0) {
      for (sbon::engine::QueryHandle handle : deployed) {
        auto cost = engine->CurrentEstimatedCost(handle);
        if (cost.ok()) {
          result.mean_cost += *cost;
          ++samples;
        }
      }
    }

    if (adaptive) {
      // Local re-optimization every 10 units; full re-plan every 40.
      if (t % 10 == 0) {
        for (sbon::engine::QueryHandle handle : deployed) {
          sbon::engine::ReoptPolicy policy;  // defaults to Mode::kLocal
          auto outcome = engine->Reoptimize(handle, policy);
          if (outcome.ok()) result.migrations += outcome->local.migrations;
        }
      }
      if (t % 40 == 0) {
        for (sbon::engine::QueryHandle handle : deployed) {
          sbon::engine::ReoptPolicy policy;
          policy.mode = sbon::engine::ReoptPolicy::Mode::kFull;
          auto outcome = engine->Reoptimize(handle, policy);
          if (outcome.ok() && outcome->full.redeployed) ++result.replans;
        }
      }
    }
  }

  if (samples > 0) result.mean_cost /= static_cast<double>(samples);
  return result;
}

}  // namespace

int main() {
  std::printf("adaptive re-optimization under volatile node load "
              "(120 time units, 6 circuits)\n\n");
  std::printf("%-10s %-22s %-12s %-9s\n", "mode", "time-avg est cost",
              "migrations", "replans");
  double static_cost = 0.0, adaptive_cost = 0.0;
  for (uint64_t seed : {3, 4, 5}) {
    const RunResult st = Simulate(/*adaptive=*/false, seed);
    const RunResult ad = Simulate(/*adaptive=*/true, seed);
    static_cost += st.mean_cost;
    adaptive_cost += ad.mean_cost;
    std::printf("seed %llu:\n", static_cast<unsigned long long>(seed));
    std::printf("%-10s %-22.1f %-12zu %-9zu\n", "  static", st.mean_cost,
                st.migrations, st.replans);
    std::printf("%-10s %-22.1f %-12zu %-9zu\n", "  adaptive", ad.mean_cost,
                ad.migrations, ad.replans);
  }
  std::printf("\nadaptive deployment averages %.1f%% lower estimated cost "
              "than leaving initial placements to rot\n",
              100.0 * (1.0 - adaptive_cost / std::max(1.0, static_cost)));
  return 0;
}
