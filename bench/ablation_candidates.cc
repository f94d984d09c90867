// Ablation: candidate-plan breadth K. K = 1 degenerates the integrated
// optimizer into the classical two-step pipeline; larger K trades optimizer
// work (placements evaluated) for circuit quality. Measures where the
// quality curve flattens.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "engine/stream_engine.h"
#include "overlay/metrics.h"
#include "query/workload.h"

namespace sbon {
namespace {

void Run() {
  // Shared instances across K values for paired comparison.
  struct Instance {
    std::unique_ptr<engine::StreamEngine> engine;
    std::vector<query::QuerySpec> specs;
  };
  std::vector<Instance> instances;
  for (uint64_t seed = 1; seed <= bench::Sweep(10); ++seed) {
    Instance inst;
    inst.engine = bench::MakeTransitStubEngine(bench::Nodes(200), seed * 37);
    query::WorkloadParams wp;
    wp.num_streams = 5;
    wp.min_streams_per_query = 5;
    wp.max_streams_per_query = 5;
    // Near-uniform selectivities: the regime where integration matters.
    wp.join_sel_log10_min = -3.2;
    wp.join_sel_log10_max = -2.8;
    wp.filter_prob = 0.0;
    wp.aggregate_prob = 0.0;
    overlay::Sbon& sbon = inst.engine->sbon();
    inst.engine->SetCatalog(
        query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng())
            .value());
    for (int i = 0; i < 4; ++i) {
      inst.specs.push_back(
          query::MakeRandomQuery(wp, inst.engine->catalog(),
                                 sbon.overlay_nodes(), &sbon.rng())
              .value());
    }
    instances.push_back(std::move(inst));
  }

  double k1_usage = -1.0;
  TableWriter t({"K", "placements/query", "usage (KB*ms/s)", "vs K=1",
                 "est cost", "DHT probes/query"});
  for (size_t k : {1, 2, 4, 8, 16, 32}) {
    Summary usage, est, placements, probes;
    for (Instance& inst : instances) {
      engine::StrategySpec strategy;
      core::OptimizerConfig cfg;
      cfg.enumeration.top_k = k;
      strategy.config = cfg;
      for (const query::QuerySpec& q : inst.specs) {
        auto r = inst.engine->Optimize(q, strategy);
        if (!r.ok()) continue;
        auto cost = overlay::ComputeCircuitCost(
            r->circuit, inst.engine->sbon().latency(), nullptr);
        if (!cost.ok()) continue;
        usage.Add(cost->network_usage / 1000.0);
        est.Add(r->estimated_cost / 1000.0);
        placements.Add(static_cast<double>(r->placements_evaluated));
        probes.Add(static_cast<double>(r->mapping.dht_cost.ring_probes));
      }
    }
    if (k1_usage < 0.0) k1_usage = usage.Mean();
    t.AddRow({std::to_string(k), TableWriter::Fixed(placements.Mean(), 1),
              TableWriter::Num(usage.Mean()),
              TableWriter::Fixed(100.0 * (1.0 - usage.Mean() / k1_usage), 1) +
                  "%",
              TableWriter::Num(est.Mean()),
              TableWriter::Fixed(probes.Mean(), 0)});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "\n(improvement over K=1 — the two-step pipeline — should rise "
      "steeply for small K and\n flatten: a handful of virtually placed "
      "candidates buys most of the integration win)\n");
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  std::printf("Ablation: candidate-plan breadth K in the integrated "
              "optimizer\n");
  sbon::Run();
  return 0;
}
