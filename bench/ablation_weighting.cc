// Ablation: scalar weighting function (paper Sec. 3.1 leaves the choice to
// the deployer; Figure 2 uses the squared function). We deploy the same
// workload under identity / squared / exponential / threshold weightings
// and measure the load of chosen hosts vs. the latency cost paid to avoid
// hot nodes. Sharper weightings should push placements off loaded nodes at
// a (small) network-usage premium.

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
  TableWriter t({"weighting", "chosen-host load", "p95 chosen load",
                 "hot hosts used", "usage (KB*ms/s)", "mapping err (ms)"});
  for (const char* name :
       {"identity", "squared", "exponential", "threshold"}) {
    Summary chosen_load, usage, map_err;
    size_t hot_used = 0, placements = 0;
    for (uint64_t seed = 1; seed <= bench::Sweep(12); ++seed) {
      engine::EngineOptions eo;
      std::vector<coords::ScalarDimSpec> dims;
      std::shared_ptr<coords::WeightingFn> w =
          coords::MakeWeighting(name, 100.0);
      dims.push_back(coords::ScalarDimSpec{"cpu_load", w});
      eo.sbon.space_spec = coords::CostSpaceSpec(2, dims);
      eo.sbon.load_params.mean = 0.3;
      eo.sbon.load_params.sigma = 0.2;
      eo.sbon.load_params.hotspot_frac = 0.15;
      eo.sbon.load_params.hotspot_mean = 0.95;
      auto engine = bench::MakeTransitStubEngine(bench::Nodes(200), seed * 53,
                                                 std::move(eo));
      overlay::Sbon& sbon = engine->sbon();

      query::WorkloadParams wp;
      wp.num_streams = 12;
      engine->SetCatalog(
          query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng())
              .value());
      for (int i = 0; i < 8; ++i) {
        query::QuerySpec q =
            query::MakeRandomQuery(wp, engine->catalog(), sbon.overlay_nodes(),
                                   &sbon.rng())
                .value();
        auto r = engine->Optimize(q);
        if (!r.ok()) continue;
        for (int v : r->circuit.PlaceableVertices()) {
          const double load = sbon.TotalLoad(r->circuit.vertex(v).host);
          chosen_load.Add(load);
          if (load > 0.7) ++hot_used;
          ++placements;
        }
        map_err.Add(r->mapping.MeanMappingError());
        auto cost = overlay::ComputeCircuitCost(r->circuit, sbon.latency(),
                                                nullptr);
        if (cost.ok()) usage.Add(cost->network_usage / 1000.0);
        auto id = sbon.InstallCircuit(std::move(r->circuit));
        if (id.ok()) sbon.RefreshIndex();
      }
    }
    t.AddRow({name, TableWriter::Fixed(chosen_load.Mean(), 3),
              TableWriter::Fixed(chosen_load.Percentile(95), 3),
              TableWriter::Fixed(
                  100.0 * hot_used / std::max<size_t>(1, placements), 1) +
                  "%",
              TableWriter::Num(usage.Mean()),
              TableWriter::Fixed(map_err.Mean(), 2)});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "\n(each weighting trades load avoidance against latency: threshold "
      "ignores load below its\n knee — cheapest usage, hottest hosts — "
      "while exponential avoids load hardest and pays\n the largest "
      "usage/mapping premium; squared, the paper's choice, sits between)\n");
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  std::printf("Ablation: scalar weighting functions under a hotspot-heavy "
              "load distribution\n");
  sbon::Run();
  return 0;
}
