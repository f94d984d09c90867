// Ablation: coordinate quality. How much circuit quality does Vivaldi's
// embedding error cost, compared against the centralized classical-MDS
// oracle embedding, and how much does the DHT probe cost on top of an exact
// (linear-scan) physical mapping? Also sweeps the latency-plane dimension.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "coords/mds.h"
#include "engine/stream_engine.h"
#include "overlay/metrics.h"
#include "query/workload.h"

namespace sbon {
namespace {

Summary RunConfig(coords::CoordMode mode, size_t dims,
                  Summary* embed_err) {
  Summary usage;
  for (uint64_t seed = 1; seed <= bench::Sweep(10); ++seed) {
    engine::EngineOptions eo;
    eo.sbon.coord_mode = mode;
    eo.sbon.space_spec = coords::CostSpaceSpec::LatencyAndLoad(dims, 100.0);
    auto engine = bench::MakeTransitStubEngine(bench::Nodes(200), seed * 61,
                                               std::move(eo));
    overlay::Sbon& sbon = engine->sbon();
    if (embed_err != nullptr) {
      std::vector<Vec> coords;
      for (NodeId n = 0; n < sbon.topology().NumNodes(); ++n) {
        coords.push_back(sbon.cost_space().VectorCoord(n));
      }
      embed_err->Add(coords::EvaluateEmbedding(sbon.latency(), coords)
                         .median_relative_error);
    }
    query::WorkloadParams wp;
    wp.num_streams = 12;
    engine->SetCatalog(
        query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng())
            .value());
    for (int i = 0; i < 5; ++i) {
      query::QuerySpec q =
          query::MakeRandomQuery(wp, engine->catalog(), sbon.overlay_nodes(),
                                 &sbon.rng())
              .value();
      auto r = engine->Optimize(q);
      if (!r.ok()) continue;
      auto cost = overlay::ComputeCircuitCost(r->circuit, sbon.latency(),
                                              nullptr);
      if (cost.ok()) usage.Add(cost->network_usage / 1000.0);
    }
  }
  return usage;
}

void Run() {
  bench::Section("embedding source (2-D latency plane + load dim)");
  {
    TableWriter t({"coords", "median embed err", "usage (KB*ms/s)",
                   "vs MDS oracle"});
    Summary viv_err, mds_err;
    Summary viv = RunConfig(coords::CoordMode::kVivaldi, 2, &viv_err);
    Summary mds = RunConfig(coords::CoordMode::kMds, 2, &mds_err);
    t.AddRow({"vivaldi (deployable)", TableWriter::Fixed(viv_err.Mean(), 3),
              TableWriter::Num(viv.Mean()),
              TableWriter::Fixed(100.0 * (viv.Mean() / mds.Mean() - 1.0), 1) +
                  "%"});
    t.AddRow({"classical MDS (oracle)", TableWriter::Fixed(mds_err.Mean(), 3),
              TableWriter::Num(mds.Mean()), "0.0%"});
    std::printf("%s", t.Render().c_str());
  }

  bench::Section("latency-plane dimensionality (Vivaldi)");
  {
    TableWriter t({"dims", "median embed err", "usage (KB*ms/s)"});
    for (size_t dims : {2, 3, 4, 5}) {
      Summary err;
      Summary usage = RunConfig(coords::CoordMode::kVivaldi, dims,
                                &err);
      t.AddRow({std::to_string(dims), TableWriter::Fixed(err.Mean(), 3),
                TableWriter::Num(usage.Mean())});
    }
    std::printf("%s", t.Render().c_str());
    std::printf(
        "(more dimensions shrink embedding error with diminishing returns "
        "[16]; the curve here\n quantifies what that buys the optimizer "
        "end-to-end)\n");
  }
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  std::printf("Ablation: network-coordinate quality vs optimizer output "
              "quality\n");
  sbon::Run();
  return 0;
}
