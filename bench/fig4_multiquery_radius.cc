// Reproduces Figure 4 of the paper: multi-query optimization pruned by a
// radius-r hyper-sphere in the cost space. Only circuits whose reusable
// services sit within radius r of the new service's virtual coordinate are
// considered for reuse; faraway circuits (the paper's C1, C2) are ignored,
// bounding optimizer work, while nearby compatible services (the paper's
// S3) still get merged, reducing the marginal cost of the new circuit.
//
// Sweep: radius r from 0 (no reuse / pure integrated) to unbounded (no
// pruning). Expected shape: over the finite radii, optimizer work (reuse
// candidates examined, DHT probes) grows with r; marginal circuit cost
// drops steeply at small r and then flattens — most of the benefit of
// unbounded search at a fraction of its cost, which is the pruning argument
// of Sec. 3.4. The unbounded row, labelled "oracle", takes every compatible
// instance from the ledger's global signature catalog and runs no sphere
// search, so its ring probes are not a point on the work curve.

#include <cstdio>
#include <limits>
#include <memory>

#include "bench/bench_util.h"
#include "common/summary.h"
#include "common/table.h"
#include "engine/stream_engine.h"
#include "overlay/metrics.h"
#include "query/workload.h"

namespace sbon {
namespace {

using bench::MakeTransitStubEngine;
using bench::Section;

engine::StrategySpec MultiQueryStrategy(double radius) {
  engine::StrategySpec s;
  s.optimizer = "multi-query";
  core::OptimizerConfig cfg;
  cfg.enumeration.top_k = 4;
  cfg.reuse_radius = radius;
  s.config = cfg;
  return s;
}

void Run() {
  // A workload with heavy stream sharing: few streams, many queries.
  query::WorkloadParams wp;
  wp.num_streams = 12;
  wp.min_streams_per_query = 2;
  wp.max_streams_per_query = 4;
  // Coarse selectivity grid so identical (stream set, selectivity) ops
  // recur across queries and reuse signatures collide meaningfully.
  wp.join_sel_log10_min = -3.0;
  wp.join_sel_log10_max = -3.0;
  wp.filter_prob = 0.0;
  wp.aggregate_prob = 0.0;

  auto engine = MakeTransitStubEngine(bench::Nodes(300), /*seed=*/2025);
  overlay::Sbon& sbon = engine->sbon();
  engine->SetCatalog(
      query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng())
          .value());

  // Populate the SBON with a base of running circuits (reuse enabled so
  // the base itself shares services, as a mature SBON would).
  std::vector<query::QuerySpec> base;
  for (size_t i = 0; i < bench::Sweep(40, 8); ++i) {
    base.push_back(query::MakeRandomQuery(wp, engine->catalog(),
                                          sbon.overlay_nodes(), &sbon.rng())
                       .value());
  }
  (void)engine->SubmitAll(base, MultiQueryStrategy(/*radius=*/60.0));
  std::printf("base workload: %zu circuits, %zu service instances, "
              "total usage %.4g KB*ms/s\n",
              sbon.ledger().circuits().size(), sbon.ledger().NumServices(),
              sbon.TotalNetworkUsage() / 1000.0);

  // Fresh queries evaluated (not installed) under every radius.
  std::vector<query::QuerySpec> probes;
  for (size_t i = 0; i < bench::Sweep(25, 5); ++i) {
    probes.push_back(query::MakeRandomQuery(wp, engine->catalog(),
                                            sbon.overlay_nodes(), &sbon.rng())
                         .value());
  }

  Section("radius sweep (per new query, averaged over " +
          std::to_string(probes.size()) + " queries)");
  TableWriter t({"radius r", "reuse cands", "ring probes", "reused svcs",
                 "est marginal cost", "true marginal usage",
                 "vs no-reuse"});
  double no_reuse_usage = -1.0;
  for (double radius : {0.0, 5.0, 15.0, 30.0, 60.0, 120.0, 240.0, -1.0}) {
    Summary cands, probes_s, reused, est_cost, usage;
    for (const query::QuerySpec& q : probes) {
      auto r = engine->Optimize(q, MultiQueryStrategy(radius));
      if (!r.ok()) continue;
      cands.Add(static_cast<double>(r->reuse_candidates_considered));
      probes_s.Add(static_cast<double>(r->mapping.dht_cost.ring_probes));
      reused.Add(static_cast<double>(r->services_reused));
      est_cost.Add(r->estimated_cost / 1000.0);
      auto cost = overlay::ComputeCircuitCost(r->circuit, sbon.latency(),
                                              &sbon.cost_space());
      if (cost.ok()) usage.Add(cost->network_usage / 1000.0);
    }
    if (no_reuse_usage < 0.0) no_reuse_usage = usage.Mean();
    const std::string rlabel =
        radius < 0.0 ? "oracle" : TableWriter::Fixed(radius, 0);
    t.AddRow({rlabel, TableWriter::Fixed(cands.Mean(), 1),
              TableWriter::Fixed(probes_s.Mean(), 1),
              TableWriter::Fixed(reused.Mean(), 2),
              TableWriter::Num(est_cost.Mean()),
              TableWriter::Num(usage.Mean()),
              TableWriter::Fixed(
                  100.0 * (1.0 - usage.Mean() /
                                     std::max(1e-9, no_reuse_usage)),
                  1) +
                  "%"});
  }
  std::printf("%s", t.Render().c_str());
  std::printf(
      "\nShape check (paper claim): over the finite radii, work "
      "(candidates, probes) grows with r;\nmarginal cost falls quickly "
      "then flattens — a small radius captures most of unbounded\nreuse's "
      "benefit while ignoring faraway circuits like C1/C2 in the figure. "
      "The oracle\nrow is unbounded r served from the ledger's global "
      "signature catalog with no sphere\nsearch, so its probes are not "
      "comparable with the finite radii's.\n");
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  std::printf(
      "Figure 4 reproduction: multi-query optimization with cost-space "
      "radius pruning\n");
  sbon::Run();
  return 0;
}
