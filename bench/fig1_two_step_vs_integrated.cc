// Reproduces Figure 1 of the paper: the inefficiency of two-step
// optimization. Plan generation that is blind to the network can pick a
// join decomposition (Query Plan 1) that places badly; an integrated
// optimizer that virtually places *every* candidate plan picks the
// decomposition that is cheap after placement (Query Plan 2).
//
// The paper's figure is a schematic; this harness quantifies it: over many
// random transit-stub SBONs and join queries, it compares the two-step
// baseline against the integrated cost-space optimizer on true (latency-
// matrix) network usage and consumer latency. Expected shape: integrated
// never loses by construction of its candidate set, wins a substantial
// fraction of instances, and wins by a meaningful factor when it wins.

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

using bench::MakeTransitStubEngine;
using bench::Section;

engine::StrategySpec Strategy(const char* optimizer, size_t top_k) {
  engine::StrategySpec s;
  s.optimizer = optimizer;
  core::OptimizerConfig cfg;
  cfg.enumeration.top_k = top_k;
  s.config = cfg;
  return s;
}

struct CellResult {
  Summary two_step_usage;
  Summary integrated_usage;
  Summary ratio;           // two-step / integrated (>1 = integrated wins)
  Summary two_step_lat;
  Summary integrated_lat;
  size_t integrated_wins = 0;
  size_t ties = 0;
  size_t trials = 0;
};

CellResult RunCell(size_t nodes, size_t producers, size_t seeds,
                   size_t top_k) {
  CellResult out;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    auto engine = MakeTransitStubEngine(nodes, seed * 7919);
    overlay::Sbon& sbon = engine->sbon();
    query::WorkloadParams wp;
    wp.num_streams = producers;
    wp.min_streams_per_query = producers;
    wp.max_streams_per_query = producers;
    engine->SetCatalog(
        query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng())
            .value());
    query::QuerySpec spec =
        query::MakeRandomQuery(wp, engine->catalog(), sbon.overlay_nodes(),
                               &sbon.rng())
            .value();

    auto rt = engine->Optimize(spec, Strategy("two-step", top_k));
    auto ri = engine->Optimize(spec, Strategy("integrated", top_k));
    if (!rt.ok() || !ri.ok()) continue;

    auto ct = overlay::ComputeCircuitCost(rt->circuit, sbon.latency(),
                                          &sbon.cost_space());
    auto ci = overlay::ComputeCircuitCost(ri->circuit, sbon.latency(),
                                          &sbon.cost_space());
    if (!ct.ok() || !ci.ok()) continue;

    out.trials++;
    out.two_step_usage.Add(ct->network_usage / 1000.0);   // KB*ms/s
    out.integrated_usage.Add(ci->network_usage / 1000.0);
    out.two_step_lat.Add(ct->critical_path_latency_ms);
    out.integrated_lat.Add(ci->critical_path_latency_ms);
    if (ci->network_usage < ct->network_usage * 0.999) {
      out.integrated_wins++;
    } else if (ci->network_usage <= ct->network_usage * 1.001) {
      out.ties++;
    }
    if (ci->network_usage > 0.0) {
      out.ratio.Add(ct->network_usage / ci->network_usage);
    }
  }
  return out;
}

// The paper's exact premise: "assuming the selectivities of the two plans
// were roughly the same" — identical rates and pairwise selectivities make
// every join decomposition equal in data volume, so the *only* thing that
// separates plans is where their services can be placed. Two-step then
// picks an arbitrary decomposition; integrated picks the best-placed one.
CellResult RunUniformCell(size_t nodes, size_t producers, size_t seeds,
                          size_t top_k) {
  CellResult out;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    auto engine = MakeTransitStubEngine(nodes, seed * 104729);
    overlay::Sbon& sbon = engine->sbon();
    std::vector<StreamId> ids;
    for (size_t i = 0; i < producers; ++i) {
      const NodeId producer = sbon.overlay_nodes()[sbon.rng().UniformInt(
          sbon.overlay_nodes().size())];
      ids.push_back(engine->AddStream(query::IndexedStreamName(i), 50.0, 128.0,
                                      producer));
    }
    const NodeId consumer = sbon.overlay_nodes()[sbon.rng().UniformInt(
        sbon.overlay_nodes().size())];
    query::QuerySpec spec =
        query::QuerySpec::SimpleJoin(ids, consumer, 0.0005);

    auto rt = engine->Optimize(spec, Strategy("two-step", top_k));
    auto ri = engine->Optimize(spec, Strategy("integrated", top_k));
    if (!rt.ok() || !ri.ok()) continue;
    auto ct = overlay::ComputeCircuitCost(rt->circuit, sbon.latency(),
                                          &sbon.cost_space());
    auto ci = overlay::ComputeCircuitCost(ri->circuit, sbon.latency(),
                                          &sbon.cost_space());
    if (!ct.ok() || !ci.ok()) continue;
    out.trials++;
    out.two_step_usage.Add(ct->network_usage / 1000.0);
    out.integrated_usage.Add(ci->network_usage / 1000.0);
    out.two_step_lat.Add(ct->critical_path_latency_ms);
    out.integrated_lat.Add(ci->critical_path_latency_ms);
    if (ci->network_usage < ct->network_usage * 0.999) out.integrated_wins++;
    else if (ci->network_usage <= ct->network_usage * 1.001) out.ties++;
    if (ci->network_usage > 0.0) {
      out.ratio.Add(ct->network_usage / ci->network_usage);
    }
  }
  return out;
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  using sbon::TableWriter;
  std::printf("Figure 1 reproduction: two-step vs integrated optimization\n");
  std::printf("(network usage in KB*ms/s; ratio = two-step / integrated)\n");

  sbon::bench::Section(
      "Paper-exact premise: equal selectivities, plan choice decided by "
      "placement alone");
  {
    TableWriter t({"producers", "trials", "2step usage", "integr usage",
                   "mean ratio", "p90 ratio", "integr wins"});
    for (size_t producers : {3, 4, 5}) {
      auto r = sbon::RunUniformCell(sbon::bench::Nodes(200), producers,
                                    sbon::bench::Sweep(25), /*top_k=*/8);
      t.AddRow({std::to_string(producers), std::to_string(r.trials),
                TableWriter::Num(r.two_step_usage.Mean()),
                TableWriter::Num(r.integrated_usage.Mean()),
                TableWriter::Fixed(r.ratio.Mean(), 3),
                TableWriter::Fixed(r.ratio.Percentile(90), 3),
                TableWriter::Fixed(
                    100.0 * r.integrated_wins / std::max<size_t>(1, r.trials),
                    1) +
                    "%"});
    }
    std::printf("%s", t.Render().c_str());
  }

  sbon::bench::Section(
      "Paper scenario: 4 producers, 4-way join, transit-stub overlays");
  {
    TableWriter t({"nodes", "trials", "2step usage", "integr usage",
                   "mean ratio", "p90 ratio", "integr wins", "tied"});
    for (size_t nodes : sbon::bench::DedupedSizes({100, 200, 400, 600})) {
      const size_t seeds = sbon::bench::Sweep(nodes >= 400 ? 15 : 25);
      auto r = sbon::RunCell(nodes, /*producers=*/4, seeds, /*top_k=*/8);
      t.AddRow({std::to_string(nodes),
                std::to_string(r.trials),
                TableWriter::Num(r.two_step_usage.Mean()),
                TableWriter::Num(r.integrated_usage.Mean()),
                TableWriter::Fixed(r.ratio.Mean(), 3),
                TableWriter::Fixed(r.ratio.Percentile(90), 3),
                TableWriter::Fixed(
                    100.0 * r.integrated_wins / std::max<size_t>(1, r.trials),
                    1) +
                    "%",
                TableWriter::Fixed(
                    100.0 * r.ties / std::max<size_t>(1, r.trials), 1) +
                    "%"});
    }
    std::printf("%s", t.Render().c_str());
  }

  sbon::bench::Section("Sweep: producers per query (200-node overlay)");
  {
    TableWriter t({"producers", "trials", "2step usage", "integr usage",
                   "mean ratio", "integr wins", "2step lat ms",
                   "integr lat ms"});
    for (size_t producers : {3, 4, 5, 6}) {
      auto r = sbon::RunCell(sbon::bench::Nodes(200), producers, sbon::bench::Sweep(25), /*top_k=*/8);
      t.AddRow({std::to_string(producers), std::to_string(r.trials),
                TableWriter::Num(r.two_step_usage.Mean()),
                TableWriter::Num(r.integrated_usage.Mean()),
                TableWriter::Fixed(r.ratio.Mean(), 3),
                TableWriter::Fixed(
                    100.0 * r.integrated_wins / std::max<size_t>(1, r.trials),
                    1) +
                    "%",
                TableWriter::Fixed(r.two_step_lat.Mean(), 1),
                TableWriter::Fixed(r.integrated_lat.Mean(), 1)});
    }
    std::printf("%s", t.Render().c_str());
  }

  std::printf(
      "\nShape check (paper claim): the integrated optimizer should never "
      "lose on estimate,\nwin a visible fraction of instances on true usage, "
      "and the win should grow with\nplan-space size (more producers => more "
      "decompositions to get wrong).\n");
  return 0;
}
