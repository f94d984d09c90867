// Volcano monitoring: the paper's motivating pinned-producer scenario
// ("live sensor readings from a volcano originate at a particular volcano;
// one cannot move mountains", Sec. 2).
//
// A stub domain at the edge of the overlay hosts seismic, infrasound and
// GPS-deformation sensor streams. Observatories on the other side of the
// network run continuous fusion queries (join + aggregate). The example
// compares the engine's "integrated" and "two-step" strategies per query —
// selected by registry name, never by constructing optimizers — showing how
// integrated optimization pushes fusion services toward the volcano when
// sensor rates dominate, and how the two-step baseline pays for planning
// blind.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "engine/stream_engine.h"
#include "net/generators.h"
#include "overlay/metrics.h"

int main() {
  sbon::Rng rng(13);
  auto topo = sbon::net::GenerateTransitStub({}, &rng);
  if (!topo.ok()) return 1;

  sbon::engine::EngineOptions options;
  options.topology = std::move(topo.value());
  options.sbon.seed = 13;
  options.optimizer = "integrated";
  options.config.enumeration.top_k = 8;
  options.refresh_index_on_install = true;
  auto created = sbon::engine::StreamEngine::Create(std::move(options));
  if (!created.ok()) return 1;
  std::unique_ptr<sbon::engine::StreamEngine> engine =
      std::move(created.value());
  sbon::overlay::Sbon& sbon = engine->sbon();

  // The "volcano" is one stub domain: pick the domain of the first overlay
  // node and pin all sensors inside it.
  const auto& nodes = sbon.overlay_nodes();
  const int volcano_domain = sbon.topology().domain(nodes[0]);
  std::vector<sbon::NodeId> volcano_nodes;
  for (sbon::NodeId n : nodes) {
    if (sbon.topology().domain(n) == volcano_domain) {
      volcano_nodes.push_back(n);
    }
  }
  // Observatories: nodes maximally far (in latency) from the volcano.
  std::vector<sbon::NodeId> observatories = nodes;
  std::sort(observatories.begin(), observatories.end(),
            [&](sbon::NodeId a, sbon::NodeId b) {
              return sbon.latency().Latency(volcano_nodes[0], a) >
                     sbon.latency().Latency(volcano_nodes[0], b);
            });
  observatories.resize(4);

  std::printf("volcano domain %d: %zu sensor hosts; farthest observatory "
              "%.0f ms away\n",
              volcano_domain, volcano_nodes.size(),
              sbon.latency().Latency(volcano_nodes[0], observatories[0]));

  const sbon::StreamId seismic = engine->AddStream(
      "seismic_waveform", /*tuple_rate=*/400, /*bytes=*/256,
      volcano_nodes[0 % volcano_nodes.size()]);
  const sbon::StreamId infrasound = engine->AddStream(
      "infrasound", 150, 128, volcano_nodes[1 % volcano_nodes.size()]);
  const sbon::StreamId gps = engine->AddStream(
      "gps_deformation", 10, 64, volcano_nodes[2 % volcano_nodes.size()]);

  // Fusion query per observatory: correlate the three streams inside a
  // short window, filter to anomalous readings, aggregate to event scores.
  auto make_query = [&](sbon::NodeId observatory) {
    sbon::query::QuerySpec q = sbon::query::QuerySpec::SimpleJoin(
        {seismic, infrasound, gps}, observatory,
        /*sel=*/5e-4, /*window_s=*/0.5);
    q.filter_sel = {0.2, 0.3, 1.0};  // onsite anomaly filters
    q.aggregate_factor = 0.05;       // event scoring shrinks the output
    return q;
  };

  std::printf("\n%-12s %-14s %-14s %-10s %s\n", "observatory",
              "2step KB*ms/s", "integr KB*ms/s", "ratio",
              "fusion services near volcano?");
  for (sbon::NodeId obs : observatories) {
    const sbon::query::QuerySpec q = make_query(obs);
    // Compare the baseline without deploying, then submit the integrated
    // circuit (Submit = optimize + install, atomically).
    sbon::engine::StrategySpec two_step;
    two_step.optimizer = "two-step";
    auto rt = engine->Optimize(q, two_step);
    if (!rt.ok()) continue;
    auto ct = sbon::overlay::ComputeCircuitCost(rt->circuit, sbon.latency(),
                                                nullptr);
    if (!ct.ok()) continue;  // only deploy queries the table will show
    auto handle = engine->Submit(q);
    if (!handle.ok()) continue;
    auto stats = engine->StatsOf(*handle);
    const sbon::overlay::Circuit* ri =
        sbon.ledger().FindCircuit(stats->circuit);

    // How close to the volcano did the fusion land? (mean latency of the
    // join services to the nearest sensor host)
    double near = 0.0;
    size_t joins = 0;
    for (int v : ri->UnpinnedVertices()) {
      if (ri->plan().op(v).kind != sbon::query::OpKind::kJoin) continue;
      double best = 1e300;
      for (sbon::NodeId vn : volcano_nodes) {
        best = std::min(best, sbon.latency().Latency(ri->vertex(v).host, vn));
      }
      near += best;
      ++joins;
    }
    std::printf("node %-7u %-14.1f %-14.1f %-10.2f joins avg %.0f ms from "
                "sensors\n",
                obs, ct->network_usage / 1000.0,
                stats->true_cost.network_usage / 1000.0,
                ct->network_usage /
                    std::max(1.0, stats->true_cost.network_usage),
                joins ? near / joins : 0.0);
  }

  const sbon::engine::EngineSnapshot snap = engine->Snapshot();
  std::printf("\ndeployed %zu observatory circuits over %zu service "
              "instances; total usage %.1f KB*ms/s\n",
              snap.num_queries, snap.num_services,
              snap.total_network_usage / 1000.0);
  std::printf("(heavy sensor rates + selective fusion pull the join tree "
              "into the volcano's stub domain,\n so only the thin event "
              "stream crosses the wide-area links)\n");
  return 0;
}
