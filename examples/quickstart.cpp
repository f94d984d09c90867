// Quickstart: bring up a StreamEngine over a simulated transit-stub
// network, register streams, submit one continuous query, and inspect the
// deployed circuit. The engine owns the whole pipeline — coordinates, cost
// space, plan enumeration, placement, DHT mapping, installation — behind
// Submit().
//
//   $ ./examples/quickstart

#include <cstdio>
#include <memory>
#include <utility>

#include "engine/stream_engine.h"
#include "net/generators.h"

int main() {
  // A simulated transit-stub network (the paper's evaluation substrate),
  // and an engine whose optimization strategy is chosen by registry name
  // ("two-step" / "integrated" / "multi-query").
  sbon::Rng rng(7);
  auto topo = sbon::net::GenerateTransitStub({}, &rng);  // ~600 nodes
  if (!topo.ok()) return 1;
  sbon::engine::EngineOptions options;
  options.topology = std::move(topo.value());
  options.sbon.seed = 7;
  options.optimizer = "integrated";
  options.config.enumeration.top_k = 8;
  auto created = sbon::engine::StreamEngine::Create(std::move(options));
  if (!created.ok()) return 1;
  std::unique_ptr<sbon::engine::StreamEngine> engine =
      std::move(created.value());
  std::printf("topology: %s\n", engine->sbon().topology().Summary().c_str());

  // Streams are pinned at their producers; a query joins three of them.
  // Submit() optimizes and deploys as one atomic step.
  const auto& nodes = engine->sbon().overlay_nodes();
  const sbon::StreamId temps =
      engine->AddStream("temperatures", /*tuple_rate=*/50, /*bytes=*/64,
                        nodes[10]);
  const sbon::StreamId quakes = engine->AddStream("seismic", 200, 128,
                                                  nodes[200]);
  const sbon::StreamId alerts = engine->AddStream("alert_config", 1, 256,
                                                  nodes[400]);
  auto handle = engine->Submit(sbon::query::QuerySpec::SimpleJoin(
      {temps, quakes, alerts}, /*consumer=*/nodes[500], /*sel=*/0.002));
  if (!handle.ok()) {
    std::fprintf(stderr, "submit: %s\n", handle.status().ToString().c_str());
    return 1;
  }

  // Inspect the deployment.
  auto stats = engine->StatsOf(*handle);
  const auto* circuit = engine->sbon().ledger().FindCircuit(stats->circuit);
  std::printf("chosen plan: %s\n", circuit->plan().Canonical().c_str());
  std::printf("candidates considered: %zu plans, %zu placements\n",
              stats->plans_considered, stats->placements_evaluated);
  std::printf("deployed circuit %llu:\n",
              static_cast<unsigned long long>(stats->circuit));
  std::printf("  network usage    : %.1f KB*ms/s\n",
              stats->true_cost.network_usage / 1000.0);
  std::printf("  consumer latency : %.1f ms\n",
              stats->true_cost.critical_path_latency_ms);
  for (int v : circuit->UnpinnedVertices()) {
    std::printf("  service %-9s at node %u (load %.2f)\n",
                sbon::query::OpKindName(circuit->plan().op(v).kind),
                circuit->vertex(v).host,
                engine->sbon().TotalLoad(circuit->vertex(v).host));
  }
  return 0;
}
