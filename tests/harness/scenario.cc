#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace sbon::test {
namespace {

engine::EngineOptions EngineOptionsFor(const ScenarioOptions& options) {
  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(options.size, options.seed);
  eo.sbon = options.sbon;
  eo.sbon.seed = options.seed;
  eo.config = options.config;
  return eo;
}

std::unique_ptr<engine::StreamEngine> MakeEngineOrDie(
    const ScenarioOptions& options) {
  auto engine = engine::StreamEngine::Create(EngineOptionsFor(options));
  if (!engine.ok()) {
    ADD_FAILURE() << "engine creation failed: "
                  << engine.status().ToString();
    std::abort();
  }
  return std::move(engine.value());
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioOptions options)
    : options_(std::move(options)), engine_(MakeEngineOrDie(options_)) {}

const query::Catalog& ScenarioRunner::UseRandomCatalog(
    const query::WorkloadParams& params, uint64_t seed) {
  engine_->SetCatalog(MakeCatalog(engine_->sbon(), params, seed));
  return engine_->catalog();
}

const query::Catalog& ScenarioRunner::UseCatalog(query::Catalog catalog) {
  engine_->SetCatalog(std::move(catalog));
  return engine_->catalog();
}

void ScenarioRunner::VerifyPlacedCircuit(const overlay::Circuit& circuit,
                                         const overlay::Sbon& sbon) {
  EXPECT_TRUE(circuit.FullyPlaced());
  const size_t num_nodes = sbon.topology().NumNodes();
  const auto& overlay_nodes = sbon.overlay_nodes();
  for (size_t i = 0; i < circuit.NumVertices(); ++i) {
    const auto& v = circuit.vertex(static_cast<int>(i));
    ASSERT_NE(v.host, kInvalidNode) << "vertex " << i << " unplaced";
    EXPECT_LT(v.host, num_nodes) << "vertex " << i << " host out of range";
    if (!v.pinned && !v.reused) {
      EXPECT_TRUE(std::find(overlay_nodes.begin(), overlay_nodes.end(),
                            v.host) != overlay_nodes.end())
          << "service vertex " << i << " placed on non-overlay node "
          << v.host;
    }
  }
  for (const auto& e : circuit.edges()) {
    EXPECT_GE(e.rate_bytes_per_s, 0.0);
    EXPECT_GE(e.from, 0);
    EXPECT_GE(e.to, 0);
    EXPECT_LT(static_cast<size_t>(e.from), circuit.NumVertices());
    EXPECT_LT(static_cast<size_t>(e.to), circuit.NumVertices());
  }
}

StatusOr<core::OptimizeResult> ScenarioRunner::OptimizeOnly(
    const std::string& optimizer, const query::QuerySpec& spec) {
  engine::StrategySpec strategy;
  strategy.optimizer = optimizer;
  return engine_->Optimize(spec, strategy);
}

PlacementRecord ScenarioRunner::PlaceAndInstall(
    const std::string& optimizer, const query::QuerySpec& spec) {
  PlacementRecord rec;
  engine::StrategySpec strategy;
  strategy.optimizer = optimizer;
  auto handle = engine_->Submit(spec, strategy);
  EXPECT_TRUE(handle.ok()) << optimizer
                           << " submit failed: " << handle.status().ToString();
  if (!handle.ok()) return rec;

  auto stats = engine_->StatsOf(*handle);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return rec;

  rec.estimated_cost = stats->estimated_cost;
  rec.plans_considered = stats->plans_considered;
  rec.placements_evaluated = stats->placements_evaluated;
  rec.services_reused = stats->services_reused;

  EXPECT_TRUE(std::isfinite(rec.estimated_cost));
  EXPECT_GT(rec.estimated_cost, 0.0);

  rec.circuit_id = stats->circuit;
  const overlay::Circuit* circuit = sbon().ledger().FindCircuit(rec.circuit_id);
  EXPECT_NE(circuit, nullptr);
  if (circuit == nullptr) return rec;
  VerifyPlacedCircuit(*circuit, sbon());

  // StatsOf already measured the true cost; VerifyInstalledCircuit fails
  // loudly if the cost was not computable.
  rec.true_cost = stats->true_cost;
  VerifyInstalledCircuit(rec.circuit_id);
  return rec;
}

void ScenarioRunner::VerifyInstalledCircuit(CircuitId id) const {
  const overlay::Sbon& sbon = engine_->sbon();
  const overlay::Circuit* circuit = sbon.ledger().FindCircuit(id);
  ASSERT_NE(circuit, nullptr);
  auto cost = sbon.CircuitCostOf(id);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_GE(cost->network_usage, 0.0);
  EXPECT_GE(cost->node_penalty, 0.0);
  EXPECT_TRUE(std::isfinite(cost->critical_path_latency_ms));

  // Triangle-inequality lower bound: on a jitter-free overlay (latencies are
  // all-pairs shortest paths, hence metric) a circuit routed through
  // services can never deliver a producer's data faster than the direct
  // path. Reused subtrees inherit foreign upstream latency, so skip those.
  const bool jitter_free = options_.sbon.latency_jitter_sigma == 0.0;
  const bool any_reused =
      std::any_of(circuit->vertices().begin(), circuit->vertices().end(),
                  [](const overlay::CircuitVertex& v) { return v.reused; });
  if (jitter_free && !any_reused) {
    const auto& plan = circuit->plan();
    NodeId consumer = kInvalidNode;
    double direct_bound = 0.0;
    const int n = static_cast<int>(circuit->NumVertices());
    for (int i = 0; i < n; ++i) {
      const auto& v = circuit->vertex(i);
      if (v.pinned && plan.op(i).kind == query::OpKind::kConsumer) {
        consumer = v.host;
      }
    }
    if (consumer != kInvalidNode) {
      for (int i = 0; i < n; ++i) {
        const auto& v = circuit->vertex(i);
        if (v.pinned && plan.op(i).kind == query::OpKind::kProducer) {
          direct_bound = std::max(direct_bound,
                                  sbon.latency().Latency(v.host, consumer));
        }
      }
      EXPECT_GE(cost->critical_path_latency_ms + 1e-9, direct_bound)
          << "circuit " << id << " beats the direct-path latency bound";
    }
  }
}

void ScenarioRunner::VerifyAllInstalled() const {
  for (const auto& [id, circuit] : engine_->sbon().ledger().circuits()) {
    (void)circuit;
    VerifyInstalledCircuit(id);
  }
  EXPECT_GE(engine_->sbon().TotalNetworkUsage(), 0.0);
}

const query::QuerySpec& ScenarioRunner::SpecOf(CircuitId id) const {
  const query::QuerySpec* spec = engine_->SpecOf(engine_->HandleOf(id));
  if (spec == nullptr) {
    ADD_FAILURE() << "no spec recorded for circuit " << id;
    static const query::QuerySpec kEmpty;
    return kEmpty;
  }
  return *spec;
}

void ScenarioRunner::Churn(double dt, size_t vivaldi_samples) {
  engine::EpochOptions epoch;
  epoch.dt = dt;
  epoch.tick_network = true;
  epoch.vivaldi_samples = vivaldi_samples;
  epoch.refresh_index = true;
  engine_->AdvanceEpoch(epoch);
}

StatusOr<core::LocalReoptReport> ScenarioRunner::LocalReopt(
    CircuitId id, const core::ReoptConfig& config) {
  engine::ReoptPolicy policy;
  policy.mode = engine::ReoptPolicy::Mode::kLocal;
  policy.config = config;
  auto outcome = engine_->Reoptimize(engine_->HandleOf(id), policy);
  if (!outcome.ok()) return outcome.status();
  return outcome->local;
}

StatusOr<engine::FullReoptReport> ScenarioRunner::FullReopt(
    CircuitId id, const core::ReoptConfig& config) {
  engine::ReoptPolicy policy;
  policy.mode = engine::ReoptPolicy::Mode::kFull;
  policy.config = config;
  auto outcome = engine_->Reoptimize(engine_->HandleOf(id), policy);
  if (!outcome.ok()) return outcome.status();
  return outcome->full;
}

}  // namespace sbon::test
