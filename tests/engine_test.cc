// Tests of the sbon::engine layer: strategy registries, the StreamEngine
// query lifecycle (Submit / SubmitAll / Remove / Reoptimize / AdvanceEpoch /
// Snapshot), shared-instance accounting across queries, and the
// failure-atomicity of installation (engine Submit and Sbon::InstallCircuit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "harness/golden.h"
#include "query/plan.h"

namespace sbon::test {
namespace {

engine::EngineOptions SmallEngineOptions(uint64_t seed) {
  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(TopologySize::kSmall, seed);
  eo.sbon.seed = seed;
  eo.sbon.load_params.sigma = 0.0;  // deterministic ambient load
  eo.sbon.load_params.mean = 0.2;
  eo.config = TestOptimizerConfig();
  return eo;
}

std::unique_ptr<engine::StreamEngine> MakeEngine(engine::EngineOptions eo) {
  auto created = engine::StreamEngine::Create(std::move(eo));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created.value());
}

std::vector<double> ServiceLoads(const overlay::Sbon& sbon) {
  std::vector<double> loads;
  for (NodeId n = 0; n < sbon.topology().NumNodes(); ++n) {
    loads.push_back(sbon.ledger().service_load(n));
  }
  return loads;
}

// ----------------------------- registries -----------------------------

TEST(Registry, NamesListTheBuiltinTable) {
  EXPECT_EQ(engine::OptimizerRegistry::Global().Names(),
            (std::vector<std::string>{"integrated", "multi-query",
                                      "two-step"}));
  EXPECT_EQ(engine::PlacerRegistry::Global().Names(),
            (std::vector<std::string>{"centroid", "gradient", "relaxation"}));
  for (const std::string& name : engine::OptimizerRegistry::Global().Names()) {
    EXPECT_TRUE(engine::OptimizerRegistry::Global().Has(name)) << name;
  }
  for (const std::string& name : engine::PlacerRegistry::Global().Names()) {
    EXPECT_TRUE(engine::PlacerRegistry::Global().Has(name)) << name;
  }
}

TEST(Registry, UnknownNamesAreNotFound) {
  auto opt = engine::OptimizerRegistry::Global().Create(
      "nope", core::OptimizerConfig(), DefaultPlacer());
  EXPECT_FALSE(opt.ok());
  EXPECT_EQ(opt.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine::OptimizerRegistry::Global().Has("nope"));
  auto placer = engine::PlacerRegistry::Global().Create("nope");
  EXPECT_FALSE(placer.ok());
  EXPECT_EQ(placer.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine::PlacerRegistry::Global().Has("nope"));
}

TEST(Registry, CreatedPlacersReportTheirNames) {
  for (const std::string& name : engine::PlacerRegistry::Global().Names()) {
    auto placer = engine::PlacerRegistry::Global().Create(name);
    ASSERT_TRUE(placer.ok()) << placer.status().ToString();
    EXPECT_EQ((*placer)->Name(), name);
  }
}

// "two-step" is the integrated optimizer over one candidate plan, whatever
// top_k the spec asks for.
TEST(Registry, TwoStepIsIntegratedOverOnePlan) {
  auto sbon = MakeTransitStubSbon(TopologySize::kTiny, 5);
  const query::Catalog catalog = MakeCatalog(*sbon, TestWorkloadParams(), 7);
  const auto queries =
      MakeQueries(*sbon, catalog, TestWorkloadParams(), 1, 9);
  core::OptimizerConfig config = TestOptimizerConfig(/*top_k=*/8);
  const auto placer = DefaultPlacer();
  auto two_step =
      engine::OptimizerRegistry::Global().Create("two-step", config, placer);
  ASSERT_TRUE(two_step.ok()) << two_step.status().ToString();
  config.enumeration.top_k = 1;
  auto one =
      engine::OptimizerRegistry::Global().Create("integrated", config, placer);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  auto got = (*two_step)->Optimize(queries[0], catalog, sbon.get());
  auto want = (*one)->Optimize(queries[0], catalog, sbon.get());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->plans_considered, 1u);
  EXPECT_EQ(got->estimated_cost, want->estimated_cost);
  EXPECT_EQ(got->circuit.plan().Canonical(), want->circuit.plan().Canonical());
}

TEST(Registry, EngineCreationRejectsUnknownStrategies) {
  engine::EngineOptions eo = SmallEngineOptions(11);
  eo.optimizer = "definitely-not-registered";
  auto created = engine::StreamEngine::Create(std::move(eo));
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
}

// A NaN equals nothing, so a strategy carrying one would miss the engine's
// by-value optimizer cache on every call: a NaN lambda or reuse_radius is
// refused with InvalidArgument, here through EngineOptions at Create.
TEST(Registry, EngineCreationRejectsNaNStrategyParameters) {
  for (const bool radius : {false, true}) {
    SCOPED_TRACE(radius ? "reuse_radius" : "lambda");
    engine::EngineOptions eo = SmallEngineOptions(11);
    (radius ? eo.config.reuse_radius : eo.config.lambda) = std::nan("");
    auto created = engine::StreamEngine::Create(std::move(eo));
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
}

// --------------------------- query lifecycle ---------------------------

// The same refusal through a per-call StrategySpec at Submit, which leaves
// the overlay exactly as it was.
TEST(StreamEngine, SubmitRejectsNaNStrategyParameters) {
  auto engine = MakeEngine(SmallEngineOptions(21));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();
  ASSERT_TRUE(
      engine->Submit(query::QuerySpec::SimpleJoin({0, 1}, nodes[4], 0.01))
          .ok());
  const overlay::ServiceLedger& ledger = engine->sbon().ledger();
  const std::vector<double> loads = ServiceLoads(engine->sbon());
  const size_t services = ledger.NumServices();
  const size_t circuits = ledger.circuits().size();

  for (const bool radius : {false, true}) {
    SCOPED_TRACE(radius ? "reuse_radius" : "lambda");
    engine::StrategySpec strategy;
    strategy.optimizer = "multi-query";
    strategy.config = TestOptimizerConfig();
    (radius ? strategy.config->reuse_radius : strategy.config->lambda) =
        std::nan("");
    auto handle = engine->Submit(
        query::QuerySpec::SimpleJoin({0, 1}, nodes[9], 0.01), strategy);
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(engine->NumQueries(), 1u);
    EXPECT_EQ(ledger.NumServices(), services);
    EXPECT_EQ(ledger.circuits().size(), circuits);
    EXPECT_EQ(ServiceLoads(engine->sbon()), loads);
  }
}


TEST(StreamEngine, SubmitDeploysAndRemoveReleasesEverything) {
  auto engine = MakeEngine(SmallEngineOptions(21));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  auto handle = engine->Submit(
      query::QuerySpec::SimpleJoin({0, 1}, nodes[4], 0.01));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(*handle);
  EXPECT_EQ(engine->NumQueries(), 1u);
  EXPECT_GT(engine->sbon().ledger().NumServices(), 0u);

  auto stats = engine->StatsOf(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->optimizer, "integrated");
  EXPECT_GT(stats->estimated_cost, 0.0);
  EXPECT_GT(stats->true_cost.network_usage, 0.0);
  EXPECT_NE(engine->sbon().ledger().FindCircuit(stats->circuit), nullptr);
  ASSERT_NE(engine->SpecOf(*handle), nullptr);
  EXPECT_EQ(engine->SpecOf(*handle)->consumer, nodes[4]);
  EXPECT_EQ(engine->HandleOf(stats->circuit), *handle);

  auto estimate = engine->CurrentEstimatedCost(*handle);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(std::isfinite(*estimate));

  ASSERT_TRUE(engine->Remove(*handle).ok());
  EXPECT_EQ(engine->NumQueries(), 0u);
  EXPECT_EQ(engine->sbon().ledger().NumServices(), 0u);
  for (double load : ServiceLoads(engine->sbon())) EXPECT_EQ(load, 0.0);
  EXPECT_FALSE(engine->Remove(*handle).ok()) << "double remove must fail";
}

TEST(StreamEngine, SharedInstanceSurvivesPartialRemoval) {
  // Two queries sharing a service instance: removing one must keep the
  // instance alive (with its load) for the other; removing both must
  // release the instance and every load delta.
  engine::EngineOptions eo = SmallEngineOptions(23);
  eo.optimizer = "multi-query";
  eo.config.reuse_radius = -1.0;  // unbounded reuse
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  query::QuerySpec q1 = query::QuerySpec::SimpleJoin({0, 1}, nodes[4], 0.01);
  query::QuerySpec q2 = q1;
  q2.consumer = nodes[nodes.size() - 1];

  auto h1 = engine->Submit(q1);
  ASSERT_TRUE(h1.ok()) << h1.status().ToString();
  const size_t services_single = engine->sbon().ledger().NumServices();
  ASSERT_GT(services_single, 0u);

  auto h2 = engine->Submit(q2);
  ASSERT_TRUE(h2.ok()) << h2.status().ToString();
  auto stats2 = engine->StatsOf(*h2);
  ASSERT_TRUE(stats2.ok());
  ASSERT_GE(stats2->services_reused, 1u) << "q2 should reuse q1's service";
  EXPECT_EQ(engine->sbon().ledger().NumServices(), services_single)
      << "full reuse deploys no new instances";

  // The shared instance is referenced by both circuits and charged once.
  ServiceInstanceId shared = kInvalidService;
  NodeId shared_host = kInvalidNode;
  for (const auto& [id, inst] : engine->sbon().ledger().services()) {
    if (inst.Shared()) {
      shared = id;
      shared_host = inst.host;
    }
  }
  ASSERT_NE(shared, kInvalidService);
  const double shared_load = engine->sbon().ledger().service_load(shared_host);
  EXPECT_GT(shared_load, 0.0);

  ASSERT_TRUE(engine->Remove(*h1).ok());
  const overlay::ServiceInstance* inst =
      engine->sbon().ledger().FindService(shared);
  ASSERT_NE(inst, nullptr) << "shared instance must survive partial removal";
  EXPECT_EQ(inst->circuits.size(), 1u);
  EXPECT_EQ(engine->sbon().ledger().service_load(shared_host), shared_load)
      << "shared load is charged once, so removal of one user changes "
         "nothing";
  EXPECT_EQ(engine->sbon().ledger().NumServices(), services_single);

  ASSERT_TRUE(engine->Remove(*h2).ok());
  EXPECT_EQ(engine->sbon().ledger().NumServices(), 0u);
  for (double load : ServiceLoads(engine->sbon())) EXPECT_EQ(load, 0.0);
}

TEST(StreamEngine, SubmitAllReportsPerQueryOutcomes) {
  auto engine = MakeEngine(SmallEngineOptions(29));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  query::QuerySpec good = query::QuerySpec::SimpleJoin({0, 1}, nodes[2], 0.01);
  query::QuerySpec bad = good;
  bad.streams = {0, 99};  // unknown stream id: optimization must fail

  auto handles = engine->SubmitAll({good, bad, good});
  ASSERT_EQ(handles.size(), 3u);
  EXPECT_TRUE(handles[0].ok());
  EXPECT_FALSE(handles[1].ok());
  EXPECT_TRUE(handles[2].ok());
  EXPECT_EQ(engine->NumQueries(), 2u);
  EXPECT_NE(handles[0].value(), handles[2].value());
}

TEST(StreamEngine, SnapshotAggregatesPerQueryAndEngineState) {
  auto engine = MakeEngine(SmallEngineOptions(31));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();
  auto h1 = engine->Submit(
      query::QuerySpec::SimpleJoin({0, 1}, nodes[3], 0.01));
  auto h2 = engine->Submit(
      query::QuerySpec::SimpleJoin({0, 1}, nodes[7], 0.02));
  ASSERT_TRUE(h1.ok() && h2.ok());

  const engine::EngineSnapshot snap = engine->Snapshot();
  EXPECT_EQ(snap.num_queries, 2u);
  EXPECT_EQ(snap.num_services, engine->sbon().ledger().NumServices());
  EXPECT_GT(snap.total_network_usage, 0.0);
  EXPECT_GT(snap.max_load, 0.0);
  ASSERT_EQ(snap.queries.size(), 2u);
  EXPECT_EQ(snap.queries[0].handle, *h1);  // submission order
  EXPECT_EQ(snap.queries[1].handle, *h2);
  for (const engine::QueryStats& q : snap.queries) {
    EXPECT_GT(q.estimated_cost, 0.0);
    EXPECT_GT(q.true_cost.network_usage, 0.0);
  }
}

TEST(StreamEngine, AdvanceEpochEpsilonGatesRingRepublishes) {
  auto engine = MakeEngine(SmallEngineOptions(41));
  const coords::IndexRefreshStats& stats =
      engine->sbon().coords().refresh_stats();

  // Static ambient load (sigma 0, load at its mean) and no jitter: the
  // epoch moves nothing, so the refresh must be quiet — zero ring
  // re-publishes.
  engine::EpochOptions epoch;
  epoch.dt = 1.0;
  engine->AdvanceEpoch(epoch);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.republished, 0u);
  EXPECT_EQ(stats.quiet_refreshes, 1u);

  // A real coordinate movement gated by a huge epsilon stays quiet...
  const NodeId moved = engine->sbon().overlay_nodes().front();
  engine->sbon().SetBaseLoad(moved, 0.95);
  engine::EpochOptions gated = epoch;
  gated.refresh_epsilon = 1e9;
  engine->AdvanceEpoch(gated);
  EXPECT_EQ(stats.republished, 0u);
  EXPECT_EQ(stats.quiet_refreshes, 2u);

  // ...and the default epsilon (0) republishes exactly the moved node.
  engine->AdvanceEpoch(epoch);
  EXPECT_EQ(stats.republished, 1u);
  EXPECT_EQ(stats.quiet_refreshes, 2u);
}

TEST(StreamEngine, AdvanceEpochRecordsTheStagedPipeline) {
  engine::EngineOptions eo = SmallEngineOptions(43);
  eo.sbon.latency_jitter_sigma = 0.2;
  auto engine = MakeEngine(std::move(eo));
  EXPECT_TRUE(engine->last_epoch_trace().empty());

  // Every stage appears in pipeline order; the disabled ones record
  // ran=false.
  engine::EpochOptions epoch;
  epoch.dt = 1.0;
  epoch.vivaldi_samples = 2;
  engine->AdvanceEpoch(epoch);
  const auto& trace = engine->last_epoch_trace();
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_STREQ(trace[0].name, "jitter");
  EXPECT_STREQ(trace[1].name, "load");
  EXPECT_STREQ(trace[2].name, "coords");
  EXPECT_STREQ(trace[3].name, "churn+repair");
  EXPECT_STREQ(trace[4].name, "refresh");
  EXPECT_TRUE(trace[0].ran);
  EXPECT_TRUE(trace[1].ran);
  EXPECT_TRUE(trace[2].ran);
  EXPECT_FALSE(trace[3].ran);  // no churn model attached
  EXPECT_TRUE(trace[4].ran);
}

// The epoch pipeline is serial: threads > 1 is rejected before any stage
// runs, leaving the previous epoch's trace and the overlay untouched.
TEST(StreamEngine, AdvanceEpochRejectsMoreThanOneThread) {
  engine::EngineOptions eo = SmallEngineOptions(45);
  eo.sbon.latency_jitter_sigma = 0.2;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(MakeCatalog(engine->sbon(), TestWorkloadParams(), 19));
  for (const auto& q : MakeQueries(engine->sbon(), engine->catalog(),
                                   TestWorkloadParams(), 3, 23)) {
    ASSERT_TRUE(engine->Submit(q).ok());
  }
  engine::EpochOptions epoch;
  epoch.vivaldi_samples = 2;
  ASSERT_TRUE(engine->AdvanceEpoch(epoch).ok());
  const std::vector<engine::EpochStageTrace> trace =
      engine->last_epoch_trace();
  const std::string fingerprint = OverlayFingerprint(engine->sbon());

  epoch.threads = 4;
  const Status st = engine->AdvanceEpoch(epoch);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  const auto& after = engine->last_epoch_trace();
  ASSERT_EQ(after.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_STREQ(after[i].name, trace[i].name);
    EXPECT_EQ(after[i].ran, trace[i].ran);
    EXPECT_EQ(after[i].ns, trace[i].ns);
  }
  EXPECT_EQ(OverlayFingerprint(engine->sbon()), fingerprint);
}

// Exact fabric-read gate: a churn-free oracle epoch reads exactly one live
// latency per Vivaldi sample of every alive node, and the jitter stage
// (a seed swap) reads none. A consumer that starts reading O(N^2) pairs per
// epoch fails here instead of silently re-growing the epoch cost.
TEST(StreamEngine, EpochReadsExactlyOneLiveLatencyPerSample) {
  engine::EngineOptions eo = SmallEngineOptions(47);
  eo.sbon.latency_jitter_sigma = 0.2;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(MakeCatalog(engine->sbon(), TestWorkloadParams(), 19));
  for (const auto& q : MakeQueries(engine->sbon(), engine->catalog(),
                                   TestWorkloadParams(), 4, 23)) {
    ASSERT_TRUE(engine->Submit(q).ok());
  }
  const overlay::Sbon& sbon = engine->sbon();
  size_t alive = 0;
  for (NodeId n = 0; n < sbon.topology().NumNodes(); ++n) {
    if (sbon.IsAlive(n)) ++alive;
  }
  auto reads = [&] { return sbon.fabric().read_stats().live_reads; };

  engine::EpochOptions jitter_only;
  jitter_only.dt = 0.0;
  jitter_only.vivaldi_samples = 0;
  jitter_only.refresh_index = false;
  size_t before = reads();
  engine->AdvanceEpoch(jitter_only);
  EXPECT_EQ(reads() - before, 0u);

  for (const size_t samples : {1u, 3u}) {
    engine::EpochOptions epoch;
    epoch.dt = 1.0;
    epoch.vivaldi_samples = samples;
    before = reads();
    engine->AdvanceEpoch(epoch);
    EXPECT_EQ(reads() - before, alive * samples) << "samples=" << samples;
  }
}

// Re-optimization prices the running circuit at the lambda the query was
// submitted with, the weight its optimizer ranks candidates by: the "before"
// cost is CurrentEstimatedCost bit for bit, and a full re-plan never
// redeploys a candidate that merely ties it.
TEST(StreamEngine, ReoptimizePricesAtTheQuerysLambda) {
  for (const double lambda : {0.0, 0.25, 4.0}) {
    SCOPED_TRACE("lambda=" + std::to_string(lambda));
    auto engine = MakeEngine(SmallEngineOptions(43));
    engine->SetCatalog(MakeCatalog(engine->sbon(), TestWorkloadParams(), 19));
    const auto queries = MakeQueries(engine->sbon(), engine->catalog(),
                                     TestWorkloadParams(), 1, 23);
    engine::StrategySpec strategy;
    strategy.config = TestOptimizerConfig();
    strategy.config->lambda = lambda;
    auto handle = engine->Submit(queries[0], strategy);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    auto current = engine->CurrentEstimatedCost(*handle);
    ASSERT_TRUE(current.ok());
    engine::ReoptPolicy local;  // kLocal
    auto lo = engine->Reoptimize(*handle, local);
    ASSERT_TRUE(lo.ok()) << lo.status().ToString();
    EXPECT_EQ(lo->local.estimated_cost_before, *current);

    current = engine->CurrentEstimatedCost(*handle);
    ASSERT_TRUE(current.ok());
    engine::ReoptPolicy full;
    full.mode = engine::ReoptPolicy::Mode::kFull;
    full.config.replan_threshold = 0.0;  // any strict improvement redeploys
    auto fo = engine->Reoptimize(*handle, full);
    ASSERT_TRUE(fo.ok()) << fo.status().ToString();
    EXPECT_EQ(fo->full.estimated_cost_before, *current);
    EXPECT_EQ(fo->full.redeployed,
              fo->full.estimated_cost_candidate < *current)
        << "candidate " << fo->full.estimated_cost_candidate << " current "
        << *current;
  }
}

TEST(StreamEngine, AdvanceEpochAndReoptimizeKeepHandlesValid) {
  engine::EngineOptions eo = SmallEngineOptions(37);
  eo.sbon.latency_jitter_sigma = 0.5;
  eo.sbon.load_params.sigma = 0.3;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(MakeCatalog(engine->sbon(), TestWorkloadParams(), 19));
  const auto queries = MakeQueries(engine->sbon(), engine->catalog(),
                                   TestWorkloadParams(), 1, 23);
  auto handle = engine->Submit(queries[0]);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  engine::EpochOptions churn;
  churn.dt = 2.0;
  churn.vivaldi_samples = 4;

  // Local re-optimization (service migration) never raises the estimate.
  engine->AdvanceEpoch(churn);
  engine::ReoptPolicy local;  // defaults to Mode::kLocal
  auto lo = engine->Reoptimize(*handle, local);
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  EXPECT_LE(lo->local.estimated_cost_after,
            lo->local.estimated_cost_before + 1e-9);

  engine::ReoptPolicy full;
  full.mode = engine::ReoptPolicy::Mode::kFull;
  full.config.replan_threshold = 0.0;  // redeploy on any improvement

  bool redeployed = false;
  for (int epoch = 0; epoch < 8 && !redeployed; ++epoch) {
    engine->AdvanceEpoch(churn);
    const CircuitId before = engine->CircuitOf(*handle);
    auto fo = engine->Reoptimize(*handle, full);
    ASSERT_TRUE(fo.ok()) << fo.status().ToString();
    if (fo->full.redeployed) {
      redeployed = true;
      EXPECT_EQ(engine->CircuitOf(*handle), fo->full.new_circuit)
          << "handle must track the replacement circuit";
      EXPECT_EQ(engine->sbon().ledger().FindCircuit(before), nullptr)
          << "original circuit must be cancelled after redeployment";
    } else {
      EXPECT_EQ(engine->CircuitOf(*handle), before);
    }
    EXPECT_EQ(engine->sbon().ledger().circuits().size(), 1u);
  }
  // Under this much churn a zero-threshold replan fires essentially always.
  EXPECT_TRUE(redeployed);
  ASSERT_TRUE(engine->Remove(*handle).ok());
  EXPECT_EQ(engine->sbon().ledger().NumServices(), 0u);
}

// A redeploying full re-optimization moves the handle, both directions of
// the handle <-> circuit map and the recorded accounting to the candidate.
TEST(StreamEngine, FullReoptRedeployRepointsHandle) {
  auto engine = MakeEngine(SmallEngineOptions(47));
  engine->SetCatalog(MakeCatalog(engine->sbon(), TestWorkloadParams(), 19));
  const auto queries = MakeQueries(engine->sbon(), engine->catalog(),
                                   TestWorkloadParams(), 1, 23);
  auto handle = engine->Submit(queries[0]);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const CircuitId old_circuit = engine->CircuitOf(*handle);
  const double submit_estimate = engine->ResultOf(*handle)->estimated_cost;

  // Overload every host of the running circuit so a re-plan moves away.
  const overlay::Circuit* live =
      engine->sbon().ledger().FindCircuit(old_circuit);
  ASSERT_NE(live, nullptr);
  for (int v : live->PlaceableVertices()) {
    engine->sbon().SetBaseLoad(live->vertex(v).host, 1.0);
  }
  engine->sbon().RefreshIndex();

  engine::ReoptPolicy full;
  full.mode = engine::ReoptPolicy::Mode::kFull;
  full.config.replan_threshold = 0.05;
  auto outcome = engine->Reoptimize(*handle, full);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const engine::FullReoptReport& report = outcome->full;
  ASSERT_TRUE(report.redeployed);
  ASSERT_NE(report.new_circuit, old_circuit);

  EXPECT_EQ(engine->HandleOf(report.new_circuit), *handle);
  EXPECT_FALSE(engine->HandleOf(old_circuit));
  EXPECT_EQ(engine->CircuitOf(*handle), report.new_circuit);
  const core::OptimizeResult* result = engine->ResultOf(*handle);
  ASSERT_NE(result, nullptr);
  EXPECT_NE(result->estimated_cost, submit_estimate);
  EXPECT_EQ(result->estimated_cost, report.candidate.estimated_cost);
  EXPECT_EQ(result->plans_considered, report.candidate.plans_considered);
  EXPECT_TRUE(result->circuit.vertices().empty());
}

// Engines share no optimizer scratch: an engine's deployment is its solo
// run's, also when its Submits interleave with another engine's on one
// thread, and also under the multi-query optimizer, whose sphere marks
// persist across Submits.
TEST(StreamEngine, DeterministicAcrossIdenticalEngines) {
  const query::WorkloadParams wp = TestWorkloadParams(6);
  for (const char* optimizer : {"integrated", "multi-query"}) {
    SCOPED_TRACE(optimizer);
    struct Run {
      std::unique_ptr<engine::StreamEngine> engine;
      std::vector<query::QuerySpec> queries;
    };
    const auto start = [&](uint64_t seed) {
      engine::EngineOptions eo = SmallEngineOptions(seed);
      eo.optimizer = optimizer;
      Run run{MakeEngine(std::move(eo)), {}};
      run.engine->SetCatalog(MakeCatalog(run.engine->sbon(), wp, 5));
      run.queries = MakeShareableJoins(run.engine->sbon(), 6, 12, 9);
      return run;
    };
    std::vector<std::string> solo;
    size_t reused = 0;
    for (uint64_t seed : {41, 43}) {
      Run run = start(seed);
      for (const auto& q : run.queries) {
        auto handle = run.engine->Submit(q);
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        reused += run.engine->ResultOf(*handle)->services_reused;
      }
      solo.push_back(OverlayFingerprint(run.engine->sbon()));
    }
    if (std::string(optimizer) == "multi-query") {
      EXPECT_GT(reused, 0u);
    }

    Run a = start(41), b = start(43);
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_TRUE(a.engine->Submit(a.queries[i]).ok());
      EXPECT_TRUE(b.engine->Submit(b.queries[i]).ok());
    }
    EXPECT_EQ(OverlayFingerprint(a.engine->sbon()), solo[0]);
    EXPECT_EQ(OverlayFingerprint(b.engine->sbon()), solo[1]);
  }
}

// ------------------------- failure atomicity -------------------------

TEST(StreamEngine, FailedSubmitLeavesOverlayUntouched) {
  auto engine = MakeEngine(SmallEngineOptions(43));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();
  ASSERT_TRUE(
      engine->Submit(query::QuerySpec::SimpleJoin({0, 1}, nodes[2], 0.01))
          .ok());
  const size_t services = engine->sbon().ledger().NumServices();
  const std::vector<double> loads = ServiceLoads(engine->sbon());

  query::QuerySpec bad;
  bad.consumer = nodes[3];
  bad.streams = {0, 99};  // unknown stream id
  auto handle = engine->Submit(bad);
  EXPECT_FALSE(handle.ok());
  EXPECT_EQ(engine->NumQueries(), 1u);
  EXPECT_EQ(engine->sbon().ledger().NumServices(), services);
  EXPECT_EQ(ServiceLoads(engine->sbon()), loads);
}

// Forces the mid-install failure path of Sbon::InstallCircuit: a bushy
// 4-way join whose second sub-join claims to reuse a nonexistent service
// instance. Installation creates the first sub-join's instance (with its
// load delta), then hits the missing instance — and must roll everything
// back, leaving NumServices() and TotalLoad unchanged.
TEST(InstallAtomicity, MidInstallFailureRollsBackPartialState) {
  auto sbon = MakeTransitStubSbon(TopologySize::kSmall, 47);
  const auto& nodes = sbon->overlay_nodes();
  query::Catalog catalog;
  for (int i = 0; i < 4; ++i) {
    catalog.AddStream(query::IndexedStreamName(i), 100.0, 64.0, nodes[i]);
  }

  query::LogicalPlan plan;
  const int p0 = plan.AddProducer(0), p1 = plan.AddProducer(1);
  const int p2 = plan.AddProducer(2), p3 = plan.AddProducer(3);
  const int join_a = plan.AddJoin(p0, p1, 0.01);   // installed first
  const int join_b = plan.AddJoin(p2, p3, 0.01);   // fails (bogus reuse)
  const int root = plan.AddJoin(join_a, join_b, 0.01);
  plan.SetConsumer(root, nodes[8]);
  ASSERT_TRUE(plan.AnnotateRates(catalog).ok());

  auto circuit = overlay::Circuit::FromPlan(plan, catalog);
  ASSERT_TRUE(circuit.ok()) << circuit.status().ToString();
  circuit->mutable_vertex(join_a).host = nodes[5];
  circuit->mutable_vertex(root).host = nodes[6];
  const ServiceInstanceId bogus = 9999;
  circuit->BindReusedSubtree(join_b, bogus, nodes[7],
                             /*upstream_latency_ms=*/0.0);
  ASSERT_TRUE(circuit->FullyPlaced());
  ASSERT_LT(join_a, join_b) << "creation must precede the failure point";

  const size_t services_before = sbon->ledger().NumServices();
  std::vector<double> total_before;
  for (NodeId n = 0; n < sbon->topology().NumNodes(); ++n) {
    total_before.push_back(sbon->TotalLoad(n));
  }
  const size_t circuits_before = sbon->ledger().circuits().size();

  auto failed = sbon->InstallCircuit(*circuit);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);

  EXPECT_EQ(sbon->ledger().NumServices(), services_before);
  EXPECT_EQ(sbon->ledger().circuits().size(), circuits_before);
  for (NodeId n = 0; n < sbon->topology().NumNodes(); ++n) {
    EXPECT_EQ(sbon->TotalLoad(n), total_before[n]) << "node " << n;
  }
  for (double load : ServiceLoads(*sbon)) EXPECT_EQ(load, 0.0);

  // The overlay must still accept a clean install of the same plan, with
  // ids unaffected by the rolled-back attempt.
  auto clean = overlay::Circuit::FromPlan(plan, catalog);
  ASSERT_TRUE(clean.ok());
  clean->mutable_vertex(join_a).host = nodes[5];
  clean->mutable_vertex(join_b).host = nodes[7];
  clean->mutable_vertex(root).host = nodes[6];
  auto id = sbon->InstallCircuit(std::move(clean.value()));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 1u) << "failed install must not burn circuit ids";
  EXPECT_EQ(sbon->ledger().NumServices(), 3u);
  const overlay::Circuit* installed = sbon->ledger().FindCircuit(*id);
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->vertex(join_a).service, 1u)
      << "failed install must not burn service ids";

  // A second failing attempt now hits hosts that already carry service
  // load (the clean circuit's join_a also sits on nodes[5]); rollback must
  // restore those loads bit-exactly, not just approximately — a rollback
  // that re-subtracts deltas would leave 1-ulp drift here.
  const std::vector<double> loads_with_circuit = ServiceLoads(*sbon);
  auto failed_again = sbon->InstallCircuit(*circuit);
  ASSERT_FALSE(failed_again.ok());
  EXPECT_EQ(ServiceLoads(*sbon), loads_with_circuit);
  EXPECT_EQ(sbon->ledger().NumServices(), 3u);
}

TEST(StreamEngine, RemoveToleratesOutOfBandCircuitTeardown) {
  auto engine = MakeEngine(SmallEngineOptions(53));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();
  auto handle = engine->Submit(
      query::QuerySpec::SimpleJoin({0, 1}, nodes[4], 0.01));
  ASSERT_TRUE(handle.ok());

  // Tear the circuit down directly on the overlay (bypassing the engine):
  // the query record must still be releasable, not wedged forever.
  ASSERT_TRUE(engine->sbon().RemoveCircuit(engine->CircuitOf(*handle)).ok());
  EXPECT_TRUE(engine->Remove(*handle).ok());
  EXPECT_EQ(engine->NumQueries(), 0u);
}

}  // namespace
}  // namespace sbon::test
