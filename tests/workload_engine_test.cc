// Tests of the open-loop workload layer (ctest label `workload`): the
// per-query latency samples in engine::WorkloadEngine, admission-control
// shedding, deterministic bit-identical replay, the validated workload
// generator factories, and the batched-refresh semantics of
// StreamEngine::SubmitAll / DeferRefresh.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/stream_engine.h"
#include "engine/workload_engine.h"
#include "harness/fixtures.h"
#include "harness/golden.h"
#include "net/churn.h"
#include "query/workload.h"

namespace sbon::test {
namespace {

engine::EngineOptions WorkloadEngineOptionsBase(uint64_t seed) {
  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(TopologySize::kSmall, seed);
  eo.sbon.seed = seed;
  eo.sbon.load_params.sigma = 0.0;
  eo.sbon.load_params.mean = 0.2;
  eo.config = TestOptimizerConfig();
  return eo;
}

std::unique_ptr<engine::StreamEngine> MakeEngine(engine::EngineOptions eo) {
  auto created = engine::StreamEngine::Create(std::move(eo));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created.value());
}

engine::WorkloadEngineOptions SmallWorkload(uint64_t seed) {
  engine::WorkloadEngineOptions o;
  o.seed = seed;
  o.workload = TestWorkloadParams();
  o.arrivals.base_rate_per_epoch = 3.0;
  o.arrivals.mean_lifetime_epochs = 4.0;
  o.epoch.dt = 0.0;  // static ambient load unless a test wants drift
  o.epoch.vivaldi_samples = 0;
  return o;
}

// --------------------- SubmitAll refresh batching ---------------------

TEST(SubmitAllRefresh, BatchPaysExactlyOneIndexRefresh) {
  engine::EngineOptions eo = WorkloadEngineOptionsBase(7);
  eo.refresh_index_on_install = true;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  std::vector<query::QuerySpec> batch;
  for (size_t i = 0; i < 6; ++i) {
    batch.push_back(
        query::QuerySpec::SimpleJoin({0, 1}, nodes[2 + i], 0.01));
  }
  const size_t before = engine->sbon().coords().refresh_stats().refreshes;
  auto handles = engine->SubmitAll(batch);
  const size_t after = engine->sbon().coords().refresh_stats().refreshes;
  for (const auto& h : handles) EXPECT_TRUE(h.ok());
  EXPECT_EQ(after - before, 1u)
      << "a 6-query batch must republish the index once, not 6 times";

  // Individual submits still refresh per call (freshness contract intact).
  const size_t single_before =
      engine->sbon().coords().refresh_stats().refreshes;
  ASSERT_TRUE(
      engine->Submit(query::QuerySpec::SimpleJoin({0, 1}, nodes[9], 0.01))
          .ok());
  EXPECT_EQ(engine->sbon().coords().refresh_stats().refreshes - single_before,
            1u);
}

TEST(SubmitAllRefresh, DeferScopeCoalescesARemovalBurst) {
  engine::EngineOptions eo = WorkloadEngineOptionsBase(9);
  eo.refresh_index_on_install = true;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  std::vector<engine::QueryHandle> handles;
  for (size_t i = 0; i < 5; ++i) {
    auto h = engine->Submit(
        query::QuerySpec::SimpleJoin({0, 1}, nodes[2 + i], 0.01));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }

  const size_t before = engine->sbon().coords().refresh_stats().refreshes;
  {
    engine::StreamEngine::DeferRefresh defer(engine.get());
    for (engine::QueryHandle h : handles) EXPECT_TRUE(engine->Remove(h).ok());
    EXPECT_EQ(engine->sbon().coords().refresh_stats().refreshes, before)
        << "no refresh may run while the scope is open";
  }
  EXPECT_EQ(engine->sbon().coords().refresh_stats().refreshes - before, 1u)
      << "a 5-removal burst must republish once, when the scope closes";

  // A scope under which nothing changed flushes nothing.
  const size_t idle_before = engine->sbon().coords().refresh_stats().refreshes;
  { engine::StreamEngine::DeferRefresh defer(engine.get()); }
  EXPECT_EQ(engine->sbon().coords().refresh_stats().refreshes, idle_before);
}

TEST(SubmitAllRefresh, ScopesAreNoOpsWithoutInstallRefresh) {
  auto engine = MakeEngine(WorkloadEngineOptionsBase(11));  // default: off
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();
  const size_t before = engine->sbon().coords().refresh_stats().refreshes;
  {
    engine::StreamEngine::DeferRefresh defer(engine.get());
    ASSERT_TRUE(
        engine->Submit(query::QuerySpec::SimpleJoin({0, 1}, nodes[3], 0.01))
            .ok());
  }
  EXPECT_EQ(engine->sbon().coords().refresh_stats().refreshes, before);
}

// ------------------- SubmitAll partial-failure batch -------------------

TEST(SubmitAllRefresh, PartialFailureLeavesSurvivorsStable) {
  engine::EngineOptions eo = WorkloadEngineOptionsBase(13);
  eo.refresh_index_on_install = true;
  auto engine = MakeEngine(std::move(eo));
  engine->SetCatalog(TwoStreamCatalog(engine->sbon()));
  const auto& nodes = engine->sbon().overlay_nodes();

  // Kill a node, then build a batch mixing healthy specs with specs whose
  // pinned consumer endpoint is the dead node.
  const NodeId dead = nodes[5];
  ASSERT_TRUE(engine->sbon().FailNode(dead).ok());
  query::QuerySpec good1 = query::QuerySpec::SimpleJoin({0, 1}, nodes[2], 0.01);
  query::QuerySpec bad = query::QuerySpec::SimpleJoin({0, 1}, dead, 0.01);
  query::QuerySpec good2 = query::QuerySpec::SimpleJoin({0, 1}, nodes[8], 0.02);

  const size_t services_before = engine->sbon().ledger().NumServices();
  auto handles = engine->SubmitAll({good1, bad, good2, bad});
  ASSERT_EQ(handles.size(), 4u);
  EXPECT_TRUE(handles[0].ok());
  EXPECT_FALSE(handles[1].ok());
  EXPECT_TRUE(handles[2].ok());
  EXPECT_FALSE(handles[3].ok());
  EXPECT_EQ(engine->NumQueries(), 2u);

  // Failed slots released everything: only the two survivors' circuits (and
  // services) exist, and the survivors stay live and removable.
  EXPECT_EQ(engine->sbon().ledger().circuits().size(), 2u);
  for (const auto& [cid, circuit] : engine->sbon().ledger().circuits()) {
    for (const auto& v : circuit.vertices()) {
      EXPECT_TRUE(engine->sbon().IsAlive(v.host));
    }
  }
  ASSERT_TRUE(engine->Remove(handles[0].value()).ok());
  ASSERT_TRUE(engine->Remove(handles[2].value()).ok());
  EXPECT_EQ(engine->sbon().ledger().NumServices(), services_before);
  EXPECT_EQ(engine->NumQueries(), 0u);
}

// ----------------------- generator validation -----------------------

TEST(WorkloadValidation, ErrorTable) {
  using query::ValidateWorkloadParams;
  using query::WorkloadParams;
  struct Case {
    const char* name;
    void (*mutate)(WorkloadParams&);
  };
  const Case kBad[] = {
      {"zero streams", [](WorkloadParams& p) { p.num_streams = 0; }},
      {"pareto xm <= 0", [](WorkloadParams& p) { p.rate_pareto_xm = 0.0; }},
      {"pareto alpha <= 0",
       [](WorkloadParams& p) { p.rate_pareto_alpha = -1.0; }},
      {"cap below xm", [](WorkloadParams& p) { p.rate_cap = 1.0; }},
      {"tuple min > max", [](WorkloadParams& p) { p.tuple_size_min = 1e6; }},
      {"tuple min <= 0", [](WorkloadParams& p) { p.tuple_size_min = 0.0; }},
      {"zero min streams",
       [](WorkloadParams& p) { p.min_streams_per_query = 0; }},
      {"min streams > max",
       [](WorkloadParams& p) { p.min_streams_per_query = 9; }},
      {"join sel min > max",
       [](WorkloadParams& p) { p.join_sel_log10_min = -1.0; }},
      {"join sel > 1", [](WorkloadParams& p) { p.join_sel_log10_max = 0.5; }},
      {"chain prob > 1", [](WorkloadParams& p) { p.chain_prob = 1.5; }},
      {"filter prob < 0", [](WorkloadParams& p) { p.filter_prob = -0.1; }},
      {"aggregate prob > 1",
       [](WorkloadParams& p) { p.aggregate_prob = 2.0; }},
      {"filter sel min <= 0",
       [](WorkloadParams& p) { p.filter_sel_min = 0.0; }},
      {"filter sel min > max",
       [](WorkloadParams& p) { p.filter_sel_min = 0.9; }},
      {"filter sel max > 1", [](WorkloadParams& p) { p.filter_sel_max = 1.5; }},
      {"aggregate factor min <= 0",
       [](WorkloadParams& p) { p.aggregate_factor_min = -0.01; }},
      {"aggregate factor min > max",
       [](WorkloadParams& p) { p.aggregate_factor_min = 0.5; }},
      {"zero join window", [](WorkloadParams& p) { p.join_window_s = 0.0; }},
  };
  EXPECT_TRUE(ValidateWorkloadParams(WorkloadParams{}).ok());
  for (const Case& c : kBad) {
    WorkloadParams p;
    c.mutate(p);
    const Status st = ValidateWorkloadParams(p);
    EXPECT_FALSE(st.ok()) << c.name;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.name;
  }
}

TEST(WorkloadValidation, FactoriesRejectBadSitesAndCatalogs) {
  Rng rng(5);
  const query::WorkloadParams wp = TestWorkloadParams();
  auto catalog = query::MakeRandomCatalog(wp, {0, 1, 2}, &rng);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->NumStreams(), wp.num_streams);

  // Every rejection happens before any Rng draw: the stream stays untouched.
  Rng probe(99);
  Rng reference(99);

  auto no_sites = query::MakeRandomCatalog(wp, {}, &probe);
  EXPECT_FALSE(no_sites.ok());
  EXPECT_EQ(no_sites.status().code(), StatusCode::kFailedPrecondition);

  auto no_consumers = query::MakeRandomQuery(wp, *catalog, {}, &probe);
  EXPECT_FALSE(no_consumers.ok());
  EXPECT_EQ(no_consumers.status().code(), StatusCode::kFailedPrecondition);

  query::Catalog tiny;
  tiny.AddStream("only", 10.0, 64.0, 0);
  auto too_small = query::MakeRandomQuery(wp, tiny, {0, 1}, &probe);
  EXPECT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.status().code(), StatusCode::kFailedPrecondition);

  query::WorkloadParams bad = wp;
  bad.chain_prob = 7.0;
  auto bad_catalog = query::MakeRandomCatalog(bad, {0, 1}, &probe);
  EXPECT_EQ(bad_catalog.status().code(), StatusCode::kInvalidArgument);
  auto bad_query = query::MakeRandomQuery(bad, *catalog, {0, 1}, &probe);
  EXPECT_EQ(bad_query.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(probe.Next(), reference.Next());

  auto ok_query = query::MakeRandomQuery(wp, *catalog, {0, 1, 2}, &rng);
  ASSERT_TRUE(ok_query.ok());
  EXPECT_TRUE(ok_query->Validate(*catalog).ok());
}

// ------------------------- WorkloadEngine core -------------------------

TEST(WorkloadEngine, CreateValidatesOptions) {
  auto engine = MakeEngine(WorkloadEngineOptionsBase(17));

  auto null_engine = engine::WorkloadEngine::Create(nullptr, SmallWorkload(1));
  EXPECT_FALSE(null_engine.ok());

  engine::WorkloadEngineOptions bad = SmallWorkload(1);
  bad.arrivals.diurnal_amplitude = 1.0;
  EXPECT_FALSE(engine::WorkloadEngine::Create(engine.get(), bad).ok());

  bad = SmallWorkload(1);
  bad.arrivals.mean_lifetime_epochs = 0.0;
  EXPECT_FALSE(engine::WorkloadEngine::Create(engine.get(), bad).ok());

  bad = SmallWorkload(1);
  bad.admission.saturated_node_watermark = 1.5;
  EXPECT_FALSE(engine::WorkloadEngine::Create(engine.get(), bad).ok());

  bad = SmallWorkload(1);
  bad.workload.chain_prob = -1.0;
  EXPECT_FALSE(engine::WorkloadEngine::Create(engine.get(), bad).ok());

  bad = SmallWorkload(1);
  engine::FlashCrowd w;
  w.hotspot_site_frac = 0.0;
  bad.arrivals.flash_crowds.push_back(w);
  EXPECT_FALSE(engine::WorkloadEngine::Create(engine.get(), bad).ok());
}

TEST(WorkloadEngine, AccountingIdentitiesHoldOverASoak) {
  auto engine = MakeEngine(WorkloadEngineOptionsBase(19));
  engine::WorkloadEngineOptions o = SmallWorkload(19);
  engine::FlashCrowd w;
  w.start_epoch = 10;
  w.duration_epochs = 5;
  w.rate_multiplier = 8.0;
  w.hotspot_site_frac = 0.1;
  o.arrivals.flash_crowds.push_back(w);
  o.admission.max_running_queries = 10;
  auto wl = engine::WorkloadEngine::Create(engine.get(), o);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  engine::WorkloadEngine& w_eng = **wl;

  w_eng.BeginPhase("steady");
  ASSERT_TRUE(w_eng.Run(10).ok());
  w_eng.BeginPhase("flash");
  ASSERT_TRUE(w_eng.Run(5).ok());
  w_eng.BeginPhase("recovery");
  ASSERT_TRUE(w_eng.Run(10).ok());

  const engine::WorkloadPhaseStats& t = w_eng.totals();
  EXPECT_EQ(t.epochs, 25u);
  EXPECT_EQ(w_eng.epoch(), 25u);
  EXPECT_EQ(t.arrivals, t.shed + t.admitted);
  EXPECT_EQ(t.admitted, t.submitted + t.submit_failures);
  EXPECT_EQ(w_eng.running(), t.submitted - t.departures);
  EXPECT_EQ(t.placement_ns.count(), t.admitted);
  EXPECT_GT(t.placement_ns.Percentile(95), 0.0);
  EXPECT_GE(t.placement_ns.Percentile(95), t.placement_ns.Percentile(50));
  EXPECT_GE(t.placement_ns.Percentile(99), t.placement_ns.Percentile(95));
  EXPECT_GE(t.placement_ns.Max(), t.placement_ns.Percentile(99));

  // Phase rows partition the totals.
  ASSERT_EQ(w_eng.phases().size(), 3u);
  size_t arrivals = 0, shed = 0, submitted = 0, epochs = 0;
  for (const auto& p : w_eng.phases()) {
    arrivals += p.arrivals;
    shed += p.shed;
    submitted += p.submitted;
    epochs += p.epochs;
  }
  EXPECT_EQ(arrivals, t.arrivals);
  EXPECT_EQ(shed, t.shed);
  EXPECT_EQ(submitted, t.submitted);
  EXPECT_EQ(epochs, t.epochs);

  // The flash window must overload the 10-query cap: nonzero shed, and the
  // rate curve reports the multiplier.
  EXPECT_GT(w_eng.phases()[1].shed, 0u);
  EXPECT_TRUE(w_eng.InFlashCrowd(12));
  EXPECT_FALSE(w_eng.InFlashCrowd(16));
  EXPECT_DOUBLE_EQ(w_eng.ArrivalRateAt(12), 3.0 * 8.0);
  EXPECT_DOUBLE_EQ(w_eng.ArrivalRateAt(16), 3.0);
}

TEST(WorkloadEngine, WatermarkShedsEverythingUnderSaturation) {
  auto engine = MakeEngine(WorkloadEngineOptionsBase(23));
  engine::WorkloadEngineOptions o = SmallWorkload(23);
  o.arrivals.base_rate_per_epoch = 5.0;
  o.admission.node_saturation_load = 0.9;
  o.admission.saturated_node_watermark = 0.5;
  auto wl = engine::WorkloadEngine::Create(engine.get(), o);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  // Saturate every node's ambient load past the threshold: the load book
  // reports blanket saturation and admission drops whole epochs.
  for (NodeId n : engine->sbon().overlay_nodes()) {
    engine->sbon().SetBaseLoad(n, 0.95);
  }
  for (NodeId n : engine->sbon().overlay_nodes()) {
    EXPECT_GE(engine->sbon().TotalLoad(n), 0.9);
  }
  ASSERT_TRUE((*wl)->Run(8).ok());
  const engine::WorkloadPhaseStats& t = (*wl)->totals();
  EXPECT_GT(t.arrivals, 0u);
  EXPECT_EQ(t.shed, t.arrivals) << "every arrival shed while saturated";
  EXPECT_EQ(t.submitted, 0u);
  EXPECT_EQ((*wl)->running(), 0u);
}

TEST(WorkloadEngine, DeparturesDrainUnderOneDeferredRefresh) {
  engine::EngineOptions eo = WorkloadEngineOptionsBase(27);
  eo.refresh_index_on_install = true;
  auto engine = MakeEngine(std::move(eo));
  engine::WorkloadEngineOptions o = SmallWorkload(27);
  o.arrivals.base_rate_per_epoch = 6.0;
  o.arrivals.mean_lifetime_epochs = 2.0;
  o.epoch.refresh_index = false;  // isolate install/remove refreshes
  auto wl = engine::WorkloadEngine::Create(engine.get(), o);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  size_t last_refreshes = engine->sbon().coords().refresh_stats().refreshes;
  for (size_t t = 0; t < 12; ++t) {
    const size_t departures_before = (*wl)->totals().departures;
    const size_t arrivals_before = (*wl)->totals().admitted;
    ASSERT_TRUE((*wl)->Step().ok());
    const size_t refreshes =
        engine->sbon().coords().refresh_stats().refreshes - last_refreshes;
    last_refreshes = engine->sbon().coords().refresh_stats().refreshes;
    const bool had_departures =
        (*wl)->totals().departures > departures_before;
    const bool had_arrivals = (*wl)->totals().admitted > arrivals_before;
    // At most one refresh for the departure burst + one for the arrival
    // batch — never one per query.
    EXPECT_LE(refreshes,
              (had_departures ? 1u : 0u) + (had_arrivals ? 1u : 0u))
        << "epoch " << t;
  }
  EXPECT_GT((*wl)->totals().departures, 0u);
}

TEST(WorkloadEngine, RepairLatencyBillsTheStageThatRepaired) {
  // With the failure detector on, crashes are repaired in detect+repair,
  // not churn+repair: the per-query repair latency must bill both stages.
  auto engine = MakeEngine(WorkloadEngineOptionsBase(31));
  net::ChurnModel::Params cp;
  cp.crash_rate = 0.5;
  cp.seed = 77;
  net::ChurnModel churn(engine->sbon().overlay_nodes(), cp);
  engine::WorkloadEngineOptions o = SmallWorkload(31);
  o.epoch.exec_mode = engine::ExecMode::kMessage;
  o.epoch.msg.detector.enabled = true;
  o.epoch.churn = &churn;
  auto wl = engine::WorkloadEngine::Create(engine.get(), o);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();

  size_t repairing_steps = 0;
  for (size_t t = 0; t < 30; ++t) {
    const size_t repaired_before = engine->repair_stats().queries_repaired;
    const double billed_before = (*wl)->totals().repair_ns.Sum();
    ASSERT_TRUE((*wl)->Step().ok());
    if (engine->repair_stats().queries_repaired == repaired_before) continue;
    ++repairing_steps;
    double stage_ns = 0.0;
    for (const engine::EpochStageTrace& stage : engine->last_epoch_trace()) {
      const std::string name = stage.name;
      if (name == "churn+repair" || name == "detect+repair") {
        stage_ns += stage.ns;
      }
    }
    const double billed = (*wl)->totals().repair_ns.Sum() - billed_before;
    EXPECT_LE(std::abs(billed - stage_ns), 1e-9 * stage_ns) << "epoch " << t;
  }
  EXPECT_GT(repairing_steps, 0u);
}

// ----------------------- deterministic replay -----------------------

struct ReplayRecord {
  std::string overlay;
  size_t arrivals = 0;
  size_t shed = 0;
  size_t submitted = 0;
  size_t departures = 0;
  size_t repaired = 0;

  bool operator==(const ReplayRecord& o) const = default;
};

ReplayRecord RunReplay(uint64_t seed) {
  auto engine = MakeEngine(WorkloadEngineOptionsBase(seed));
  net::ChurnModel::Params cp;
  cp.crash_rate = 0.4;
  cp.seed = seed * 1000003 + 17;
  net::ChurnModel churn(engine->sbon().overlay_nodes(), cp);

  engine::WorkloadEngineOptions o = SmallWorkload(seed);
  o.arrivals.base_rate_per_epoch = 4.0;
  o.arrivals.diurnal_amplitude = 0.4;
  o.arrivals.diurnal_period_epochs = 10;
  engine::FlashCrowd w;
  w.start_epoch = 8;
  w.duration_epochs = 6;
  w.rate_multiplier = 6.0;
  w.hotspot_site_frac = 0.1;
  o.arrivals.flash_crowds.push_back(w);
  o.admission.max_running_queries = 24;
  o.epoch.dt = 0.5;
  o.epoch.vivaldi_samples = 2;
  o.epoch.refresh_epsilon = 0.05;
  o.epoch.churn = &churn;
  auto wl = engine::WorkloadEngine::Create(engine.get(), o);
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_TRUE((*wl)->Run(20).ok());

  ReplayRecord rec;
  rec.overlay = OverlayFingerprint(engine->sbon());
  rec.arrivals = (*wl)->totals().arrivals;
  rec.shed = (*wl)->totals().shed;
  rec.submitted = (*wl)->totals().submitted;
  rec.departures = (*wl)->totals().departures;
  rec.repaired = engine->repair_stats().queries_repaired;
  return rec;
}

TEST(WorkloadEngine, ReplayIsBitIdenticalAcrossRuns) {
  // 5 seeds: the full soak — churn, flash crowd, diurnal modulation,
  // admission — must replay bit-identically when run twice in one process.
  for (uint64_t seed : {3u, 5u, 8u, 13u, 21u}) {
    const ReplayRecord first = RunReplay(seed);
    const ReplayRecord again = RunReplay(seed);
    EXPECT_EQ(first, again) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sbon::test
