// Churn & failure-injection subsystem: net::ChurnModel schedules, overlay
// FailNode/RejoinNode/partition semantics (eviction, load-delta reversal,
// ring Leave/Join, orphan reporting), and the engine's handle-stable repair
// plan. Ends with a quick ScenarioMatrix subset — the default-suite slice of
// the stress sweep (full sweep: stress_matrix_test.cc, label `stress`).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "harness/scenario_matrix.h"
#include "net/churn.h"
#include "query/enumerate.h"

namespace sbon::test {
namespace {

using net::ChurnEvent;
using net::ChurnEventType;
using net::ChurnModel;

std::vector<NodeId> Nodes(size_t n) {
  std::vector<NodeId> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<NodeId>(i);
  return out;
}

ChurnEvent Crash(NodeId n) {
  ChurnEvent ev;
  ev.type = ChurnEventType::kCrash;
  ev.node = n;
  return ev;
}

ChurnEvent Rejoin(NodeId n) {
  ChurnEvent ev;
  ev.type = ChurnEventType::kRejoin;
  ev.node = n;
  return ev;
}

// --- ChurnModel -----------------------------------------------------------

TEST(ChurnModelTest, ZeroRatesEmitNothingAndDrawNothing) {
  ChurnModel model(Nodes(16), ChurnModel::Params{});
  for (int e = 0; e < 10; ++e) {
    EXPECT_TRUE(model.Step().empty());
  }
  EXPECT_EQ(model.NumDown(), 0u);
  EXPECT_EQ(model.epoch(), 10u);
}

TEST(ChurnModelTest, ScriptedEventsFireAtExactEpochsInOrder) {
  ChurnModel model(Nodes(8), ChurnModel::Params{});
  model.ScheduleAt(1, Crash(3));
  model.ScheduleAt(1, Crash(5));
  model.ScheduleAt(4, Rejoin(3));

  EXPECT_TRUE(model.Step().empty());  // epoch 0
  auto events = model.Step();         // epoch 1
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, ChurnEventType::kCrash);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[1].node, 5u);
  EXPECT_TRUE(model.IsDown(3));
  EXPECT_TRUE(model.IsDown(5));
  EXPECT_EQ(model.NumDown(), 2u);

  EXPECT_TRUE(model.Step().empty());  // epoch 2
  EXPECT_TRUE(model.Step().empty());  // epoch 3
  events = model.Step();              // epoch 4
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ChurnEventType::kRejoin);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_FALSE(model.IsDown(3));
  EXPECT_TRUE(model.IsDown(5));  // scripted crash: down until scripted rejoin
}

TEST(ChurnModelTest, InvalidScriptedEventsAreDropped) {
  ChurnModel model(Nodes(4), ChurnModel::Params{});
  model.ScheduleAt(0, Crash(2));
  model.ScheduleAt(0, Crash(2));    // duplicate crash
  model.ScheduleAt(0, Rejoin(1));   // rejoin of an up node
  model.ScheduleAt(0, Crash(99));   // not eligible
  const auto events = model.Step();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 2u);
}

TEST(ChurnModelTest, PoissonScheduleIsDeterministicPerSeed) {
  ChurnModel::Params params;
  params.crash_rate = 0.8;
  params.mean_downtime_epochs = 3.0;
  params.seed = 77;
  ChurnModel a(Nodes(32), params), b(Nodes(32), params);
  for (int e = 0; e < 50; ++e) {
    const auto ea = a.Step();
    const auto eb = b.Step();
    ASSERT_EQ(ea.size(), eb.size()) << "epoch " << e;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].type, eb[i].type);
      EXPECT_EQ(ea[i].node, eb[i].node);
    }
  }
  // A different seed must diverge somewhere over 50 epochs at this rate.
  params.seed = 78;
  ChurnModel c(Nodes(32), params);
  bool diverged = false;
  ChurnModel d(Nodes(32), {.crash_rate = 0.8, .mean_downtime_epochs = 3.0,
                           .seed = 77});
  for (int e = 0; e < 50 && !diverged; ++e) {
    const auto ec = c.Step();
    const auto ed = d.Step();
    diverged = ec.size() != ed.size();
    for (size_t i = 0; !diverged && i < ec.size(); ++i) {
      diverged = ec[i].node != ed[i].node || ec[i].type != ed[i].type;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(ChurnModelTest, CrashedNodesRejoinAndDownCapHolds) {
  ChurnModel::Params params;
  params.crash_rate = 4.0;  // aggressive
  params.mean_downtime_epochs = 2.0;
  params.max_down_frac = 0.5;
  params.seed = 5;
  ChurnModel model(Nodes(10), params);
  size_t crashes = 0, rejoins = 0;
  for (int e = 0; e < 200; ++e) {
    for (const ChurnEvent& ev : model.Step()) {
      if (ev.type == ChurnEventType::kCrash) ++crashes;
      if (ev.type == ChurnEventType::kRejoin) ++rejoins;
    }
    EXPECT_LE(model.NumDown(), 5u);  // floor(0.5 * 10)
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(rejoins, 0u);
  // Every automatic crash eventually rejoins; after enough quiet epochs the
  // population converges back toward fully up.
  EXPECT_LE(crashes - rejoins, 5u);
}

TEST(ChurnModelTest, PartitionsStartAndHealAutomatically) {
  ChurnModel::Params params;
  params.partition_rate = 1.0;  // start immediately when none active
  params.partition_duration_epochs = 2;
  params.partition_frac = 0.25;
  params.partition_factor = 8.0;
  params.seed = 9;
  ChurnModel model(Nodes(16), params);
  auto events = model.Step();  // epoch 0: start
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, ChurnEventType::kPartitionStart);
  EXPECT_EQ(events[0].group.size(), 4u);
  EXPECT_DOUBLE_EQ(events[0].severity, 8.0);
  EXPECT_TRUE(model.PartitionActive());
  EXPECT_TRUE(model.Step().empty());  // epoch 1: still cut
  events = model.Step();              // epoch 2: heal (+ maybe new start)
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].type, ChurnEventType::kPartitionHeal);
}

// --- Sbon fail/rejoin/partition -------------------------------------------

class SbonChurnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sbon_ = MakeTransitStubSbon(TopologySize::kTiny, 42);
  }

  // Installs a minimal hand-placed circuit: producer a -> service s -> the
  // consumer b, with the service on `host`.
  CircuitId InstallOneServiceCircuit(NodeId host) {
    query::Catalog catalog = TwoStreamCatalog(*sbon_);
    auto spec = query::QuerySpec::SimpleJoin({0, 1},
                                             sbon_->overlay_nodes()[2], 0.01);
    auto plans = query::EnumeratePlans(spec, catalog, {});
    auto circuit = overlay::Circuit::FromPlan(plans.value()[0], catalog);
    for (int v : circuit.value().UnpinnedVertices()) {
      circuit.value().mutable_vertex(v).host = host;
    }
    auto id = sbon_->InstallCircuit(std::move(circuit.value()));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : kInvalidCircuit;
  }

  std::unique_ptr<overlay::Sbon> sbon_;
};

TEST_F(SbonChurnTest, FailNodeEvictsServicesAndReportsOrphans) {
  const NodeId host = sbon_->overlay_nodes()[3];
  const CircuitId cid = InstallOneServiceCircuit(host);
  ASSERT_NE(cid, kInvalidCircuit);
  const size_t services_before = sbon_->ledger().NumServices();
  ASSERT_GT(services_before, 0u);
  ASSERT_GT(sbon_->ledger().service_load(host), 0.0);

  auto report = sbon_->FailNode(host);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->services_evicted, services_before);
  ASSERT_EQ(report->orphaned.size(), 1u);
  EXPECT_EQ(report->orphaned[0], cid);
  EXPECT_FALSE(sbon_->IsAlive(host));
  // Load deltas reversed: the dead node's book returns exactly to zero.
  EXPECT_EQ(sbon_->ledger().service_load(host), 0.0);
  EXPECT_EQ(sbon_->ledger().NumServices(), 0u);
  // Gone from the alive overlay set and from the index.
  const auto& alive = sbon_->overlay_nodes();
  EXPECT_TRUE(std::find(alive.begin(), alive.end(), host) == alive.end());
  EXPECT_EQ(sbon_->index().NumPublished(), alive.size());
  // The circuit remnant is still registered (the engine decides its fate).
  EXPECT_NE(sbon_->ledger().FindCircuit(cid), nullptr);
  ASSERT_TRUE(sbon_->RemoveCircuit(cid).ok());
}

TEST_F(SbonChurnTest, FailedPinnedEndpointOrphansWithoutEviction) {
  const NodeId producer = sbon_->overlay_nodes()[0];
  const NodeId service_host = sbon_->overlay_nodes()[4];
  const CircuitId cid = InstallOneServiceCircuit(service_host);
  auto report = sbon_->FailNode(producer);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->services_evicted, 0u);  // nothing hosted on the producer
  ASSERT_EQ(report->orphaned.size(), 1u);
  EXPECT_EQ(report->orphaned[0], cid);
}

TEST_F(SbonChurnTest, FailNodeValidatesItsTarget) {
  EXPECT_EQ(sbon_->FailNode(sbon_->topology().NumNodes()).status().code(),
            StatusCode::kOutOfRange);
  const NodeId host = sbon_->overlay_nodes()[1];
  ASSERT_TRUE(sbon_->FailNode(host).ok());
  EXPECT_EQ(sbon_->FailNode(host).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sbon_->RejoinNode(sbon_->overlay_nodes()[0]).code(),
            StatusCode::kFailedPrecondition);  // already alive
}

TEST_F(SbonChurnTest, RejoinRestoresMembershipAndIndex) {
  const NodeId host = sbon_->overlay_nodes()[2];
  const size_t alive_before = sbon_->overlay_nodes().size();
  ASSERT_TRUE(sbon_->FailNode(host).ok());
  EXPECT_EQ(sbon_->overlay_nodes().size(), alive_before - 1);

  ASSERT_TRUE(sbon_->RejoinNode(host).ok());
  EXPECT_TRUE(sbon_->IsAlive(host));
  const auto& alive = sbon_->overlay_nodes();
  EXPECT_EQ(alive.size(), alive_before);
  EXPECT_TRUE(std::is_sorted(alive.begin(), alive.end()));
  EXPECT_EQ(sbon_->index().NumPublished(), alive.size());
  EXPECT_EQ(sbon_->ledger().service_load(host), 0.0);
  // The rejoined node is findable by coordinate queries again.
  std::vector<NodeId> nearest;
  ASSERT_TRUE(sbon_->index()
                  .KNearestNodesInto(sbon_->cost_space().FullCoord(host), 1,
                                     16, nullptr, &nearest)
                  .ok());
  EXPECT_EQ(nearest, std::vector<NodeId>{host});
}

TEST_F(SbonChurnTest, DeadNodesNeverComeBackFromIndexQueries) {
  const NodeId host = sbon_->overlay_nodes()[5];
  ASSERT_TRUE(sbon_->FailNode(host).ok());
  // Probe around the dead node's own coordinate with a wide beam: it must
  // never be returned while down.
  std::vector<NodeId> matches;
  ASSERT_TRUE(sbon_->index()
                  .KNearestNodesInto(sbon_->cost_space().FullCoord(host), 8,
                                     32, nullptr, &matches)
                  .ok());
  EXPECT_EQ(matches.size(), 8u);
  for (NodeId m : matches) EXPECT_NE(m, host);
}

TEST_F(SbonChurnTest, InstallAndMigrateRefuseDeadHosts) {
  const NodeId dead = sbon_->overlay_nodes()[3];
  const NodeId live = sbon_->overlay_nodes()[4];
  const CircuitId cid = InstallOneServiceCircuit(live);
  ASSERT_NE(cid, kInvalidCircuit);
  ASSERT_TRUE(sbon_->FailNode(dead).ok());
  // Installing onto the dead node fails without side effects.
  const size_t services_before = sbon_->ledger().NumServices();
  auto install = sbon_->InstallCircuit([&] {
    query::Catalog catalog = TwoStreamCatalog(*sbon_);
    auto spec = query::QuerySpec::SimpleJoin({0, 1},
                                             sbon_->overlay_nodes()[2], 0.01);
    auto plans = query::EnumeratePlans(spec, catalog, {});
    auto c = overlay::Circuit::FromPlan(plans.value()[0], catalog);
    for (int v : c.value().UnpinnedVertices()) {
      c.value().mutable_vertex(v).host = dead;
    }
    return std::move(c.value());
  }());
  EXPECT_EQ(install.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sbon_->ledger().NumServices(), services_before);
  // Migrating an instance onto the dead node fails too.
  const ServiceInstanceId sid = sbon_->ledger().services().begin()->first;
  EXPECT_EQ(sbon_->MigrateService(sid, dead).code(),
            StatusCode::kFailedPrecondition);
}

// Regression pin for MigrateService load-delta accounting: migrating an
// instance around the overlay and then removing its circuit must leave
// every node's service-load book at its base value (zero).
TEST_F(SbonChurnTest, MigrateThenRemoveLeavesLoadBooksAtBase) {
  const NodeId h0 = sbon_->overlay_nodes()[3];
  const CircuitId cid = InstallOneServiceCircuit(h0);
  ASSERT_NE(cid, kInvalidCircuit);

  std::vector<ServiceInstanceId> instances;
  for (const auto& [sid, inst] : sbon_->ledger().services()) {
    instances.push_back(sid);
  }
  ASSERT_FALSE(instances.empty());

  // Walk every instance across several hosts, ending somewhere new.
  const auto& nodes = sbon_->overlay_nodes();
  for (size_t step = 0; step < 6; ++step) {
    for (size_t i = 0; i < instances.size(); ++i) {
      const NodeId target = nodes[(3 + step * 5 + i) % nodes.size()];
      ASSERT_TRUE(sbon_->MigrateService(instances[i], target).ok());
    }
  }
  ASSERT_TRUE(sbon_->RemoveCircuit(cid).ok());
  EXPECT_EQ(sbon_->ledger().NumServices(), 0u);
  for (NodeId n = 0; n < sbon_->topology().NumNodes(); ++n) {
    EXPECT_NEAR(sbon_->ledger().service_load(n), 0.0, 1e-12)
        << "node " << n << " load book off base after migrate+remove";
  }
}

TEST_F(SbonChurnTest, PartitionInflatesCrossCutLatencyAndHeals) {
  const auto& nodes = sbon_->overlay_nodes();
  std::vector<NodeId> group(nodes.begin(), nodes.begin() + 4);
  const NodeId in = group[0];
  const NodeId out = nodes[10];
  const double before = sbon_->latency().Latency(in, out);
  const double inside_before = sbon_->latency().Latency(group[1], group[2]);

  ASSERT_TRUE(sbon_->BeginPartition(group, 8.0).ok());
  EXPECT_DOUBLE_EQ(sbon_->latency().Latency(in, out), before * 8.0);
  EXPECT_DOUBLE_EQ(sbon_->latency().Latency(group[1], group[2]),
                   inside_before);  // intra-group untouched
  EXPECT_EQ(sbon_->BeginPartition(group, 2.0).code(),
            StatusCode::kFailedPrecondition);  // one cut at a time

  ASSERT_TRUE(sbon_->EndPartition().ok());
  EXPECT_DOUBLE_EQ(sbon_->latency().Latency(in, out), before);
  EXPECT_EQ(sbon_->EndPartition().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SbonChurnTest, PartitionPenaltySurvivesTickNetwork) {
  overlay::Sbon::Options opts;
  opts.latency_jitter_sigma = 0.1;
  auto sbon = MakeTransitStubSbon(TopologySize::kTiny, 7, opts);
  const auto& nodes = sbon->overlay_nodes();
  std::vector<NodeId> group(nodes.begin(), nodes.begin() + 3);
  const NodeId in = group[0];
  const NodeId out = nodes[8];
  ASSERT_TRUE(sbon->BeginPartition(group, 10.0).ok());
  for (int e = 0; e < 3; ++e) {
    sbon->TickNetwork();  // resample jitter; penalty must be re-applied
    const double base = sbon->base_latency().Latency(in, out);
    // Jitter factors stay within a few x; a 10x cross-cut pair must remain
    // far above its pristine base.
    EXPECT_GT(sbon->latency().Latency(in, out), base * 2.0);
  }
  ASSERT_TRUE(sbon->EndPartition().ok());
}

// Regression: a crash + rejoin *during* an active partition must not leak
// into latency state — EndPartition has to restore the exact (bitwise)
// pre-partition live latencies, on both fabric backends. Node liveness and
// the latency substrate are independent books; a rejoin that nudged jitter
// or partition state would show up here as a single differing ulp.
TEST_F(SbonChurnTest, CrashRejoinDuringPartitionRestoresExactLatencies) {
  for (const auto mode : {net::NetworkFabric::BaseMode::kDense,
                          net::NetworkFabric::BaseMode::kSparse}) {
    overlay::Sbon::Options opts;
    opts.latency_jitter_sigma = 0.1;
    opts.fabric_mode = mode;
    auto sbon = MakeTransitStubSbon(TopologySize::kTiny, 7, opts);
    const size_t n = sbon->topology().NumNodes();
    sbon->TickNetwork();  // a real congestion epoch, not pristine base

    std::vector<double> before(n * n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        before[a * n + b] = sbon->latency().Latency(a, b);
      }
    }

    const auto& nodes = sbon->overlay_nodes();
    std::vector<NodeId> group(nodes.begin(), nodes.begin() + 3);
    ASSERT_TRUE(sbon->BeginPartition(group, 10.0).ok());
    const NodeId victim = group[1];
    ASSERT_TRUE(sbon->FailNode(victim).ok());
    ASSERT_TRUE(sbon->RejoinNode(victim).ok());
    ASSERT_TRUE(sbon->partition_active());
    ASSERT_TRUE(sbon->EndPartition().ok());

    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        EXPECT_EQ(sbon->latency().Latency(a, b), before[a * n + b])
            << "pair (" << a << "," << b << ") drifted after "
            << "crash+rejoin under partition on "
            << sbon->fabric().name();
      }
    }
  }
}

// --- engine repair --------------------------------------------------------

engine::EngineOptions ChurnEngineOptions(uint64_t seed) {
  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(TopologySize::kTiny, seed);
  eo.sbon.seed = seed;
  eo.config = TestOptimizerConfig();
  return eo;
}

TEST(EngineChurnTest, CrashTriggersHandleStableRepair) {
  auto eng = engine::StreamEngine::Create(ChurnEngineOptions(11)).value();
  eng->SetCatalog(MakeCatalog(eng->sbon(), TestWorkloadParams(), 3));
  const auto specs = MakeQueries(eng->sbon(), eng->catalog(),
                                 TestWorkloadParams(), 4, 5);
  std::vector<engine::QueryHandle> handles;
  for (const auto& spec : specs) handles.push_back(eng->Submit(spec).value());

  // Find a node hosting at least one deployed (non-pinned) service.
  NodeId victim = kInvalidNode;
  for (const auto& [sid, inst] : eng->sbon().ledger().services()) {
    victim = inst.host;
    break;
  }
  ASSERT_NE(victim, kInvalidNode);

  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  churn.ScheduleAt(0, Crash(victim));
  engine::EpochOptions epoch;
  epoch.churn = &churn;
  eng->AdvanceEpoch(epoch);

  const auto& stats = eng->repair_stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_GT(stats.services_evicted, 0u);
  EXPECT_GT(stats.circuits_orphaned, 0u);
  EXPECT_EQ(stats.queries_repaired + stats.queries_dropped,
            stats.circuits_orphaned);

  // Handles survive repairs; every live circuit avoids the dead node.
  EXPECT_EQ(eng->NumQueries() + stats.queries_dropped, handles.size());
  for (engine::QueryHandle h : handles) {
    const CircuitId cid = eng->CircuitOf(h);
    if (cid == kInvalidCircuit) continue;  // dropped
    const overlay::Circuit* c = eng->sbon().ledger().FindCircuit(cid);
    ASSERT_NE(c, nullptr);
    for (const auto& v : c->vertices()) {
      EXPECT_NE(v.host, victim);
      EXPECT_TRUE(eng->sbon().IsAlive(v.host));
    }
  }
  ScenarioMatrix::CheckLiveInvariants(*eng);
}

TEST(EngineChurnTest, DeadPinnedEndpointDropsTheQuery) {
  auto eng = engine::StreamEngine::Create(ChurnEngineOptions(13)).value();
  eng->SetCatalog(MakeCatalog(eng->sbon(), TestWorkloadParams(), 3));
  const auto specs = MakeQueries(eng->sbon(), eng->catalog(),
                                 TestWorkloadParams(), 2, 5);
  auto h = eng->Submit(specs[0]).value();

  // Crash the consumer (pinned): the query is unrepairable.
  const query::QuerySpec* spec = eng->SpecOf(h);
  ASSERT_NE(spec, nullptr);
  const NodeId consumer = spec->consumer;
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  churn.ScheduleAt(0, Crash(consumer));
  engine::EpochOptions epoch;
  epoch.churn = &churn;
  eng->AdvanceEpoch(epoch);

  EXPECT_EQ(eng->repair_stats().queries_dropped, 1u);
  EXPECT_EQ(eng->CircuitOf(h), kInvalidCircuit);
  EXPECT_EQ(eng->Remove(h).code(), StatusCode::kNotFound);  // released
  ScenarioMatrix::CheckLiveInvariants(*eng);
}

TEST(EngineChurnTest, SharedInstanceCrashOrphansEveryDependentQuery) {
  auto eng = engine::StreamEngine::Create([] {
    auto eo = ChurnEngineOptions(23);
    eo.optimizer = "multi-query";  // enables instance reuse across queries
    return eo;
  }()).value();
  eng->SetCatalog(MakeCatalog(eng->sbon(), TestWorkloadParams(4), 3));
  // Identical specs maximize reuse.
  const auto specs = MakeQueries(eng->sbon(), eng->catalog(),
                                 TestWorkloadParams(4), 1, 5);
  const auto h1 = eng->Submit(specs[0]).value();
  const auto h2 = eng->Submit(specs[0]).value();

  // Find an instance shared by both circuits, if any (reuse is workload
  // dependent; fall back to any instance).
  NodeId victim = kInvalidNode;
  for (const auto& [sid, inst] : eng->sbon().ledger().services()) {
    victim = inst.host;
    if (inst.Shared()) break;
  }
  ASSERT_NE(victim, kInvalidNode);

  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  churn.ScheduleAt(0, Crash(victim));
  engine::EpochOptions epoch;
  epoch.churn = &churn;
  eng->AdvanceEpoch(epoch);

  // Whatever was orphaned got repaired or dropped; invariants hold and the
  // surviving queries still answer to h1/h2.
  ScenarioMatrix::CheckLiveInvariants(*eng);
  for (engine::QueryHandle h : {h1, h2}) {
    if (eng->CircuitOf(h) != kInvalidCircuit) {
      EXPECT_NE(eng->sbon().ledger().FindCircuit(eng->CircuitOf(h)), nullptr);
    }
  }
}

// --- quick ScenarioMatrix subset (default suite) --------------------------

TEST(ScenarioMatrixQuickTest, TinyCrossProductHoldsInvariants) {
  MatrixOptions options;
  options.size = TopologySize::kTiny;
  options.queries = 4;
  options.epochs = 5;
  options.churn.mean_downtime_epochs = 2.0;
  ScenarioMatrix matrix(options);
  const auto cells = ScenarioMatrix::CrossProduct(
      /*churn_rates=*/{0.5}, /*jitter_sigmas=*/{0.0, 0.1},
      /*hotspot_fracs=*/{0.2}, /*optimizers=*/{"integrated"},
      /*seeds=*/{1, 2});
  ASSERT_EQ(cells.size(), 4u);
  const auto outcomes = matrix.Run(cells);
  size_t crashes = 0;
  for (const auto& o : outcomes) crashes += o.repair.crashes;
  EXPECT_GT(crashes, 0u) << "churn never fired; the sweep tested nothing";
}

TEST(ScenarioMatrixQuickTest, PartitionCellsHoldInvariants) {
  MatrixOptions options;
  options.size = TopologySize::kTiny;
  options.queries = 3;
  options.epochs = 6;
  options.churn.partition_rate = 0.5;
  options.churn.partition_duration_epochs = 2;
  ScenarioMatrix matrix(options);
  const auto outcomes = matrix.Run(ScenarioMatrix::CrossProduct(
      {0.25}, {0.1}, {0.0}, {"two-step"}, {3}));
  ASSERT_EQ(outcomes.size(), 1u);
}

}  // namespace
}  // namespace sbon::test
