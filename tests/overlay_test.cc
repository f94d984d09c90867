#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "net/generators.h"
#include "overlay/circuit.h"
#include "overlay/metrics.h"
#include "overlay/sbon.h"
#include "query/catalog.h"
#include "query/plan.h"

namespace sbon::overlay {
namespace {

query::Catalog TwoStreamCatalog() {
  query::Catalog c;
  c.AddStream("a", 100.0, 64.0, /*producer=*/0);  // 6400 B/s
  c.AddStream("b", 10.0, 128.0, /*producer=*/1);  // 1280 B/s
  return c;
}

// A simple join plan: (a JOIN b) -> consumer.
query::LogicalPlan JoinPlan(const query::Catalog& c, NodeId consumer,
                            double sel = 0.01) {
  query::LogicalPlan p;
  const int a = p.AddProducer(0);
  const int b = p.AddProducer(1);
  const int j = p.AddJoin(a, b, sel);
  p.SetConsumer(j, consumer);
  EXPECT_TRUE(p.AnnotateRates(c).ok());
  return p;
}

// --------------------------- Circuit ---------------------------

TEST(CircuitTest, FromPlanPinsEndpoints) {
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  EXPECT_EQ(circuit->NumVertices(), 4u);
  EXPECT_EQ(circuit->edges().size(), 3u);
  EXPECT_TRUE(circuit->vertex(0).pinned);
  EXPECT_EQ(circuit->vertex(0).host, 0u);
  EXPECT_TRUE(circuit->vertex(1).pinned);
  EXPECT_EQ(circuit->vertex(1).host, 1u);
  EXPECT_FALSE(circuit->vertex(2).pinned);  // join
  EXPECT_TRUE(circuit->vertex(3).pinned);   // consumer
  EXPECT_EQ(circuit->vertex(3).host, 5u);
  EXPECT_FALSE(circuit->FullyPlaced());
  EXPECT_EQ(circuit->UnpinnedVertices(), (std::vector<int>{2}));
}

TEST(CircuitTest, EdgeRatesComeFromPlanAnnotations) {
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  // Producer edges into join, join edge into consumer.
  EXPECT_DOUBLE_EQ(circuit->edges()[0].rate_bytes_per_s, 6400.0);
  EXPECT_DOUBLE_EQ(circuit->edges()[1].rate_bytes_per_s, 1280.0);
  // join out: 2*0.01*100*10=20 t/s * 192 B = 3840 B/s.
  EXPECT_DOUBLE_EQ(circuit->edges()[2].rate_bytes_per_s, 3840.0);
}

TEST(CircuitTest, FromPlanRejectsUnknownStream) {
  query::Catalog c = TwoStreamCatalog();
  query::LogicalPlan p;
  const int a = p.AddProducer(7);
  p.SetConsumer(a, 5);
  // Annotate will fail, so construct directly from the raw plan.
  auto circuit = Circuit::FromPlan(p, c);
  EXPECT_FALSE(circuit.ok());
}

TEST(CircuitTest, IncidentEdges) {
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  const auto inc = circuit->IncidentEdges(2);  // the join vertex
  ASSERT_EQ(inc.size(), 3u);
  // Child edges in child order, then the parent edge: ascending edge index.
  const std::vector<Circuit::Incidence> want = {{0, 0}, {1, 1}, {2, 3}};
  EXPECT_TRUE(std::equal(inc.begin(), inc.end(), want.begin()));
  EXPECT_EQ(circuit->vertex(0).parent_edge, 0);
  EXPECT_EQ(circuit->vertex(2).parent_edge, 2);
  EXPECT_EQ(circuit->vertex(3).parent_edge, -1);  // the root
  EXPECT_EQ(circuit->IncidentEdges(0).size(), 1u);
  EXPECT_EQ(circuit->IncidentEdges(3).size(), 1u);
}

TEST(CircuitTest, BindReusedSubtreeMarksEverything) {
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  circuit->BindReusedSubtree(/*vertex=*/2, /*instance=*/42,
                             /*instance_host=*/7,
                             /*upstream_latency_ms=*/12.5);
  const CircuitVertex& v = circuit->vertex(2);
  EXPECT_TRUE(v.reused);
  EXPECT_EQ(v.service, 42u);
  EXPECT_EQ(v.host, 7u);
  EXPECT_DOUBLE_EQ(v.reused_upstream_latency_ms, 12.5);
  // Subtree edges (producers -> join) now non-physical.
  EXPECT_FALSE(circuit->edges()[0].physical);
  EXPECT_FALSE(circuit->edges()[1].physical);
  // Join -> consumer stays physical.
  EXPECT_TRUE(circuit->edges()[2].physical);
  EXPECT_TRUE(circuit->PlaceableVertices().empty());
  EXPECT_TRUE(circuit->FullyPlaced());
}

// --------------------------- Metrics ---------------------------

TEST(MetricsTest, CostOnLineTopology) {
  // line 0-1-2-3-4, 10ms links; producers at 0 and 1, consumer at 4.
  auto topo = net::GenerateLine(5, 10.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 4), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 2;  // join in the middle

  auto cost = ComputeCircuitCost(*circuit, lat, nullptr);
  ASSERT_TRUE(cost.ok());
  // usage: 6400*20 + 1280*10 + 3840*20.
  EXPECT_DOUBLE_EQ(cost->network_usage,
                   6400.0 * 20 + 1280.0 * 10 + 3840.0 * 20);
  // critical path: producer0 (0->2: 20ms) + join->consumer (2->4: 20ms).
  EXPECT_DOUBLE_EQ(cost->critical_path_latency_ms, 40.0);
  EXPECT_DOUBLE_EQ(cost->node_penalty, 0.0);
}

TEST(MetricsTest, UnplacedCircuitRejected) {
  auto topo = net::GenerateLine(5, 10.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 4), c);
  ASSERT_TRUE(circuit.ok());
  EXPECT_FALSE(ComputeCircuitCost(*circuit, lat, nullptr).ok());
}

TEST(MetricsTest, NodePenaltyScalesWithServiceInputRate) {
  auto topo = net::GenerateLine(3, 1.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  coords::CostSpace space(coords::CostSpaceSpec::LatencyAndLoad(2, 10.0), 3);
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_TRUE(space.SetVectorCoord(n, Vec{0.0, 0.0}).ok());
  }
  ASSERT_TRUE(space.SetScalarMetric(1, 0, 0.5).ok());  // w = 10*0.25 = 2.5

  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 2), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 1;
  auto cost = ComputeCircuitCost(*circuit, lat, &space);
  ASSERT_TRUE(cost.ok());
  // Penalty = w(load) * service input rate = 2.5 * (6400 + 1280).
  EXPECT_DOUBLE_EQ(cost->node_penalty, 2.5 * 7680.0);
  EXPECT_DOUBLE_EQ(cost->Total(2.0),
                   cost->network_usage + 2.0 * 2.5 * 7680.0);
}

TEST(MetricsTest, ReusedVertexUsesUpstreamLatency) {
  auto topo = net::GenerateLine(5, 10.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 4), c);
  ASSERT_TRUE(circuit.ok());
  circuit->BindReusedSubtree(2, /*instance=*/1, /*instance_host=*/2,
                             /*upstream_latency_ms=*/33.0);
  auto cost = ComputeCircuitCost(*circuit, lat, nullptr);
  ASSERT_TRUE(cost.ok());
  // Only the join->consumer edge is physical: 3840 B/s * 20 ms.
  EXPECT_DOUBLE_EQ(cost->network_usage, 3840.0 * 20);
  // Latency: upstream 33 + hop 2->4 (20ms).
  EXPECT_DOUBLE_EQ(cost->critical_path_latency_ms, 53.0);
}

TEST(MetricsTest, UpstreamLatencyOfReusedInstance) {
  auto topo = net::GenerateLine(5, 10.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 4), c);
  ASSERT_TRUE(circuit.ok());
  circuit->BindReusedSubtree(2, /*instance=*/1, /*instance_host=*/2,
                             /*upstream_latency_ms=*/33.0);
  // The circuit reuses the instance, so its upstream latency is the one
  // the binding carries, not the hops from the producers (0->2: 20 ms).
  auto upstream = UpstreamLatencyToService(*circuit, 1, lat);
  ASSERT_TRUE(upstream.ok());
  EXPECT_DOUBLE_EQ(*upstream, 33.0);
  EXPECT_FALSE(UpstreamLatencyToService(*circuit, 2, lat).ok());
}

// --------------------------- Sbon ---------------------------

std::unique_ptr<Sbon> MakeSbon(uint64_t seed = 1, size_t line = 6) {
  auto topo = net::GenerateLine(line, 10.0);
  EXPECT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.seed = seed;
  opts.load_params.sigma = 0.0;  // deterministic load in unit tests
  opts.load_params.mean = 0.2;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s.value());
}

TEST(SbonTest, CreateRejectsBadTopologies) {
  net::Topology empty;
  EXPECT_FALSE(Sbon::Create(std::move(empty), Sbon::Options{}).ok());

  net::Topology disconnected;
  disconnected.AddNode(net::NodeKind::kHost);
  disconnected.AddNode(net::NodeKind::kHost);
  EXPECT_FALSE(Sbon::Create(std::move(disconnected), Sbon::Options{}).ok());
}

TEST(SbonTest, CreateValidatesOptions) {
  auto create = [](auto mutate) {
    auto topo = net::GenerateLine(4, 10.0);
    EXPECT_TRUE(topo.ok());
    Sbon::Options opts;
    mutate(&opts);
    return Sbon::Create(std::move(topo.value()), opts).status();
  };

  // Out-of-range knobs fail fast with InvalidArgument instead of silently
  // misbehaving deep inside jitter/index/load bookkeeping.
  EXPECT_EQ(create([](Sbon::Options* o) { o->latency_jitter_sigma = -0.1; })
                .code(),
            StatusCode::kInvalidArgument);
  // 10 dims x 10 bits above a 32-bit node id needs a 132-bit ring key.
  EXPECT_EQ(create([](Sbon::Options* o) {
              o->space_spec = coords::CostSpaceSpec::LatencyAndLoad(9);
            }).code(),
            StatusCode::kInvalidArgument);

  // Boundary values are legal: 9 dims x 10 bits and a node id fit a U128.
  EXPECT_TRUE(create([](Sbon::Options* o) {
                o->space_spec = coords::CostSpaceSpec::LatencyAndLoad(8);
              }).ok());
  EXPECT_TRUE(
      create([](Sbon::Options* o) { o->latency_jitter_sigma = 0.0; }).ok());
}

TEST(SbonTest, CreateBuildsSubstrate) {
  auto s = MakeSbon();
  EXPECT_EQ(s->topology().NumNodes(), 6u);
  EXPECT_EQ(s->overlay_nodes().size(), 6u);
  EXPECT_EQ(s->index().NumPublished(), 6u);
  EXPECT_EQ(s->cost_space().NumNodes(), 6u);
  EXPECT_DOUBLE_EQ(s->latency().Latency(0, 5), 50.0);
}

TEST(SbonTest, QuietRefreshPerformsZeroRepublishes) {
  auto s = MakeSbon(11);
  // Nothing moved since Initialize published every coordinate: the refresh
  // must issue zero ring re-publishes and leave the ring untouched.
  s->RefreshIndex();
  EXPECT_EQ(s->coords().refresh_stats().refreshes, 1u);
  EXPECT_EQ(s->coords().refresh_stats().republished, 0u);
  EXPECT_EQ(s->coords().refresh_stats().skipped, 6u);
  EXPECT_EQ(s->coords().refresh_stats().quiet_refreshes, 1u);

  // One node's load changes -> exactly that node republishes.
  s->SetBaseLoad(2, 0.9);
  s->RefreshIndex();
  EXPECT_EQ(s->coords().refresh_stats().republished, 1u);
  EXPECT_EQ(s->coords().refresh_stats().quiet_refreshes, 1u);

  // The same movement under a huge epsilon is below threshold: quiet again.
  s->SetBaseLoad(2, 0.1);
  s->RefreshIndex(/*epsilon=*/1e9);
  EXPECT_EQ(s->coords().refresh_stats().republished, 1u);
  EXPECT_EQ(s->coords().refresh_stats().quiet_refreshes, 2u);

  // Queries still see the refreshed state identically after a quiet epoch.
  std::vector<NodeId> m;
  EXPECT_TRUE(
      s->index().KNearestNodesInto(s->cost_space().FullCoord(0), 1, 16,
                                   nullptr, &m)
          .ok());
  EXPECT_EQ(m.size(), 1u);
}

TEST(SbonTest, InstallCircuitCreatesServices) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 3;
  auto id = s->InstallCircuit(std::move(circuit.value()));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(s->ledger().circuits().size(), 1u);
  EXPECT_EQ(s->ledger().NumServices(), 1u);
  const Circuit* live = s->ledger().FindCircuit(*id);
  ASSERT_NE(live, nullptr);
  EXPECT_NE(live->vertex(2).service, kInvalidService);
  // Service load was applied to host 3: input 6400+1280 B/s.
  EXPECT_GT(s->ledger().service_load(3), 0.0);
  EXPECT_DOUBLE_EQ(s->ledger().service_load(2), 0.0);
}

TEST(SbonTest, InstallRejectsUnplaced) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  EXPECT_FALSE(s->InstallCircuit(std::move(circuit.value())).ok());
}

TEST(SbonTest, RemoveCircuitReleasesServicesAndLoad) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 3;
  auto id = s->InstallCircuit(std::move(circuit.value()));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(s->RemoveCircuit(*id).ok());
  EXPECT_EQ(s->ledger().circuits().size(), 0u);
  EXPECT_EQ(s->ledger().NumServices(), 0u);
  EXPECT_DOUBLE_EQ(s->ledger().service_load(3), 0.0);
  EXPECT_FALSE(s->RemoveCircuit(*id).ok());  // second remove fails
}

TEST(SbonTest, ServicesWithSignatureFindsMatch) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  const query::LogicalPlan plan = JoinPlan(c, 5);
  auto circuit = Circuit::FromPlan(plan, c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 3;
  ASSERT_TRUE(s->InstallCircuit(std::move(circuit.value())).ok());
  const uint64_t sig = plan.OpSignature(2);
  const auto matches = s->ledger().ServicesWithSignature(sig);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0]->host, 3u);
  EXPECT_TRUE(s->ledger().ServicesWithSignature(sig + 1).empty());
}

TEST(SbonTest, MigrateServiceMovesLoadAndVertices) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 3;
  auto id = s->InstallCircuit(std::move(circuit.value()));
  ASSERT_TRUE(id.ok());
  const ServiceInstanceId sid = s->ledger().FindCircuit(*id)->vertex(2).service;
  ASSERT_TRUE(s->MigrateService(sid, 4).ok());
  EXPECT_EQ(s->ledger().FindCircuit(*id)->vertex(2).host, 4u);
  EXPECT_DOUBLE_EQ(s->ledger().service_load(3), 0.0);
  EXPECT_GT(s->ledger().service_load(4), 0.0);
  EXPECT_EQ(s->ledger().FindService(sid)->host, 4u);
}

TEST(SbonTest, MigrateRejectsBadArgs) {
  auto s = MakeSbon();
  EXPECT_FALSE(s->MigrateService(999, 0).ok());
}

TEST(SbonTest, ReuseSharesInstanceAndSurvivesSourceRemoval) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  const query::LogicalPlan plan = JoinPlan(c, 5);

  auto c1 = Circuit::FromPlan(plan, c);
  ASSERT_TRUE(c1.ok());
  c1->mutable_vertex(2).host = 3;
  auto id1 = s->InstallCircuit(std::move(c1.value()));
  ASSERT_TRUE(id1.ok());
  const ServiceInstanceId sid =
      s->ledger().FindCircuit(*id1)->vertex(2).service;

  // Second circuit (different consumer) reuses the join instance.
  const query::LogicalPlan plan2 = JoinPlan(c, 4);
  auto c2 = Circuit::FromPlan(plan2, c);
  ASSERT_TRUE(c2.ok());
  c2->BindReusedSubtree(2, sid, 3, 20.0);
  auto id2 = s->InstallCircuit(std::move(c2.value()));
  ASSERT_TRUE(id2.ok());

  EXPECT_EQ(s->ledger().NumServices(), 1u);
  EXPECT_EQ(s->ledger().FindService(sid)->circuits.size(), 2u);
  EXPECT_TRUE(s->ledger().FindService(sid)->Shared());

  // Removing the source circuit must keep the instance alive (the second
  // circuit depends on it).
  ASSERT_TRUE(s->RemoveCircuit(*id1).ok());
  ASSERT_NE(s->ledger().FindService(sid), nullptr);
  EXPECT_EQ(s->ledger().FindService(sid)->circuits.size(), 1u);

  // Removing the last user releases it.
  ASSERT_TRUE(s->RemoveCircuit(*id2).ok());
  EXPECT_EQ(s->ledger().NumServices(), 0u);
}

TEST(SbonTest, TotalNetworkUsageCountsSharedEdgesOnce) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  const query::LogicalPlan plan = JoinPlan(c, 5);
  auto c1 = Circuit::FromPlan(plan, c);
  ASSERT_TRUE(c1.ok());
  c1->mutable_vertex(2).host = 3;
  auto id1 = s->InstallCircuit(std::move(c1.value()));
  ASSERT_TRUE(id1.ok());
  const double usage_one = s->TotalNetworkUsage();
  ASSERT_GT(usage_one, 0.0);

  const ServiceInstanceId sid =
      s->ledger().FindCircuit(*id1)->vertex(2).service;
  auto c2 = Circuit::FromPlan(JoinPlan(c, 4), c);
  ASSERT_TRUE(c2.ok());
  c2->BindReusedSubtree(2, sid, 3, 20.0);
  ASSERT_TRUE(s->InstallCircuit(std::move(c2.value())).ok());

  // Second circuit only adds the join->consumer(4) edge: 3840 B/s * 10 ms.
  EXPECT_NEAR(s->TotalNetworkUsage(), usage_one + 3840.0 * 10.0, 1e-6);
}

TEST(SbonTest, TickEvolvesLoadAndScalars) {
  auto topo = net::GenerateLine(4, 5.0);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.seed = 3;
  opts.load_params.sigma = 0.3;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());
  const double before = (*s)->cost_space().RawScalar(0, 0);
  std::vector<double> loads_before;
  for (NodeId n = 0; n < 4; ++n) loads_before.push_back((*s)->BaseLoad(n));
  (*s)->Tick(1.0);
  bool changed = false;
  for (NodeId n = 0; n < 4; ++n) {
    if ((*s)->BaseLoad(n) != loads_before[n]) changed = true;
  }
  EXPECT_TRUE(changed);
  // Scalar metric tracks total load.
  EXPECT_DOUBLE_EQ((*s)->cost_space().RawScalar(0, 0), (*s)->TotalLoad(0));
  (void)before;
}

TEST(SbonTest, SetBaseLoadReflectsInCostSpace) {
  auto s = MakeSbon();
  s->SetBaseLoad(2, 0.8);
  EXPECT_DOUBLE_EQ(s->TotalLoad(2), 0.8);
  EXPECT_DOUBLE_EQ(s->cost_space().RawScalar(2, 0), 0.8);
}

TEST(SbonTest, RefreshIndexPublishesNewScalars) {
  auto s = MakeSbon();
  // Push node 2's load to max; after refresh its full coordinate in the
  // index should carry a large scalar component, pushing it away from
  // ideal targets.
  s->SetBaseLoad(2, 1.0);
  s->RefreshIndex();
  const Vec full = s->cost_space().FullCoord(2);
  EXPECT_GT(full[2], 0.0);
}

TEST(SbonTest, DeterministicAcrossIdenticalSeeds) {
  auto a = MakeSbon(42);
  auto b = MakeSbon(42);
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(a->cost_space().VectorCoord(n),
              b->cost_space().VectorCoord(n));
    EXPECT_DOUBLE_EQ(a->BaseLoad(n), b->BaseLoad(n));
  }
}

TEST(SbonTest, MdsCoordModeWorks) {
  auto topo = net::GenerateLine(6, 10.0);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());
  // MDS on a line should embed near-perfectly: check end-to-end distance.
  const double d = (*s)->cost_space().VectorDistance(0, 5);
  EXPECT_NEAR(d, 50.0, 5.0);
}

// Every node's cost-space scalars must be the weighting of its total load,
// bitwise: install, remove and migrate refresh only the hosts the ledger
// touched, so a host they miss keeps a stale scalar.
void ExpectScalarsFollowTotalLoad(const Sbon& s, int step) {
  const coords::CostSpace& space = s.cost_space();
  for (NodeId n = 0; n < s.topology().NumNodes(); ++n) {
    const double load = s.TotalLoad(n);
    for (size_t i = 0; i < space.spec().num_scalar_dims(); ++i) {
      ASSERT_EQ(space.RawScalar(n, i), load) << "step " << step << " node "
                                             << n;
      ASSERT_EQ(space.WeightedScalar(n, i),
                space.spec().scalar_dim(i).weighting->Apply(load))
          << "step " << step << " node " << n;
    }
  }
}

TEST(SbonTest, ScalarsFollowLoadThroughInstallRemoveMigrate) {
  auto s = MakeSbon(/*seed=*/4, /*line=*/8);
  query::Catalog c = TwoStreamCatalog();
  // Node 7 is down: installs placing a service there are refused.
  ASSERT_TRUE(s->FailNode(7).ok());
  Rng rng(11);
  const auto alive_host = [&] { return static_cast<NodeId>(rng.UniformInt(7)); };
  // (select a JOIN select b) -> consumer; vertices 2, 3 and 4 are services.
  const auto make_circuit = [&] {
    query::LogicalPlan p;
    const int a = p.AddSelect(p.AddProducer(0), rng.Uniform(0.1, 1.0));
    const int b = p.AddSelect(p.AddProducer(1), rng.Uniform(0.1, 1.0));
    const int j = p.AddJoin(a, b, 0.01);
    p.SetConsumer(j, static_cast<NodeId>(2 + rng.UniformInt(5)));
    EXPECT_TRUE(p.AnnotateRates(c).ok());
    auto circuit = Circuit::FromPlan(p, c);
    EXPECT_TRUE(circuit.ok());
    for (int v : {a, b, j}) circuit->mutable_vertex(v).host = alive_host();
    return std::move(circuit.value());
  };
  size_t installed = 0, removed = 0, migrated = 0, rolled_back = 0,
         refused = 0;
  std::vector<CircuitId> live;
  for (int step = 0; step < 400; ++step) {
    const uint64_t kind = rng.UniformInt(6);
    const auto& services = s->ledger().services();
    if (kind <= 1 || live.empty()) {
      Circuit circuit = make_circuit();
      // Now and then the b-side select reuses a deployed instance.
      if (!services.empty() && rng.UniformInt(3) == 0) {
        auto it = services.begin();
        std::advance(it, rng.UniformInt(services.size()));
        circuit.BindReusedSubtree(3, it->first, it->second.host, 10.0);
      }
      auto id = s->InstallCircuit(std::move(circuit));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.push_back(*id);
      ++installed;
    } else if (kind == 2) {
      const size_t pick = rng.UniformInt(live.size());
      ASSERT_TRUE(s->RemoveCircuit(live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      ++removed;
    } else if (kind == 3 && !services.empty()) {
      auto it = services.begin();
      std::advance(it, rng.UniformInt(services.size()));
      ASSERT_TRUE(s->MigrateService(it->first, alive_host()).ok());
      ++migrated;
    } else if (kind == 4) {
      // The a-side select deploys before the b-side binding fails, so the
      // rollback restores a host it touched.
      Circuit circuit = make_circuit();
      circuit.BindReusedSubtree(3, /*instance=*/999999, 0, 10.0);
      ASSERT_FALSE(s->InstallCircuit(std::move(circuit)).ok());
      ++rolled_back;
    } else {
      Circuit circuit = make_circuit();
      circuit.mutable_vertex(4).host = 7;
      ASSERT_FALSE(s->InstallCircuit(std::move(circuit)).ok());
      ++refused;
    }
    ExpectScalarsFollowTotalLoad(*s, step);
  }
  EXPECT_GT(installed, 50u);
  EXPECT_GT(removed, 30u);
  EXPECT_GT(migrated, 30u);
  EXPECT_GT(rolled_back, 30u);
  EXPECT_GT(refused, 30u);
}

TEST(SbonTest, CircuitCostOfMatchesDirectComputation) {
  auto s = MakeSbon();
  query::Catalog c = TwoStreamCatalog();
  auto circuit = Circuit::FromPlan(JoinPlan(c, 5), c);
  ASSERT_TRUE(circuit.ok());
  circuit->mutable_vertex(2).host = 3;
  Circuit copy = circuit.value();
  auto id = s->InstallCircuit(std::move(circuit.value()));
  ASSERT_TRUE(id.ok());
  auto got = s->CircuitCostOf(*id);
  ASSERT_TRUE(got.ok());
  auto want = ComputeCircuitCost(copy, s->latency(), &s->cost_space());
  ASSERT_TRUE(want.ok());
  EXPECT_DOUBLE_EQ(got->network_usage, want->network_usage);
}

}  // namespace
}  // namespace sbon::overlay
