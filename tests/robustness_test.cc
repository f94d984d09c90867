// Edge cases and failure-injection across module boundaries: reuse
// dependency diamonds, migration of shared instances, degenerate queries,
// and index consistency under churn.

#include <gtest/gtest.h>

#include <memory>

#include "core/optimizer.h"
#include "dht/coord_index.h"
#include "harness/fixtures.h"
#include "net/generators.h"
#include "overlay/metrics.h"
#include "overlay/sbon.h"
#include "placement/baselines.h"
#include "query/enumerate.h"

namespace sbon {
namespace {

using overlay::Circuit;
using overlay::Sbon;

std::unique_ptr<Sbon> SmallSbon(uint64_t seed = 1) {
  Rng rng(seed);
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 5;
  auto topo = net::GenerateTransitStub(p, &rng);
  EXPECT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.seed = seed;
  opts.load_params.sigma = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  EXPECT_TRUE(s.ok());
  return std::move(s.value());
}

query::Catalog ThreeStreams(const Sbon& s) {
  query::Catalog c;
  const auto& nodes = s.overlay_nodes();
  c.AddStream("a", 100, 64, nodes[0]);
  c.AddStream("b", 50, 64, nodes[5]);
  c.AddStream("c", 20, 64, nodes[10]);
  return c;
}

// --------------------------- reuse chains ---------------------------

TEST(ReuseChainTest, DiamondDependencySurvivesAnyRemovalOrder) {
  // C1 deploys (a JOIN b). C2 reuses it. C3 reuses it too. Removing in any
  // order never orphans a live dependency.
  for (int order = 0; order < 3; ++order) {
    auto s = SmallSbon(10 + order);
    query::Catalog cat = ThreeStreams(*s);
    core::OptimizerConfig unbounded;
    unbounded.reuse_radius = -1.0;
    core::Optimizer opt(
        unbounded, std::make_shared<placement::RelaxationPlacer>());
    std::vector<CircuitId> ids;
    for (NodeId consumer : {s->overlay_nodes()[1], s->overlay_nodes()[15],
                            s->overlay_nodes()[25]}) {
      query::QuerySpec q =
          query::QuerySpec::SimpleJoin({0, 1}, consumer, 0.001);
      auto r = opt.Optimize(q, cat, s.get());
      ASSERT_TRUE(r.ok());
      auto id = s->InstallCircuit(std::move(r->circuit));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // Rotate removal order.
    std::rotate(ids.begin(), ids.begin() + order, ids.end());
    for (CircuitId id : ids) {
      ASSERT_TRUE(s->RemoveCircuit(id).ok());
      // Remaining circuits still cost out correctly.
      for (const auto& [cid, c] : s->ledger().circuits()) {
        auto cost = s->CircuitCostOf(cid);
        EXPECT_TRUE(cost.ok());
      }
    }
    EXPECT_EQ(s->ledger().NumServices(), 0u);
  }
}

TEST(ReuseChainTest, MigratingSharedInstanceUpdatesAllCircuits) {
  auto s = SmallSbon(20);
  query::Catalog cat = ThreeStreams(*s);
  core::OptimizerConfig unbounded;
  unbounded.reuse_radius = -1.0;
  core::Optimizer opt(
      unbounded, std::make_shared<placement::RelaxationPlacer>());
  query::QuerySpec q1 =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[2], 0.001);
  auto r1 = opt.Optimize(q1, cat, s.get());
  ASSERT_TRUE(r1.ok());
  auto id1 = s->InstallCircuit(std::move(r1->circuit));
  ASSERT_TRUE(id1.ok());
  query::QuerySpec q2 =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[20], 0.001);
  auto r2 = opt.Optimize(q2, cat, s.get());
  ASSERT_TRUE(r2.ok());
  ASSERT_GE(r2->services_reused, 1u);
  auto id2 = s->InstallCircuit(std::move(r2->circuit));
  ASSERT_TRUE(id2.ok());

  // Find the shared instance and move it.
  ServiceInstanceId shared = kInvalidService;
  for (const auto& [cid, c] : s->ledger().circuits()) {
    for (const auto& v : c.vertices()) {
      if (v.service != kInvalidService) {
        const auto* inst = s->ledger().FindService(v.service);
        if (inst != nullptr && inst->Shared()) shared = v.service;
      }
    }
  }
  ASSERT_NE(shared, kInvalidService);
  const NodeId target = s->overlay_nodes()[30];
  ASSERT_TRUE(s->MigrateService(shared, target).ok());
  for (const auto& [cid, c] : s->ledger().circuits()) {
    for (const auto& v : c.vertices()) {
      if (v.service == shared) {
        EXPECT_EQ(v.host, target);
      }
    }
  }
}

TEST(ReuseChainTest, SecondLevelReuseChainsAttach) {
  // C2 reuses C1's join; C3 reuses the same join after C1 is gone: the
  // signature registry must still find the live instance via C2.
  auto s = SmallSbon(30);
  query::Catalog cat = ThreeStreams(*s);
  core::OptimizerConfig unbounded;
  unbounded.reuse_radius = -1.0;
  core::Optimizer opt(
      unbounded, std::make_shared<placement::RelaxationPlacer>());
  auto deploy = [&](NodeId consumer) {
    query::QuerySpec q =
        query::QuerySpec::SimpleJoin({0, 1}, consumer, 0.001);
    auto r = opt.Optimize(q, cat, s.get());
    EXPECT_TRUE(r.ok());
    const size_t reused = r->services_reused;
    auto id = s->InstallCircuit(std::move(r->circuit));
    EXPECT_TRUE(id.ok());
    return std::make_pair(*id, reused);
  };
  auto [id1, reused1] = deploy(s->overlay_nodes()[1]);
  auto [id2, reused2] = deploy(s->overlay_nodes()[20]);
  EXPECT_GE(reused2, 1u);
  ASSERT_TRUE(s->RemoveCircuit(id1).ok());
  auto [id3, reused3] = deploy(s->overlay_nodes()[33]);
  EXPECT_GE(reused3, 1u);  // instance survived through C2
  ASSERT_TRUE(s->RemoveCircuit(id2).ok());
  ASSERT_TRUE(s->RemoveCircuit(id3).ok());
  EXPECT_EQ(s->ledger().NumServices(), 0u);
}

// --------------------------- degenerate queries ---------------------------

TEST(DegenerateQueryTest, SingleStreamNoInteriorServices) {
  auto s = SmallSbon(40);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({2}, s->overlay_nodes()[3], 0.5);
  core::OptimizerConfig two_step;  // one candidate plan: the two-step baseline
  two_step.enumeration.top_k = 1;
  core::Optimizer opt(test::IntegratedConfig(two_step),
                      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->circuit.PlaceableVertices().empty());
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(s->ledger().NumServices(), 0u);  // nothing interior to deploy
  auto cost = s->CircuitCostOf(*id);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->network_usage, 0.0);
}

TEST(DegenerateQueryTest, ZeroSelectivityJoinStillPlaces) {
  auto s = SmallSbon(41);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 0.0);
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->circuit.FullyPlaced());
  // Join output rate is zero; producers still ship data to the join.
  auto cost = overlay::ComputeCircuitCost(r->circuit, s->latency(), nullptr);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->network_usage, 0.0);
}

TEST(DegenerateQueryTest, SelectivityOneCartesianExplodes) {
  // sel = 1 makes the join a cross product: output rate dominates, so the
  // optimizer should park the join near the consumer to shorten the heavy
  // output edge relative to alternatives. We only check it runs and the
  // output edge carries rate 2*rA*rB*W.
  auto s = SmallSbon(42);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 1.0);
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  const auto& plan = r->circuit.plan();
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    if (plan.op(i).kind == query::OpKind::kJoin) {
      EXPECT_DOUBLE_EQ(plan.op(i).out_tuple_rate, 2.0 * 100.0 * 50.0);
    }
  }
}

TEST(DegenerateQueryTest, AllProducersColocated) {
  auto s = SmallSbon(43);
  const NodeId site = s->overlay_nodes()[7];
  query::Catalog cat;
  cat.AddStream("a", 100, 64, site);
  cat.AddStream("b", 50, 64, site);
  query::QuerySpec q = query::QuerySpec::SimpleJoin({0, 1}, site, 0.01);
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  // Ideal virtual coordinate is the site itself; the mapped host should be
  // at (or essentially at) zero latency from it.
  for (int v : r->circuit.PlaceableVertices()) {
    EXPECT_LT(s->latency().Latency(r->circuit.vertex(v).host, site), 15.0);
  }
}

TEST(DegenerateQueryTest, FilterAndAggregateOnlyQuery) {
  auto s = SmallSbon(44);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0}, s->overlay_nodes()[12], 1.0);
  q.filter_sel = {0.1};
  q.aggregate_factor = 0.05;
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  // Two interior services: select + aggregate.
  EXPECT_EQ(r->circuit.PlaceableVertices().size(), 2u);
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(s->ledger().NumServices(), 2u);
}

// --------------------------- index churn ---------------------------

TEST(IndexChurnTest, RepeatedRepublishKeepsOneEntryPerNode) {
  Rng rng(50);
  std::vector<Vec> coords;
  for (int i = 0; i < 30; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  dht::CoordinateIndex idx(dht::HilbertQuantizer::FitTo(coords, 8));
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 30; ++i) {
      idx.Publish(static_cast<NodeId>(i),
                  Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
    }
  }
  EXPECT_EQ(idx.NumPublished(), 30u);
}

TEST(IndexChurnTest, WithdrawUnknownNodeIsNoOp) {
  dht::CoordinateIndex idx(dht::HilbertQuantizer({0.0}, {1.0}, 4));
  idx.Withdraw(99);  // must not crash
  idx.Publish(1, Vec{0.5});
  idx.Withdraw(99);
  EXPECT_EQ(idx.NumPublished(), 1u);
}

TEST(IndexChurnTest, KNearestWithKLargerThanPopulation) {
  std::vector<Vec> coords = {{0.0, 0.0}, {1.0, 1.0}};
  dht::CoordinateIndex idx(dht::HilbertQuantizer::FitTo(coords, 6));
  idx.Publish(0, coords[0]);
  idx.Publish(1, coords[1]);
  std::vector<NodeId> ms;
  ASSERT_TRUE(idx.KNearestNodesInto(Vec{0.0, 0.0}, 10, 10, nullptr, &ms).ok());
  EXPECT_EQ(ms.size(), 2u);
}

TEST(IndexChurnTest, NegativeRadiusReturnsEmpty) {
  std::vector<Vec> coords = {{0.0, 0.0}, {1.0, 1.0}};
  dht::CoordinateIndex idx(dht::HilbertQuantizer::FitTo(coords, 6));
  idx.Publish(0, coords[0]);
  idx.Publish(1, coords[1]);
  std::vector<NodeId> ms = {0};
  ASSERT_TRUE(idx.WithinRadiusInto(Vec{0.0, 0.0}, -1.0, nullptr, &ms).ok());
  EXPECT_TRUE(ms.empty());
}

// --------------------------- oracle with load ---------------------------

TEST(OracleLoadTest, PositiveLambdaAvoidsLoadedHosts) {
  auto s = SmallSbon(60);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 0.001);
  auto plans = query::EnumeratePlans(q, cat, query::EnumerationOptions{});
  ASSERT_TRUE(plans.ok());
  auto base = Circuit::FromPlan((*plans)[0], cat);
  ASSERT_TRUE(base.ok());

  // Latency-only oracle choice:
  Circuit lat_only = base.value();
  placement::ExhaustiveOraclePlacer::Params p0;
  p0.lambda = 0.0;
  ASSERT_TRUE(
      placement::ExhaustiveOraclePlacer(p0).Place(&lat_only, *s).ok());
  const NodeId chosen = lat_only.vertex(lat_only.PlaceableVertices()[0]).host;

  // Saturate that host; a load-aware oracle must move elsewhere.
  s->SetBaseLoad(chosen, 1.0);
  Circuit load_aware = base.value();
  placement::ExhaustiveOraclePlacer::Params p1;
  p1.lambda = 5.0;
  ASSERT_TRUE(
      placement::ExhaustiveOraclePlacer(p1).Place(&load_aware, *s).ok());
  EXPECT_NE(load_aware.vertex(load_aware.PlaceableVertices()[0]).host,
            chosen);
}

// --------------------------- misc API hardening ---------------------------

TEST(HardeningTest, OptimizeInvalidSpecFails) {
  auto s = SmallSbon(70);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec bad;  // no streams, no consumer
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  EXPECT_FALSE(opt.Optimize(bad, cat, s.get()).ok());
}

TEST(HardeningTest, InstallSameCircuitTwiceCreatesTwoDeployments) {
  auto s = SmallSbon(71);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 0.001);
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r1 = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r1.ok());
  Circuit copy = r1->circuit;
  auto a = s->InstallCircuit(std::move(r1->circuit));
  auto b = s->InstallCircuit(std::move(copy));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(s->ledger().circuits().size(), 2u);
  // Separate instances, no implicit reuse.
  EXPECT_EQ(s->ledger().NumServices(), 2u);
}

TEST(HardeningTest, MigrateToSameHostIsNoOp) {
  auto s = SmallSbon(72);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 0.001);
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  const auto* live = s->ledger().FindCircuit(*id);
  const int v = live->PlaceableVertices()[0];
  const NodeId host = live->vertex(v).host;
  const double load_before = s->ledger().service_load(host);
  ASSERT_TRUE(s->MigrateService(live->vertex(v).service, host).ok());
  EXPECT_DOUBLE_EQ(s->ledger().service_load(host), load_before);
}

TEST(HardeningTest, MappingWithSingleCandidate) {
  auto s = SmallSbon(73);
  query::Catalog cat = ThreeStreams(*s);
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[3], 0.001);
  auto plans = query::EnumeratePlans(q, cat, query::EnumerationOptions{});
  ASSERT_TRUE(plans.ok());
  auto c = Circuit::FromPlan((*plans)[0], cat);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(placement::RelaxationPlacer()
                  .Place(&c.value(), s->cost_space())
                  .ok());
  placement::MappingOptions mo;
  mo.k_candidates = 1;
  mo.probe_width = 1;
  EXPECT_TRUE(placement::MapCircuit(&c.value(), *s, mo, nullptr).ok());
  EXPECT_TRUE(c->FullyPlaced());
}

}  // namespace
}  // namespace sbon
