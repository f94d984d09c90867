#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "core/reopt.h"
#include "engine/registry.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "harness/reference_optimizer.h"
#include "net/generators.h"
#include "overlay/metrics.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"
#include "query/workload.h"

namespace sbon::core {
namespace {

using overlay::Sbon;

std::unique_ptr<Sbon> MakeSbon(uint64_t seed) {
  Sbon::Options opts;
  opts.load_params.sigma = 0.0;
  opts.load_params.mean = 0.2;
  return test::MakeTransitStubSbon(test::TopologySize::kTiny, seed, opts);
}

std::shared_ptr<const placement::VirtualPlacer> Relaxation() {
  return test::DefaultPlacer();
}

// The two-step baseline (paper Sec. 2.3): the integrated optimizer over the
// single minimum-data-volume plan.
Optimizer TwoStep(OptimizerConfig cfg,
                  std::shared_ptr<const placement::VirtualPlacer> placer) {
  cfg.enumeration.top_k = 1;
  return Optimizer(test::IntegratedConfig(cfg), std::move(placer));
}

query::WorkloadParams TestWorkload() {
  query::WorkloadParams wp;
  wp.num_streams = 20;
  wp.min_streams_per_query = 3;
  wp.max_streams_per_query = 5;
  return wp;
}

// --------------------------- TwoStep ---------------------------

TEST(TwoStepTest, ProducesInstallableCircuit) {
  auto s = MakeSbon(1);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  Optimizer opt = TwoStep(OptimizerConfig{}, Relaxation());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->circuit.FullyPlaced());
  EXPECT_EQ(r->plans_considered, 1u);
  EXPECT_EQ(r->placements_evaluated, 1u);
  EXPECT_GT(r->estimated_cost, 0.0);
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  EXPECT_GT(s->ledger().NumServices(), 0u);
}

TEST(TwoStepTest, ChoosesMinDataVolumePlan) {
  auto s = MakeSbon(2);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  Optimizer opt = TwoStep(OptimizerConfig{}, Relaxation());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  auto all = test::EnumerateAllPlansExhaustive(q, cat);
  ASSERT_TRUE(all.ok());
  EXPECT_NEAR(r->circuit.plan().IntermediateDataRate(),
              (*all)[0].IntermediateDataRate(),
              1e-6 * (*all)[0].IntermediateDataRate());
}

// --------------------------- Integrated ---------------------------

TEST(IntegratedTest, ConsidersMultiplePlans) {
  auto s = MakeSbon(3);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  query::QuerySpec q = query::QuerySpec::SimpleJoin(
      {0, 1, 2, 3}, s->overlay_nodes()[0], 0.001);
  OptimizerConfig cfg;
  cfg.enumeration.top_k = 8;
  Optimizer opt(test::IntegratedConfig(cfg), Relaxation());
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->plans_considered, 1u);
  // Every plan is placed virtually; only those still in contention are
  // mapped in full, and at least the winner is.
  EXPECT_GE(r->placements_evaluated, 1u);
  EXPECT_LE(r->placements_evaluated, r->plans_considered);
  EXPECT_TRUE(r->circuit.FullyPlaced());
  // The pruned search picks the circuit mapping every plan would.
  auto ref = test::ExhaustiveOptimize(test::IntegratedConfig(cfg),
                                      *Relaxation(), q, cat, *s);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(test::CircuitDiff(r->circuit, ref->circuit), "");
  EXPECT_EQ(r->estimated_cost, ref->estimated_cost);
}

// Invariant 5: integrated never estimates worse than two-step when the
// two-step plan is in its candidate set (same placer, same mapper).
class IntegratedDominanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegratedDominanceTest, IntegratedLeqTwoStepOnEstimate) {
  auto s = MakeSbon(GetParam());
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  cfg.enumeration.top_k = 8;
  Optimizer two = TwoStep(cfg, Relaxation());
  Optimizer integrated(test::IntegratedConfig(cfg), Relaxation());
  for (int rep = 0; rep < 5; ++rep) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto rt = two.Optimize(q, cat, s.get());
    auto ri = integrated.Optimize(q, cat, s.get());
    ASSERT_TRUE(rt.ok() && ri.ok());
    // The integrated candidate set contains the two-step plan (it is the
    // DP optimum, always rank 1 of the top-k), so integrated can never
    // estimate worse.
    EXPECT_LE(ri->estimated_cost, rt->estimated_cost * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegratedDominanceTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(IntegratedTest, SingleCandidateEqualsTwoStep) {
  auto s = MakeSbon(4);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  cfg.enumeration.top_k = 1;
  // Two-step spelled out: the DP's one plan, placed and mapped in one go.
  auto plans = query::EnumeratePlans(q, cat, cfg.enumeration);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  auto two = overlay::Circuit::FromPlan((*plans)[0], cat);
  ASSERT_TRUE(two.ok());
  placement::MappingReport two_report;
  std::vector<NodeId> candidates;
  ASSERT_TRUE(PlaceAndMap(&two.value(), *s, *Relaxation(), cfg.mapping,
                          &two_report, &candidates)
                  .ok());
  auto two_cost = EstimateCost(*two, *s, cfg.lambda);
  ASSERT_TRUE(two_cost.ok());

  auto one = Optimizer(test::IntegratedConfig(cfg), Relaxation())
                 .Optimize(q, cat, s.get());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(test::CircuitDiff(one->circuit, *two), "");
  EXPECT_EQ(one->estimated_cost, *two_cost);
  EXPECT_EQ(one->plans_considered, 1u);
  EXPECT_EQ(one->placements_evaluated, 1u);
  EXPECT_EQ(one->mapping.services_mapped, two_report.services_mapped);
  EXPECT_EQ(one->mapping.total_mapping_error, two_report.total_mapping_error);
}

// --------------------------- MultiQuery ---------------------------

OptimizerConfig WithRadius(OptimizerConfig cfg, double r) {
  cfg.reuse_radius = r;
  return cfg;
}

// The registry's "multi-query" at radius 0 is the "integrated" preset: the
// same circuit from the same best-first work, field for field.
TEST(MultiQueryTest, RadiusZeroMatchesIntegrated) {
  auto s = MakeSbon(5);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  const engine::OptimizerRegistry& registry =
      engine::OptimizerRegistry::Global();
  auto integrated = registry.Create("integrated", cfg, Relaxation());
  auto mq = registry.Create("multi-query", WithRadius(cfg, 0.0), Relaxation());
  ASSERT_TRUE(integrated.ok() && mq.ok());
  // Pre-install some circuits so reuse would be possible.
  for (int i = 0; i < 3; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto r = (*integrated)->Optimize(q, cat, s.get());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(s->InstallCircuit(std::move(r->circuit)).ok());
  }
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  auto ri = (*integrated)->Optimize(q, cat, s.get());
  auto rm = (*mq)->Optimize(q, cat, s.get());
  ASSERT_TRUE(ri.ok() && rm.ok());
  EXPECT_EQ(test::CircuitDiff(rm->circuit, ri->circuit), "");
  EXPECT_EQ(rm->estimated_cost, ri->estimated_cost);  // bit for bit
  EXPECT_EQ(rm->plans_considered, ri->plans_considered);
  EXPECT_EQ(rm->placements_evaluated, ri->placements_evaluated);
  EXPECT_EQ(rm->reuse_candidates_considered, 0u);
  EXPECT_EQ(rm->services_reused, 0u);
  const placement::MappingReport& mm = rm->mapping;
  const placement::MappingReport& im = ri->mapping;
  EXPECT_EQ(mm.dht_cost.lookups, im.dht_cost.lookups);
  EXPECT_EQ(mm.dht_cost.routing_hops, im.dht_cost.routing_hops);
  EXPECT_EQ(mm.dht_cost.ring_probes, im.dht_cost.ring_probes);
  EXPECT_EQ(mm.services_mapped, im.services_mapped);
  EXPECT_EQ(mm.total_mapping_error, im.total_mapping_error);
  EXPECT_EQ(mm.load_overrides, im.load_overrides);
}

TEST(MultiQueryTest, IdenticalQueryReusesWholeSubtree) {
  auto s = MakeSbon(6);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer mq(WithRadius(cfg, -1.0), Relaxation());
  const query::QuerySpec q = query::QuerySpec::SimpleJoin(
      {0, 1, 2}, s->overlay_nodes()[5], 0.001);
  auto first = mq.Optimize(q, cat, s.get());
  ASSERT_TRUE(first.ok());
  const double standalone_cost = first->estimated_cost;
  ASSERT_TRUE(s->InstallCircuit(std::move(first->circuit)).ok());

  // Same query, different consumer: the root join should be reused and the
  // marginal cost must be far below standalone.
  query::QuerySpec q2 = q;
  q2.consumer = s->overlay_nodes()[40];
  auto second = mq.Optimize(q2, cat, s.get());
  ASSERT_TRUE(second.ok());
  EXPECT_GE(second->services_reused, 1u);
  EXPECT_LT(second->estimated_cost, standalone_cost * 0.8);
  // And it installs cleanly against the live instances.
  auto id = s->InstallCircuit(std::move(second->circuit));
  ASSERT_TRUE(id.ok());
}

TEST(MultiQueryTest, UnboundedRadiusNeverWorseThanNoReuse) {
  auto s = MakeSbon(7);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer none(WithRadius(cfg, 0.0), Relaxation());
  Optimizer all(WithRadius(cfg, -1.0), Relaxation());
  // Install a base of circuits.
  for (int i = 0; i < 5; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto r = all.Optimize(q, cat, s.get());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(s->InstallCircuit(std::move(r->circuit)).ok());
  }
  for (int rep = 0; rep < 5; ++rep) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto rn = none.Optimize(q, cat, s.get());
    auto ra = all.Optimize(q, cat, s.get());
    ASSERT_TRUE(rn.ok() && ra.ok());
    // Invariant 6: unbounded reuse search cannot produce a costlier pick.
    EXPECT_LE(ra->estimated_cost, rn->estimated_cost * (1.0 + 1e-9));
  }
}

TEST(MultiQueryTest, RadiusMonotoneInOptimizerWork) {
  auto s = MakeSbon(8);
  query::WorkloadParams wp = TestWorkload();
  wp.num_streams = 10;  // denser sharing
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer mq(WithRadius(cfg, -1.0), Relaxation());
  for (int i = 0; i < 8; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto r = mq.Optimize(q, cat, s.get());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(s->InstallCircuit(std::move(r->circuit)).ok());
  }
  // Optimizer work (reuse candidates examined) grows with radius.
  const double diameter =
      2.0 * s->latency().MaxLatency();  // generous cost-space bound
  size_t small_work = 0, large_work = 0;
  for (int rep = 0; rep < 4; ++rep) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    Optimizer small(WithRadius(cfg, 1.0), Relaxation());
    Optimizer large(WithRadius(cfg, diameter), Relaxation());
    auto rs = small.Optimize(q, cat, s.get());
    auto rl = large.Optimize(q, cat, s.get());
    ASSERT_TRUE(rs.ok() && rl.ok());
    small_work += rs->reuse_candidates_considered;
    large_work += rl->reuse_candidates_considered;
  }
  EXPECT_LE(small_work, large_work);
}

// Every placement the optimizer maps is billed to OptimizeResult::mapping,
// the reuse variants' included. With an unbounded radius there is no sphere
// search, so each mapped service is one index lookup, and the variants'
// services come on top of the enumerated plans'. One candidate plan, so no
// lower bound prunes any of them.
TEST(MultiQueryTest, ReuseVariantsMappingIsBilled) {
  auto s = MakeSbon(6);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  cfg.enumeration.top_k = 1;
  Optimizer mq(WithRadius(cfg, -1.0), Relaxation());
  auto first = mq.Optimize(
      query::QuerySpec::SimpleJoin({0, 1, 2}, s->overlay_nodes()[5], 0.001),
      cat, s.get());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(s->InstallCircuit(std::move(first->circuit)).ok());

  // The same joins for another consumer: every join can reuse.
  const query::QuerySpec q = query::QuerySpec::SimpleJoin(
      {0, 1, 2}, s->overlay_nodes()[40], 0.001);
  auto plans = query::EnumeratePlans(q, cat, cfg.enumeration);
  ASSERT_TRUE(plans.ok());
  size_t plan_services = 0;
  for (query::LogicalPlan& plan : *plans) {
    auto circuit = overlay::Circuit::FromPlan(std::move(plan), cat);
    ASSERT_TRUE(circuit.ok());
    plan_services += circuit->PlaceableVertices().size();
  }
  auto r = mq.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r->placements_evaluated, r->plans_considered);  // variants ran
  EXPECT_GT(r->mapping.services_mapped, plan_services);
  EXPECT_EQ(r->mapping.dht_cost.lookups, r->mapping.services_mapped);
}

// One optimizer instance keeps its sphere marks and scratch across Optimize
// calls, and none of it may leak into an answer: on every query of a
// growing deployment it answers exactly as a fresh instance on the same
// state does.
TEST(MultiQueryTest, LongLivedInstanceMatchesFreshOnes) {
  auto s = MakeSbon(9);
  query::WorkloadParams wp = TestWorkload();
  wp.num_streams = 6;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  const OptimizerConfig cfg;
  // A sphere search that leaves some instances out, so a stale mark would
  // change an answer, yet still reaches reusable ones on this overlay.
  const OptimizerConfig radius_cfg =
      WithRadius(cfg, 0.2 * s->latency().MaxLatency());
  Optimizer kept(radius_cfg, Relaxation());
  size_t reused = 0;
  int i = 0;
  for (const query::QuerySpec& q : test::MakeShareableJoins(*s, 6, 20, 3)) {
    SCOPED_TRACE(i++);
    auto got = kept.Optimize(q, cat, s.get());
    auto want =
        Optimizer(radius_cfg, Relaxation()).Optimize(q, cat, s.get());
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->circuit.NumVertices(), want->circuit.NumVertices());
    for (int v = 0; v < static_cast<int>(got->circuit.NumVertices()); ++v) {
      EXPECT_EQ(got->circuit.vertex(v).host, want->circuit.vertex(v).host);
      EXPECT_EQ(got->circuit.vertex(v).reused, want->circuit.vertex(v).reused);
    }
    EXPECT_EQ(got->estimated_cost, want->estimated_cost);  // bit for bit
    EXPECT_EQ(got->plans_considered, want->plans_considered);
    EXPECT_EQ(got->placements_evaluated, want->placements_evaluated);
    EXPECT_EQ(got->reuse_candidates_considered,
              want->reuse_candidates_considered);
    EXPECT_EQ(got->services_reused, want->services_reused);
    const placement::MappingReport& gm = got->mapping;
    const placement::MappingReport& wm = want->mapping;
    EXPECT_EQ(gm.dht_cost.lookups, wm.dht_cost.lookups);
    EXPECT_EQ(gm.dht_cost.routing_hops, wm.dht_cost.routing_hops);
    EXPECT_EQ(gm.dht_cost.ring_probes, wm.dht_cost.ring_probes);
    EXPECT_EQ(gm.services_mapped, wm.services_mapped);
    EXPECT_EQ(gm.total_mapping_error, wm.total_mapping_error);
    EXPECT_EQ(gm.load_overrides, wm.load_overrides);
    reused += got->services_reused;
    ASSERT_TRUE(s->InstallCircuit(std::move(got->circuit)).ok());
  }
  EXPECT_GT(reused, 0u);  // the sphere marks decided some answers
}

// A relaxation placer that counts its Place calls.
class CountingPlacer : public placement::VirtualPlacer {
 public:
  Status Place(overlay::Circuit* circuit,
               const coords::CostSpace& space) const override {
    ++calls;
    return inner_.Place(circuit, space);
  }
  std::string Name() const override { return "counting"; }

  mutable size_t calls = 0;

 private:
  placement::RelaxationPlacer inner_;
};

TEST(OptimizerTest, NegativeLambdaRejectedBeforeAnyWork) {
  auto s = MakeSbon(3);
  query::Catalog cat = test::TwoStreamCatalog(*s);
  const query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, s->overlay_nodes()[2], 0.01);
  auto placer = std::make_shared<const CountingPlacer>();
  OptimizerConfig cfg;
  cfg.lambda = -0.5;
  Optimizer optimizers[] = {
      TwoStep(cfg, placer),
      Optimizer(test::IntegratedConfig(cfg), placer),
      Optimizer(WithRadius(cfg, -1.0), placer),
  };
  for (size_t i = 0; i < std::size(optimizers); ++i) {
    auto r = optimizers[i].Optimize(q, cat, s.get());
    ASSERT_FALSE(r.ok()) << "optimizer " << i;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "optimizer " << i;
  }
  EXPECT_EQ(placer->calls, 0u);
  // lambda = 0 is valid.
  cfg.lambda = 0.0;
  EXPECT_TRUE(Optimizer(test::IntegratedConfig(cfg), placer)
                  .Optimize(q, cat, s.get())
                  .ok());
  EXPECT_GT(placer->calls, 0u);
}

// --------------------------- Reopt ---------------------------

TEST(ReoptTest, LocalReoptMigratesAwayFromLoadedHost) {
  auto s = MakeSbon(9);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer opt(test::IntegratedConfig(cfg), Relaxation());
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());

  // Saturate every host the circuit's services run on.
  const overlay::Circuit* live = s->ledger().FindCircuit(*id);
  ASSERT_NE(live, nullptr);
  for (int v : live->PlaceableVertices()) {
    s->SetBaseLoad(live->vertex(v).host, 1.0);
  }
  s->RefreshIndex();

  placement::RelaxationPlacer placer;
  ReoptConfig rc;
  rc.migration_hysteresis = 0.02;
  auto report = LocalReoptimize(s.get(), *id, placer, cfg, rc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->migrations, 0u);
  EXPECT_LT(report->estimated_cost_after, report->estimated_cost_before);
}

TEST(ReoptTest, LocalReoptLeavesSharedInstancesInPlace) {
  // A shared instance serves several circuits, so one circuit's local
  // re-optimization must not move it, even when moving it is cheaper for
  // that circuit.
  auto s = MakeSbon(6);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer mq(WithRadius(cfg, -1.0), Relaxation());
  const query::QuerySpec q = query::QuerySpec::SimpleJoin(
      {0, 1, 2}, s->overlay_nodes()[5], 0.001);
  auto first = mq.Optimize(q, cat, s.get());
  ASSERT_TRUE(first.ok());
  auto id = s->InstallCircuit(std::move(first->circuit));
  ASSERT_TRUE(id.ok());
  query::QuerySpec q2 = q;
  q2.consumer = s->overlay_nodes()[40];
  auto second = mq.Optimize(q2, cat, s.get());
  ASSERT_TRUE(second.ok());
  ASSERT_GT(second->services_reused, 0u);
  ASSERT_TRUE(s->InstallCircuit(std::move(second->circuit)).ok());

  // Saturate every host of the first circuit's services.
  const overlay::Circuit* live = s->ledger().FindCircuit(*id);
  ASSERT_NE(live, nullptr);
  std::vector<std::pair<ServiceInstanceId, NodeId>> shared;
  for (int v : live->PlaceableVertices()) {
    const overlay::CircuitVertex& cv = live->vertex(v);
    s->SetBaseLoad(cv.host, 1.0);
    if (s->ledger().FindService(cv.service)->Shared()) {
      shared.emplace_back(cv.service, cv.host);
    }
  }
  ASSERT_FALSE(shared.empty());
  s->RefreshIndex();

  // Re-placing the circuit from scratch would move a shared instance and
  // lower the circuit's cost.
  placement::RelaxationPlacer placer;
  overlay::Circuit scratch = *live;
  std::vector<NodeId> candidates;
  ASSERT_TRUE(PlaceAndMap(&scratch, *s, placer, cfg.mapping, nullptr,
                          &candidates)
                  .ok());
  const auto before = EstimateCost(*live, *s, cfg.lambda);
  const auto moved = EstimateCost(scratch, *s, cfg.lambda);
  ASSERT_TRUE(before.ok() && moved.ok());
  EXPECT_LT(*moved, *before);
  bool shared_would_move = false;
  for (int v : scratch.PlaceableVertices()) {
    const ServiceInstanceId sid = live->vertex(v).service;
    for (const auto& [id_shared, host] : shared) {
      if (sid == id_shared && scratch.vertex(v).host != host) {
        shared_would_move = true;
      }
    }
  }
  ASSERT_TRUE(shared_would_move);

  ReoptConfig rc;
  rc.migration_hysteresis = 0.02;
  auto report = LocalReoptimize(s.get(), *id, placer, cfg, rc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const auto& [sid, host] : shared) {
    EXPECT_EQ(s->ledger().FindService(sid)->host, host)
        << "shared instance " << sid << " migrated";
  }
}

TEST(ReoptTest, LocalReoptNoOpWhenAlreadyGood) {
  auto s = MakeSbon(10);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer opt(test::IntegratedConfig(cfg), Relaxation());
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  placement::RelaxationPlacer placer;
  auto report = LocalReoptimize(s.get(), *id, placer, cfg, ReoptConfig{});
  ASSERT_TRUE(report.ok());
  // Nothing changed since installation: no migrations expected.
  EXPECT_EQ(report->migrations, 0u);
}

// An engine over the overlay MakeSbon(seed) builds, with a random catalog
// and one query drawn from the overlay's Rng, the query submitted with the
// engine's default (integrated) strategy.
struct SubmittedQuery {
  std::unique_ptr<engine::StreamEngine> engine;
  engine::QueryHandle handle;
};

SubmittedQuery SubmitOneQuery(uint64_t seed) {
  engine::EngineOptions eo;
  eo.topology = test::MakeTransitStubTopology(test::TopologySize::kTiny, seed);
  eo.sbon.seed = seed;
  eo.sbon.load_params.sigma = 0.0;
  eo.sbon.load_params.mean = 0.2;
  auto engine = engine::StreamEngine::Create(std::move(eo));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  SubmittedQuery out{std::move(engine.value()), {}};
  Sbon& s = out.engine->sbon();
  query::WorkloadParams wp = TestWorkload();
  out.engine->SetCatalog(
      query::MakeRandomCatalog(wp, s.overlay_nodes(), &s.rng()).value());
  query::QuerySpec q = query::MakeRandomQuery(wp, out.engine->catalog(),
                                              s.overlay_nodes(), &s.rng())
                           .value();
  auto handle = out.engine->Submit(q);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  out.handle = handle.value();
  return out;
}

engine::ReoptPolicy FullReopt(double replan_threshold) {
  engine::ReoptPolicy policy;
  policy.mode = engine::ReoptPolicy::Mode::kFull;
  policy.config.replan_threshold = replan_threshold;
  return policy;
}

TEST(ReoptTest, FullReoptRedeploysUnderDrift) {
  auto [engine, handle] = SubmitOneQuery(11);
  Sbon& s = engine->sbon();
  const CircuitId id = engine->CircuitOf(handle);

  // Overload all current hosts so a fresh optimization finds a much better
  // circuit elsewhere.
  const overlay::Circuit* live = s.ledger().FindCircuit(id);
  for (int v : live->PlaceableVertices()) {
    s.SetBaseLoad(live->vertex(v).host, 1.0);
  }
  s.RefreshIndex();

  auto outcome = engine->Reoptimize(handle, FullReopt(0.05));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const engine::FullReoptReport& report = outcome->full;
  EXPECT_TRUE(report.redeployed);
  EXPECT_EQ(s.ledger().FindCircuit(id), nullptr);
  ASSERT_NE(s.ledger().FindCircuit(report.new_circuit), nullptr);
  EXPECT_EQ(engine->CircuitOf(handle), report.new_circuit);
  EXPECT_LT(report.estimated_cost_candidate, report.estimated_cost_before);
  // The SBON stays consistent: exactly one circuit.
  EXPECT_EQ(s.ledger().circuits().size(), 1u);
}

TEST(ReoptTest, FullReoptKeepsCircuitWhenNoGain) {
  auto [engine, handle] = SubmitOneQuery(12);
  const CircuitId id = engine->CircuitOf(handle);
  auto outcome = engine->Reoptimize(handle, FullReopt(0.15));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->full.redeployed);
  EXPECT_NE(engine->sbon().ledger().FindCircuit(id), nullptr);
  EXPECT_EQ(engine->CircuitOf(handle), id);
  EXPECT_EQ(engine->sbon().ledger().circuits().size(), 1u);
}

TEST(ReoptTest, MissingCircuitRejected) {
  auto s = MakeSbon(13);
  placement::RelaxationPlacer placer;
  EXPECT_FALSE(LocalReoptimize(s.get(), 999, placer, OptimizerConfig{},
                               ReoptConfig{})
                   .ok());
}

// --------------------------- End-to-end ---------------------------

TEST(EndToEndTest, ManyQueriesLifecycle) {
  auto s = MakeSbon(14);
  query::WorkloadParams wp = TestWorkload();
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  OptimizerConfig cfg;
  Optimizer mq(WithRadius(cfg, 80.0), Relaxation());
  std::vector<CircuitId> ids;
  for (int i = 0; i < 12; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto r = mq.Optimize(q, cat, s.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto id = s->InstallCircuit(std::move(r->circuit));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    s->Tick(0.5);
    s->RefreshIndex();
  }
  EXPECT_EQ(s->ledger().circuits().size(), 12u);
  EXPECT_GT(s->TotalNetworkUsage(), 0.0);
  // Tear down every other circuit; the rest must stay consistent.
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(s->RemoveCircuit(ids[i]).ok());
  }
  EXPECT_EQ(s->ledger().circuits().size(), 6u);
  for (size_t i = 1; i < ids.size(); i += 2) {
    auto cost = s->CircuitCostOf(ids[i]);
    ASSERT_TRUE(cost.ok());
    EXPECT_GE(cost->network_usage, 0.0);
  }
  // Remove the rest: SBON drains to empty.
  for (size_t i = 1; i < ids.size(); i += 2) {
    ASSERT_TRUE(s->RemoveCircuit(ids[i]).ok());
  }
  EXPECT_EQ(s->ledger().NumServices(), 0u);
  EXPECT_DOUBLE_EQ(s->TotalNetworkUsage(), 0.0);
}

}  // namespace
}  // namespace sbon::core
