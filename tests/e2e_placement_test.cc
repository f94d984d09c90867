// End-to-end placement regression suite: drives overlay::Sbon through the
// full pipeline (topology -> coordinate embedding -> plan enumeration ->
// virtual placement -> physical mapping -> installation) via the shared
// scenario harness, covering the two-step baseline, the integrated
// optimizer, multi-query reuse, and re-optimization under churn.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness/fixtures.h"
#include "harness/golden.h"
#include "harness/scenario.h"

namespace sbon::test {
namespace {

ScenarioOptions SmallScenario(uint64_t seed) {
  ScenarioOptions o;
  o.size = TopologySize::kSmall;
  o.seed = seed;
  o.sbon.load_params.sigma = 0.0;  // deterministic ambient load
  o.sbon.load_params.mean = 0.2;
  return o;
}

// --------------------- two-step vs integrated ---------------------

TEST(E2ETwoStepVsIntegrated, IntegratedEstimateNeverWorse) {
  ScenarioRunner run(SmallScenario(101));
  run.UseRandomCatalog(TestWorkloadParams(), 7);
  const auto queries =
      MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 6, 11);
  for (const auto& q : queries) {
    auto two = run.OptimizeOnly("two-step", q);
    auto integrated = run.OptimizeOnly("integrated", q);
    ASSERT_TRUE(two.ok()) << two.status().ToString();
    ASSERT_TRUE(integrated.ok()) << integrated.status().ToString();
    // The integrated optimizer places every top-K plan — including the
    // min-volume plan two-step commits to — so its estimate can't be worse.
    EXPECT_LE(integrated->estimated_cost, two->estimated_cost + 1e-9);
    EXPECT_EQ(two->plans_considered, 1u);
    EXPECT_GT(integrated->plans_considered, 0u);
  }
}

TEST(E2ETwoStepVsIntegrated, BothInstallWithValidTrueCost) {
  ScenarioRunner run(SmallScenario(102));
  run.UseRandomCatalog(TestWorkloadParams(), 3);
  const auto queries =
      MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 2, 5);

  auto two = run.PlaceAndInstall("two-step", queries[0]);
  auto integrated = run.PlaceAndInstall("integrated", queries[1]);
  EXPECT_NE(two.circuit_id, kInvalidCircuit);
  EXPECT_NE(integrated.circuit_id, kInvalidCircuit);
  EXPECT_GT(two.true_cost.network_usage, 0.0);
  EXPECT_GT(integrated.true_cost.network_usage, 0.0);
  run.VerifyAllInstalled();
  EXPECT_EQ(run.sbon().ledger().circuits().size(), 2u);
}

// ------------------------- multi-query -------------------------

TEST(E2EMultiQuery, ReusePrunedByRadiusStillInstallable) {
  ScenarioOptions opts = SmallScenario(103);
  opts.config.reuse_radius = -1.0;  // unbounded reuse
  ScenarioRunner run(opts);
  run.UseCatalog(TwoStreamCatalog(run.sbon()));

  const auto& nodes = run.sbon().overlay_nodes();
  query::QuerySpec q =
      query::QuerySpec::SimpleJoin({0, 1}, nodes[4], 0.01);
  auto first = run.PlaceAndInstall("multi-query", q);
  ASSERT_NE(first.circuit_id, kInvalidCircuit);
  EXPECT_EQ(first.services_reused, 0u);  // nothing deployed yet

  // Same join, distant consumer: the join service should be shared, and
  // the reuse-based estimate can't be worse than placing q2 standalone.
  query::QuerySpec q2 = q;
  q2.consumer = nodes[nodes.size() - 1];
  auto standalone = run.OptimizeOnly("integrated", q2);
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();
  auto second = run.PlaceAndInstall("multi-query", q2);
  ASSERT_NE(second.circuit_id, kInvalidCircuit);
  EXPECT_GE(second.services_reused, 1u);
  EXPECT_LE(second.estimated_cost, standalone->estimated_cost + 1e-9);
  run.VerifyAllInstalled();
}

TEST(E2EMultiQuery, SequentialWorkloadReuseReducesServices) {
  // The multi-tenant dashboard pattern: the same continuous queries are
  // subscribed to by several consumers. Install that workload twice — once
  // with reuse disabled, once with unbounded reuse — and require reuse to
  // deploy strictly fewer service instances.
  size_t services_no_reuse = 0;
  size_t services_reuse = 0;
  size_t reused_bindings = 0;
  for (double radius : {0.0, -1.0}) {
    ScenarioOptions opts = SmallScenario(104);
    opts.config.reuse_radius = radius;
    ScenarioRunner run(opts);
    run.UseRandomCatalog(TestWorkloadParams(6), 21);
    const auto& nodes = run.sbon().overlay_nodes();
    const std::vector<query::QuerySpec> base = {
        query::QuerySpec::SimpleJoin({0, 1, 2}, nodes[0], 0.001),
        query::QuerySpec::SimpleJoin({3, 4}, nodes[0], 0.01),
    };
    for (const auto& spec : base) {
      for (size_t c : {size_t{2}, nodes.size() / 2, nodes.size() - 1}) {
        query::QuerySpec q = spec;
        q.consumer = nodes[c];
        auto rec = run.PlaceAndInstall("multi-query", q);
        ASSERT_NE(rec.circuit_id, kInvalidCircuit);
        if (radius < 0) reused_bindings += rec.services_reused;
      }
    }
    run.VerifyAllInstalled();
    (radius == 0.0 ? services_no_reuse : services_reuse) =
        run.sbon().ledger().NumServices();
  }
  EXPECT_GT(reused_bindings, 0u);
  EXPECT_LT(services_reuse, services_no_reuse);
}

// --------------------- re-optimization under churn ---------------------

TEST(E2EChurnReopt, LocalReoptNeverRaisesEstimatedCost) {
  ScenarioOptions opts = SmallScenario(105);
  opts.sbon.latency_jitter_sigma = 0.3;
  opts.sbon.load_params.sigma = 0.2;
  ScenarioRunner run(opts);
  run.UseRandomCatalog(TestWorkloadParams(), 13);
  const auto queries =
      MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 3, 17);
  std::vector<CircuitId> ids;
  for (const auto& q : queries) {
    auto rec = run.PlaceAndInstall("integrated", q);
    ASSERT_NE(rec.circuit_id, kInvalidCircuit);
    ids.push_back(rec.circuit_id);
  }

  core::ReoptConfig cfg;
  for (int epoch = 0; epoch < 3; ++epoch) {
    run.Churn(/*dt=*/1.0, /*vivaldi_samples=*/4);
    for (CircuitId id : ids) {
      auto report = run.LocalReopt(id, cfg);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_LE(report->estimated_cost_after,
                report->estimated_cost_before + 1e-9);
      if (report->migrations == 0) {
        EXPECT_DOUBLE_EQ(report->estimated_cost_after,
                         report->estimated_cost_before);
      }
    }
    run.VerifyAllInstalled();
  }
}

TEST(E2EChurnReopt, FullReoptRedeploysConsistently) {
  ScenarioOptions opts = SmallScenario(106);
  opts.sbon.latency_jitter_sigma = 0.5;
  opts.sbon.load_params.sigma = 0.3;
  ScenarioRunner run(opts);
  run.UseRandomCatalog(TestWorkloadParams(), 19);
  const auto queries =
      MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 2, 23);
  auto rec = run.PlaceAndInstall("integrated", queries[0]);
  ASSERT_NE(rec.circuit_id, kInvalidCircuit);

  core::ReoptConfig cfg;
  cfg.replan_threshold = 0.0;  // redeploy on any improvement
  bool redeployed = false;
  CircuitId live = rec.circuit_id;
  for (int epoch = 0; epoch < 5 && !redeployed; ++epoch) {
    run.Churn(/*dt=*/2.0, /*vivaldi_samples=*/4);
    auto report = run.FullReopt(live, cfg);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->redeployed) {
      redeployed = true;
      EXPECT_NE(report->new_circuit, kInvalidCircuit);
      EXPECT_EQ(run.sbon().ledger().FindCircuit(live), nullptr)
          << "original circuit must be cancelled after redeployment";
      ASSERT_NE(run.sbon().ledger().FindCircuit(report->new_circuit), nullptr);
      live = report->new_circuit;
    } else {
      EXPECT_EQ(run.sbon().ledger().FindCircuit(live) != nullptr, true);
    }
    EXPECT_EQ(run.sbon().ledger().circuits().size(), 1u);
  }
  run.VerifyAllInstalled();
  // Under this much churn a zero-threshold replan fires essentially always;
  // if this starts failing, FullReoptimize stopped finding improvements.
  EXPECT_TRUE(redeployed);
}

// --------------------------- golden pin ---------------------------

// Pins the exact end-to-end placement (hosts, edges, aggregate costs) of a
// fixed-seed scenario. A diff here means placement behavior changed — if
// intentional, regenerate with SBON_UPDATE_GOLDEN=1 and commit.
TEST(E2EGolden, FixedSeedPlacementFingerprint) {
#ifndef SBON_GOLDEN_REFERENCE_TOOLCHAIN
  GTEST_SKIP() << "golden comparison runs only on the reference toolchain "
                  "(gcc, unsanitized); invariants still covered below";
#endif
  ScenarioRunner run(SmallScenario(42));
  run.UseRandomCatalog(TestWorkloadParams(8), 5);
  const auto queries =
      MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(8), 3, 9);
  run.PlaceAndInstall("two-step", queries[0]);
  run.PlaceAndInstall("integrated", queries[1]);
  run.PlaceAndInstall("multi-query", queries[2]);
  run.VerifyAllInstalled();
  EXPECT_EQ("", CheckGolden("e2e_fixed_seed_placement",
                            OverlayFingerprint(run.sbon())));
}

}  // namespace
}  // namespace sbon::test
