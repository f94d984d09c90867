// Stress sweep (ctest label `stress`): the randomized scenario matrix at
// N=256 — the acceptance harness for the churn & failure-injection
// subsystem, and the template for future stress suites.
//
// Ten seeds rotate through {churn rate x jitter x hotspot fraction x
// optimizer strategy}; every cell runs a full engine lifecycle with a
// seeded ChurnModel (crashes + rejoins, some cells with partitions) and is
// replayed to pin bit-identical determinism. Invariants checked per epoch:
// no orphaned service instances, balanced load books (and zero after full
// removal), handle-stable repairs.
#include <gtest/gtest.h>

#include <cstdio>

#include "harness/scenario_matrix.h"

namespace sbon::test {
namespace {

// The acceptance sweep: 10 seeds at N=256 with crashes and rejoins.
TEST(StressMatrixTest, TenSeedMediumSweepWithCrashesAndRejoins) {
  MatrixOptions options;
  options.size = TopologySize::kMedium;  // 256 nodes
  options.queries = 10;
  options.epochs = 8;
  options.churn.mean_downtime_epochs = 2.0;  // rejoins fire within the run
  ScenarioMatrix matrix(options);

  const auto cells = ScenarioMatrix::Rotation(
      /*churn_rates=*/{1.5, 3.0},
      /*jitter_sigmas=*/{0.0, 0.1},
      /*hotspot_fracs=*/{0.0, 0.2},
      /*optimizers=*/{"integrated", "two-step", "multi-query"},
      /*seeds=*/{101, 102, 103, 104, 105, 106, 107, 108, 109, 110});
  ASSERT_EQ(cells.size(), 10u);

  const auto outcomes = matrix.Run(cells);
  size_t crashes = 0, rejoins = 0, repaired = 0;
  for (const auto& o : outcomes) {
    crashes += o.repair.crashes;
    rejoins += o.repair.rejoins;
    repaired += o.repair.queries_repaired;
    std::printf("[cell] %-52s crashes=%zu rejoins=%zu repaired=%zu "
                "dropped=%zu alive=%zu/%zu\n",
                CellName(o.cell).c_str(), o.repair.crashes, o.repair.rejoins,
                o.repair.queries_repaired, o.repair.queries_dropped,
                o.queries_alive, o.queries_submitted);
  }
  // The sweep must actually exercise the failure path on this schedule —
  // a silent no-churn run would vacuously pass every invariant.
  EXPECT_GT(crashes, 50u);
  EXPECT_GT(rejoins, 25u);
  EXPECT_GE(repaired, 5u);
}

// Partition coverage at a smaller size: soft cuts start and heal while
// crashes fire, under jitter, with full replay checking.
TEST(StressMatrixTest, PartitionsUnderChurnHoldInvariants) {
  MatrixOptions options;
  options.size = TopologySize::kSmall;
  options.queries = 5;
  options.epochs = 8;
  options.churn.mean_downtime_epochs = 2.0;
  options.churn.partition_rate = 0.4;
  options.churn.partition_duration_epochs = 2;
  options.churn.partition_frac = 0.25;
  ScenarioMatrix matrix(options);

  const auto outcomes = matrix.Run(ScenarioMatrix::Rotation(
      {0.5}, {0.1}, {0.2},
      {"integrated", "multi-query"},
      {201, 202, 203, 204}));
  size_t partitions = 0, heals = 0;
  for (const auto& o : outcomes) {
    partitions += o.repair.partitions;
    heals += o.repair.heals;
  }
  EXPECT_GT(partitions, 0u);
  EXPECT_GT(heals, 0u);
}

// Open-loop workload composed with churn: Poisson arrivals, exponential
// departures, a flash crowd overrunning the admission cap, and crashes all
// at once — the invariants and the replay fingerprint (which now folds in
// the full arrival/shed/departure history) must hold under the composition.
TEST(StressMatrixTest, WorkloadFlashCrowdUnderChurnHoldsInvariants) {
  MatrixOptions options;
  options.size = TopologySize::kSmall;
  options.queries = 0;  // population comes from the arrival process
  options.epochs = 16;
  options.churn.mean_downtime_epochs = 2.0;
  options.workload.enabled = true;
  options.workload.arrivals.base_rate_per_epoch = 2.0;
  options.workload.arrivals.mean_lifetime_epochs = 5.0;
  engine::FlashCrowd crowd;
  crowd.start_epoch = 6;
  crowd.duration_epochs = 5;
  crowd.rate_multiplier = 8.0;
  crowd.hotspot_site_frac = 0.1;
  options.workload.arrivals.flash_crowds.push_back(crowd);
  options.workload.admission.max_running_queries = 12;
  ScenarioMatrix matrix(options);

  const auto outcomes = matrix.Run(ScenarioMatrix::Rotation(
      {0.5, 1.0}, {0.0, 0.1}, {0.0, 0.2},
      {"integrated", "multi-query"},
      {401, 402, 403, 404}));
  size_t submitted = 0, crashes = 0;
  for (const auto& o : outcomes) {
    submitted += o.queries_submitted;
    crashes += o.repair.crashes;
    std::printf("[cell] %-52s submitted=%zu alive=%zu crashes=%zu "
                "repaired=%zu dropped=%zu\n",
                CellName(o.cell).c_str(), o.queries_submitted,
                o.queries_alive, o.repair.crashes, o.repair.queries_repaired,
                o.repair.queries_dropped);
  }
  // The composition must actually fire both stressors.
  EXPECT_GT(submitted, 40u);
  EXPECT_GT(crashes, 10u);
}

// Sustained-churn soak on one seed: a longer horizon with aggressive rates
// verifies the repair path does not degrade state over many epochs.
TEST(StressMatrixTest, LongHorizonSoakStaysConsistent) {
  MatrixOptions options;
  options.size = TopologySize::kSmall;
  options.queries = 6;
  options.epochs = 24;
  options.churn.mean_downtime_epochs = 3.0;
  options.check_replay = false;  // horizon is the point; replay covered above
  ScenarioMatrix matrix(options);
  const auto outcome = matrix.RunCell(
      {/*churn_rate=*/2.0, /*jitter_sigma=*/0.1, /*hotspot_frac=*/0.3,
       "integrated", /*seed=*/301});
  EXPECT_GT(outcome.repair.crashes, 20u);
  EXPECT_GT(outcome.repair.rejoins, 10u);
}

}  // namespace
}  // namespace sbon::test
