// Determinism pins: the same RNG seed must produce bit-identical topology,
// Vivaldi coordinates, workload, and placement decisions across independent
// runs. Reproducibility is what makes every other regression suite (and the
// golden fingerprints) trustworthy.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "coords/vivaldi.h"
#include "harness/fixtures.h"
#include "harness/golden.h"
#include "harness/scenario.h"
#include "net/generators.h"

namespace sbon::test {
namespace {

constexpr uint64_t kSeed = 9001;

TEST(DeterminismTest, RngStreamIsReproducible) {
  Rng a(kSeed), b(kSeed);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  // A different seed must diverge (catches seeds being silently ignored).
  Rng c(kSeed + 1);
  Rng d(kSeed);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) diverged = c.Next() != d.Next();
  EXPECT_TRUE(diverged);
}

TEST(DeterminismTest, TopologyGenerationIsReproducible) {
  Rng ra(kSeed), rb(kSeed);
  auto p = TransitStubParamsFor(TopologySize::kSmall);
  auto ta = net::GenerateTransitStub(p, &ra);
  auto tb = net::GenerateTransitStub(p, &rb);
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_EQ(ta->NumNodes(), tb->NumNodes());
  const net::LatencyMatrix la(*ta), lb(*tb);
  for (NodeId i = 0; i < ta->NumNodes(); ++i) {
    for (NodeId j = 0; j < ta->NumNodes(); ++j) {
      ASSERT_EQ(la.Latency(i, j), lb.Latency(i, j))
          << "latency (" << i << "," << j << ") differs between runs";
    }
  }
}

TEST(DeterminismTest, VivaldiCoordinatesAreBitIdentical) {
  auto sa = MakeTransitStubSbon(TopologySize::kTiny, kSeed);
  auto sb = MakeTransitStubSbon(TopologySize::kTiny, kSeed);
  const auto& ca = sa->cost_space();
  const auto& cb = sb->cost_space();
  ASSERT_EQ(ca.NumNodes(), cb.NumNodes());
  for (NodeId n = 0; n < ca.NumNodes(); ++n) {
    const Vec& va = ca.VectorCoord(n);
    const Vec& vb = cb.VectorCoord(n);
    ASSERT_EQ(va.dims(), vb.dims());
    for (size_t d = 0; d < va.dims(); ++d) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(va[d], vb[d]) << "coord of node " << n << " dim " << d;
    }
  }
}

TEST(DeterminismTest, OnlineCoordinateUpdatesStayInLockstep) {
  auto sa = MakeTransitStubSbon(TopologySize::kTiny, kSeed);
  auto sb = MakeTransitStubSbon(TopologySize::kTiny, kSeed);
  for (int epoch = 0; epoch < 3; ++epoch) {
    sa->TickNetwork();
    sb->TickNetwork();
    sa->UpdateCoordinatesOnline(4);
    sb->UpdateCoordinatesOnline(4);
  }
  for (NodeId n = 0; n < sa->cost_space().NumNodes(); ++n) {
    const Vec& va = sa->cost_space().VectorCoord(n);
    const Vec& vb = sb->cost_space().VectorCoord(n);
    for (size_t d = 0; d < va.dims(); ++d) {
      ASSERT_EQ(va[d], vb[d]) << "post-churn coord of node " << n;
    }
  }
}

TEST(DeterminismTest, GridSbonIsReproducibleAndExact) {
  // Grid fixtures have analytically known shortest paths: on a 3x3 grid
  // with 5 ms links, corner-to-corner is 4 hops = 20 ms.
  auto sa = MakeGridSbon(3, kSeed, 5.0);
  auto sb = MakeGridSbon(3, kSeed, 5.0);
  EXPECT_DOUBLE_EQ(sa->latency().Latency(0, 8), 20.0);
  EXPECT_DOUBLE_EQ(sa->latency().Latency(0, 4), 10.0);
  for (NodeId n = 0; n < sa->cost_space().NumNodes(); ++n) {
    const Vec& va = sa->cost_space().VectorCoord(n);
    const Vec& vb = sb->cost_space().VectorCoord(n);
    for (size_t d = 0; d < va.dims(); ++d) {
      ASSERT_EQ(va[d], vb[d]) << "grid coord of node " << n;
    }
  }
}

TEST(DeterminismTest, WorkloadGenerationIsReproducible) {
  auto s = MakeTransitStubSbon(TopologySize::kTiny, kSeed);
  const auto wp = TestWorkloadParams();
  auto ca = MakeCatalog(*s, wp, 5);
  auto cb = MakeCatalog(*s, wp, 5);
  ASSERT_EQ(ca.NumStreams(), cb.NumStreams());
  for (StreamId i = 0; i < ca.NumStreams(); ++i) {
    EXPECT_EQ(ca.stream(i).producer, cb.stream(i).producer);
    EXPECT_EQ(ca.stream(i).tuple_rate_per_s, cb.stream(i).tuple_rate_per_s);
    EXPECT_EQ(ca.stream(i).tuple_size_bytes, cb.stream(i).tuple_size_bytes);
  }
  auto qa = MakeQueries(*s, ca, wp, 4, 7);
  auto qb = MakeQueries(*s, cb, wp, 4, 7);
  ASSERT_EQ(qa.size(), qb.size());
  for (size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].consumer, qb[i].consumer);
    EXPECT_EQ(qa[i].streams, qb[i].streams);
    EXPECT_EQ(qa[i].filter_sel, qb[i].filter_sel);
    EXPECT_EQ(qa[i].join_sel, qb[i].join_sel);
    EXPECT_EQ(qa[i].aggregate_factor, qb[i].aggregate_factor);
  }
}

// The churn subsystem must be provably zero-cost when disabled: an engine
// run with no churn attached and one with a zero-rate ChurnModel attached
// must stay bit-identical to each other across epochs — the model draws
// from its own Rng (and not at all when every rate is zero), so the
// pre-churn goldens and every fixed-seed regression remain valid.
TEST(DeterminismTest, ChurnFreeAdvanceEpochIsBitIdenticalWithModelAttached) {
  std::vector<std::string> fingerprints;
  for (int variant = 0; variant < 2; ++variant) {
    ScenarioOptions o;
    o.size = TopologySize::kTiny;
    o.seed = kSeed;
    o.sbon.latency_jitter_sigma = 0.1;
    ScenarioRunner run(o);
    run.UseRandomCatalog(TestWorkloadParams(), 3);
    const auto queries =
        MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 3, 11);
    for (const auto& q : queries) {
      run.PlaceAndInstall("integrated", q);
    }
    net::ChurnModel churn(run.sbon().overlay_nodes(),
                          net::ChurnModel::Params{});  // all rates zero
    engine::EpochOptions epoch;
    epoch.dt = 1.0;
    epoch.vivaldi_samples = 2;
    epoch.churn = variant == 1 ? &churn : nullptr;
    for (int e = 0; e < 4; ++e) run.engine().AdvanceEpoch(epoch);
    EXPECT_EQ(run.engine().repair_stats().crashes, 0u);
    fingerprints.push_back(OverlayFingerprint(run.sbon()));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

// The epoch pipeline replays bit-identically: two runs of the same seed in
// one process end with the same coordinates and placements. Static or
// thread_local state that leaks from one run into the next fails here.
TEST(DeterminismTest, EpochPipelineReplaysBitIdentically) {
  for (uint64_t seed : {3u, 7u, 23u, 101u, 9001u}) {
    std::vector<std::string> fingerprints;
    std::vector<std::vector<double>> coord_dumps;
    for (int replica = 0; replica < 2; ++replica) {
      ScenarioOptions o;
      o.size = TopologySize::kTiny;
      o.seed = seed;
      o.sbon.latency_jitter_sigma = 0.15;
      ScenarioRunner run(o);
      run.UseRandomCatalog(TestWorkloadParams(), 3);
      const auto queries =
          MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 3, 11);
      for (const auto& q : queries) {
        run.PlaceAndInstall("integrated", q);
      }
      engine::EpochOptions epoch;
      epoch.dt = 1.0;
      epoch.vivaldi_samples = 3;
      epoch.refresh_epsilon = 0.5;
      for (int e = 0; e < 4; ++e) run.engine().AdvanceEpoch(epoch);
      fingerprints.push_back(OverlayFingerprint(run.sbon()));
      std::vector<double> coords;
      const auto& space = run.sbon().cost_space();
      for (NodeId n = 0; n < space.NumNodes(); ++n) {
        const Vec& v = space.VectorCoord(n);
        for (size_t d = 0; d < v.dims(); ++d) coords.push_back(v[d]);
        coords.push_back(space.ScalarPenalty(n));
      }
      coord_dumps.push_back(std::move(coords));
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << "seed " << seed;
    ASSERT_EQ(coord_dumps[0].size(), coord_dumps[1].size());
    for (size_t i = 0; i < coord_dumps[0].size(); ++i) {
      // Bit-identical, not approximately equal.
      ASSERT_EQ(coord_dumps[0][i], coord_dumps[1][i])
          << "seed " << seed << " coord component " << i;
    }
  }
}

// Same seed => the full end-to-end pipeline (embedding + enumeration +
// placement + mapping + installation) lands every service on the same host
// and produces an identical overlay fingerprint.
TEST(DeterminismTest, EndToEndPlacementIsBitIdentical) {
  std::vector<std::string> fingerprints;
  for (int replica = 0; replica < 2; ++replica) {
    ScenarioOptions o;
    o.size = TopologySize::kTiny;
    o.seed = kSeed;
    ScenarioRunner run(o);
    run.UseRandomCatalog(TestWorkloadParams(), 3);
    const auto queries =
        MakeQueries(run.sbon(), run.catalog(), TestWorkloadParams(), 3, 11);
    for (const auto& q : queries) {
      auto rec = run.PlaceAndInstall("integrated", q);
      ASSERT_NE(rec.circuit_id, kInvalidCircuit);
    }
    fingerprints.push_back(OverlayFingerprint(run.sbon()));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace sbon::test
