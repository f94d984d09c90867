// Integration tests for the dynamic-network path: latency jitter epochs,
// online Vivaldi maintenance, and re-optimization reacting to drift.

#include <gtest/gtest.h>

#include <memory>

#include "coords/mds.h"
#include "core/optimizer.h"
#include "core/reopt.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "net/generators.h"
#include "overlay/sbon.h"
#include "query/workload.h"

namespace sbon::overlay {
namespace {

// A jittery transit-stub overlay's topology and options.
engine::EngineOptions JitteryOptions(uint64_t seed, double sigma) {
  Rng rng(seed);
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 6;
  auto topo = net::GenerateTransitStub(p, &rng);
  EXPECT_TRUE(topo.ok());
  engine::EngineOptions eo;
  eo.topology = std::move(topo.value());
  eo.sbon.seed = seed;
  eo.sbon.latency_jitter_sigma = sigma;
  eo.sbon.load_params.sigma = 0.0;
  return eo;
}

std::unique_ptr<Sbon> JitterySbon(uint64_t seed, double sigma) {
  engine::EngineOptions eo = JitteryOptions(seed, sigma);
  auto s = Sbon::Create(std::move(eo.topology), eo.sbon);
  EXPECT_TRUE(s.ok());
  return std::move(s.value());
}

TEST(DynamicsTest, NoJitterMeansStaticLatencies) {
  auto s = JitterySbon(1, 0.0);
  const double before = s->latency().Latency(3, 40);
  s->TickNetwork();
  EXPECT_DOUBLE_EQ(s->latency().Latency(3, 40), before);
}

TEST(DynamicsTest, JitterEpochChangesLatencies) {
  auto s = JitterySbon(2, 0.3);
  const double base = s->base_latency().Latency(3, 40);
  s->TickNetwork();
  const double jittered = s->latency().Latency(3, 40);
  EXPECT_NE(jittered, base);
  EXPECT_GT(jittered, 0.0);
  // Base matrix stays pristine.
  EXPECT_DOUBLE_EQ(s->base_latency().Latency(3, 40), base);
  // Symmetry is preserved.
  EXPECT_DOUBLE_EQ(s->latency().Latency(3, 40), s->latency().Latency(40, 3));
}

TEST(DynamicsTest, EpochsAreIndependent) {
  auto s = JitterySbon(3, 0.3);
  s->TickNetwork();
  const double first = s->latency().Latency(5, 50);
  s->TickNetwork();
  EXPECT_NE(s->latency().Latency(5, 50), first);
}

TEST(DynamicsTest, JitterIsMultiplicativeAndBounded) {
  auto s = JitterySbon(4, 0.2);
  s->TickNetwork();
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = a + 1; b < 20; ++b) {
      const double base = s->base_latency().Latency(a, b);
      const double jit = s->latency().Latency(a, b);
      // LogNormal(0, 0.2): factors essentially never exceed e^{±5 sigma}.
      EXPECT_GT(jit, base * 0.3);
      EXPECT_LT(jit, base * 3.5);
    }
  }
}

TEST(DynamicsTest, OnlineVivaldiTracksCoherentDrift) {
  // Independent per-pair jitter is non-metric noise that no embedding can
  // fit; online tracking is about *coherent* drift. Double every latency
  // and check that incremental updates re-converge the coordinates.
  Rng trng(5);
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 6;
  auto topo = net::GenerateTransitStub(p, &trng);
  ASSERT_TRUE(topo.ok());
  net::LatencyMatrix lat(*topo);
  Rng rng(55);
  coords::VivaldiSystem sys = coords::RunVivaldi(
      lat, coords::VivaldiSystem::Params{}, coords::VivaldiRunOptions{},
      &rng);
  // Coherent drift: the whole network slows down 2x.
  const size_t n = lat.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      lat.Set(a, b, lat.Latency(a, b) * 2.0);
    }
  }
  auto median_err = [&]() {
    std::vector<Vec> coords;
    for (NodeId i = 0; i < n; ++i) coords.push_back(sys.Coord(i));
    return coords::EvaluateEmbedding(lat, coords).median_relative_error;
  };
  const double stale = median_err();
  for (int round = 0; round < 60; ++round) {
    for (NodeId self = 0; self < n; ++self) {
      for (int k = 0; k < 4; ++k) {
        NodeId peer;
        do {
          peer = static_cast<NodeId>(rng.UniformInt(n));
        } while (peer == self);
        sys.Update(self, peer, lat.Latency(self, peer));
      }
    }
  }
  const double refreshed = median_err();
  EXPECT_LT(refreshed, stale * 0.5);
  EXPECT_LT(refreshed, 0.35);
}

TEST(DynamicsTest, OnlineUpdateKeepsEmbeddingBoundedUnderJitter) {
  // Under iid pair jitter the embedding cannot improve much, but online
  // maintenance must not blow it up either.
  auto s = JitterySbon(5, 0.35);
  auto median_err = [&]() {
    std::vector<Vec> coords;
    for (NodeId n = 0; n < s->topology().NumNodes(); ++n) {
      coords.push_back(s->cost_space().VectorCoord(n));
    }
    return coords::EvaluateEmbedding(s->latency(), coords)
        .median_relative_error;
  };
  s->TickNetwork();
  const double stale = median_err();
  for (int round = 0; round < 20; ++round) {
    s->UpdateCoordinatesOnline(8);
  }
  const double refreshed = median_err();
  EXPECT_LT(refreshed, stale * 1.25);
  EXPECT_LT(refreshed, 0.6);
}

TEST(DynamicsTest, OnlineUpdateNoOpForMds) {
  Rng rng(6);
  auto topo = net::GenerateLine(8, 10.0);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());
  const Vec before = (*s)->cost_space().VectorCoord(3);
  (*s)->UpdateCoordinatesOnline(4);  // must not crash or move coords
  EXPECT_EQ((*s)->cost_space().VectorCoord(3), before);
}

TEST(DynamicsTest, CircuitCostTracksLatencyEpoch) {
  auto s = JitterySbon(7, 0.5);
  query::WorkloadParams wp;
  wp.num_streams = 8;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  query::QuerySpec q =
      query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
  auto r = opt.Optimize(q, cat, s.get());
  ASSERT_TRUE(r.ok());
  auto id = s->InstallCircuit(std::move(r->circuit));
  ASSERT_TRUE(id.ok());
  auto before = s->CircuitCostOf(*id);
  ASSERT_TRUE(before.ok());
  s->TickNetwork();
  auto after = s->CircuitCostOf(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->network_usage, before->network_usage);
}

TEST(DynamicsTest, FullReoptRespondsToLatencyDrift) {
  // Under repeated adverse epochs, a full re-optimization should (at least
  // sometimes) find and deploy a cheaper parallel circuit. We assert the
  // mechanics stay consistent and that redeployment is possible.
  engine::EngineOptions eo = JitteryOptions(8, 0.6);
  eo.config = test::IntegratedConfig();
  auto created = engine::StreamEngine::Create(std::move(eo));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  engine::StreamEngine& engine = **created;
  Sbon& s = engine.sbon();
  query::WorkloadParams wp;
  wp.num_streams = 8;
  engine.SetCatalog(
      query::MakeRandomCatalog(wp, s.overlay_nodes(), &s.rng()).value());
  query::QuerySpec q =
      query::MakeRandomQuery(wp, engine.catalog(), s.overlay_nodes(), &s.rng())
          .value();
  auto handle = engine.Submit(q);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  engine::ReoptPolicy full;
  full.mode = engine::ReoptPolicy::Mode::kFull;
  full.config.replan_threshold = 0.10;
  size_t redeploys = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    s.TickNetwork();
    for (int i = 0; i < 5; ++i) s.UpdateCoordinatesOnline(4);
    s.RefreshIndex();
    auto rep = engine.Reoptimize(*handle, full);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (rep->full.redeployed) ++redeploys;
    EXPECT_EQ(s.ledger().circuits().size(), 1u);
  }
  EXPECT_GT(redeploys, 0u);
  EXPECT_NE(s.ledger().FindCircuit(engine.CircuitOf(*handle)), nullptr);
}

TEST(DynamicsTest, LocalReoptUnderCombinedDynamics) {
  auto s = JitterySbon(9, 0.4);
  query::WorkloadParams wp;
  wp.num_streams = 8;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, s->overlay_nodes(), &s->rng()).value();
  core::Optimizer opt(
      test::IntegratedConfig(),
      std::make_shared<placement::RelaxationPlacer>());
  std::vector<CircuitId> ids;
  for (int i = 0; i < 4; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, s->overlay_nodes(), &s->rng()).value();
    auto r = opt.Optimize(q, cat, s.get());
    ASSERT_TRUE(r.ok());
    auto id = s->InstallCircuit(std::move(r->circuit));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  placement::RelaxationPlacer placer;
  for (int epoch = 0; epoch < 6; ++epoch) {
    s->TickNetwork();
    s->Tick(1.0);
    s->UpdateCoordinatesOnline(4);
    s->RefreshIndex();
    for (CircuitId id : ids) {
      auto rep = core::LocalReoptimize(s.get(), id, placer,
                                       core::OptimizerConfig{},
                                       core::ReoptConfig{});
      ASSERT_TRUE(rep.ok());
      // Migration must never make the estimate worse than doing nothing.
      EXPECT_LE(rep->estimated_cost_after,
                rep->estimated_cost_before * 1.0001);
    }
  }
  for (CircuitId id : ids) {
    ASSERT_TRUE(s->RemoveCircuit(id).ok());
  }
  EXPECT_EQ(s->ledger().NumServices(), 0u);
}

}  // namespace
}  // namespace sbon::overlay
