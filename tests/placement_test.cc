#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "net/generators.h"
#include "overlay/metrics.h"
#include "overlay/sbon.h"
#include "placement/baselines.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"
#include "query/workload.h"

namespace sbon::placement {
namespace {

using overlay::Circuit;
using overlay::Sbon;

query::Catalog TwoStreamCatalog(NodeId p0, NodeId p1, double r0 = 100.0,
                                double r1 = 10.0) {
  query::Catalog c;
  c.AddStream("a", r0, 64.0, p0);
  c.AddStream("b", r1, 64.0, p1);
  return c;
}

query::LogicalPlan JoinPlan(const query::Catalog& c, NodeId consumer,
                            double sel = 0.001) {
  query::LogicalPlan p;
  const int a = p.AddProducer(0);
  const int b = p.AddProducer(1);
  p.SetConsumer(p.AddJoin(a, b, sel), consumer);
  EXPECT_TRUE(p.AnnotateRates(c).ok());
  return p;
}

std::unique_ptr<Sbon> LineSbon(size_t n = 11, uint64_t seed = 1) {
  auto topo = net::GenerateLine(n, 10.0);
  EXPECT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.seed = seed;
  opts.coord_mode = coords::CoordMode::kMds;  // near-exact coords on a line
  opts.load_params.sigma = 0.0;
  opts.load_params.mean = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  EXPECT_TRUE(s.ok());
  return std::move(s.value());
}

// --------------------------- Relaxation ---------------------------

TEST(RelaxationTest, TwoPinSegmentClosedForm) {
  // One service between two pinned endpoints with edge rates r0 and r1:
  // the spring equilibrium is the rate-weighted average of the endpoints.
  auto s = LineSbon();
  // Heavy producer at node 0 (rate 100), light at node 10 (rate 10),
  // consumer also at node 10 so the service is pulled toward node 0.
  query::Catalog c = TwoStreamCatalog(0, 10);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
  ASSERT_TRUE(circuit.ok());
  RelaxationPlacer placer;
  ASSERT_TRUE(placer.Place(&circuit.value(), s->cost_space()).ok());

  const Vec got = circuit->vertex(2).virtual_coord;
  // Closed form: (r0*x0 + r1*x1 + rout*xc) / (r0 + r1 + rout).
  const Vec x0 = s->cost_space().VectorCoord(0);
  const Vec x1 = s->cost_space().VectorCoord(10);
  const double r0 = circuit->edges()[0].rate_bytes_per_s;
  const double r1 = circuit->edges()[1].rate_bytes_per_s;
  const double rout = circuit->edges()[2].rate_bytes_per_s;
  const Vec want = (x0 * r0 + x1 * r1 + x1 * rout) / (r0 + r1 + rout);
  EXPECT_NEAR(got.DistanceTo(want), 0.0, 1e-3);
}

TEST(RelaxationTest, HeavySourceAttractsService) {
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10, /*r0=*/1000.0, /*r1=*/1.0);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
  ASSERT_TRUE(circuit.ok());
  RelaxationPlacer placer;
  ASSERT_TRUE(placer.Place(&circuit.value(), s->cost_space()).ok());
  const Vec v = circuit->vertex(2).virtual_coord;
  // Service should sit much closer to producer 0 than to node 10.
  EXPECT_LT(v.DistanceTo(s->cost_space().VectorCoord(0)),
            0.2 * v.DistanceTo(s->cost_space().VectorCoord(10)));
}

TEST(RelaxationTest, NoPlaceableVerticesIsNoOp) {
  auto s = LineSbon();
  query::Catalog c;
  c.AddStream("a", 10.0, 64.0, 0);
  query::LogicalPlan p;
  p.SetConsumer(p.AddProducer(0), 10);
  ASSERT_TRUE(p.AnnotateRates(c).ok());
  auto circuit = Circuit::FromPlan(p, c);
  ASSERT_TRUE(circuit.ok());
  RelaxationPlacer placer;
  EXPECT_TRUE(placer.Place(&circuit.value(), s->cost_space()).ok());
}

TEST(RelaxationTest, ReducesQuadraticCostVsCentroid) {
  // On random topologies with multi-join circuits, relaxation must beat (or
  // match) the structure-blind centroid on the spring objective.
  Rng rng(5);
  auto topo = net::GenerateWaxman(net::WaxmanParams{}, &rng);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  opts.load_params.sigma = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());

  query::WorkloadParams wp;
  wp.num_streams = 12;
  wp.min_streams_per_query = 4;
  wp.max_streams_per_query = 5;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, (*s)->overlay_nodes(), &(*s)->rng())
          .value();
  for (int rep = 0; rep < 10; ++rep) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, (*s)->overlay_nodes(), &(*s)->rng())
            .value();
    auto plans = query::EnumeratePlans(q, cat, query::EnumerationOptions{});
    ASSERT_TRUE(plans.ok());
    auto c1 = Circuit::FromPlan((*plans)[0], cat);
    auto c2 = Circuit::FromPlan((*plans)[0], cat);
    ASSERT_TRUE(c1.ok() && c2.ok());
    ASSERT_TRUE(RelaxationPlacer().Place(&c1.value(), (*s)->cost_space()).ok());
    ASSERT_TRUE(CentroidPlacer().Place(&c2.value(), (*s)->cost_space()).ok());
    EXPECT_LE(VirtualQuadraticCost(*c1, (*s)->cost_space()),
              VirtualQuadraticCost(*c2, (*s)->cost_space()) + 1e-6);
  }
}

TEST(GradientTest, BeatsRelaxationOnLinearObjective) {
  // The Weiszfeld placer optimizes sum(rate*dist) directly; over many random
  // circuits it must win (or tie) on that objective vs the spring placer.
  Rng rng(7);
  auto topo = net::GenerateWaxman(net::WaxmanParams{}, &rng);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  opts.load_params.sigma = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());

  query::WorkloadParams wp;
  wp.num_streams = 12;
  wp.min_streams_per_query = 3;
  wp.max_streams_per_query = 5;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, (*s)->overlay_nodes(), &(*s)->rng())
          .value();
  int gradient_wins = 0, total = 0;
  for (int rep = 0; rep < 20; ++rep) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, (*s)->overlay_nodes(), &(*s)->rng())
            .value();
    auto plans = query::EnumeratePlans(q, cat, query::EnumerationOptions{});
    ASSERT_TRUE(plans.ok());
    auto cg = Circuit::FromPlan((*plans)[0], cat);
    auto cr = Circuit::FromPlan((*plans)[0], cat);
    ASSERT_TRUE(cg.ok() && cr.ok());
    ASSERT_TRUE(GradientPlacer().Place(&cg.value(), (*s)->cost_space()).ok());
    ASSERT_TRUE(
        RelaxationPlacer().Place(&cr.value(), (*s)->cost_space()).ok());
    const double lg = VirtualLinearCost(*cg, (*s)->cost_space());
    const double lr = VirtualLinearCost(*cr, (*s)->cost_space());
    // Gradient seeds from the relaxation solution and is monotone on the
    // linear objective, so it can never do worse.
    EXPECT_LE(lg, lr * (1.0 + 1e-9));
    if (lg <= lr * 1.001) ++gradient_wins;
    ++total;
  }
  EXPECT_EQ(gradient_wins, total);
}

// --------------------------- Mapping ---------------------------

TEST(MappingTest, MapsToNearestNodeOnLine) {
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10, 100.0, 100.0);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
  ASSERT_TRUE(circuit.ok());
  ASSERT_TRUE(RelaxationPlacer().Place(&circuit.value(),
                                       s->cost_space()).ok());
  MappingReport report;
  ASSERT_TRUE(
      MapCircuit(&circuit.value(), *s, MappingOptions{}, &report).ok());
  EXPECT_TRUE(circuit->FullyPlaced());
  EXPECT_EQ(report.services_mapped, 1u);
  EXPECT_GT(report.dht_cost.lookups, 0u);
  // Mapping error should be within a couple of hops on a 10ms-link line.
  EXPECT_LT(report.MeanMappingError(), 25.0);
}

TEST(MappingTest, LoadAwareAvoidsOverloadedNearest) {
  // Figure 3 scenario: the vector-nearest node N1 is overloaded; the
  // load-aware mapper must pick a lightly loaded alternative instead.
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10, 100.0, 100.0);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
  ASSERT_TRUE(circuit.ok());
  ASSERT_TRUE(
      RelaxationPlacer().Place(&circuit.value(), s->cost_space()).ok());

  // Find the vector-nearest node to the virtual coordinate and overload it.
  MappingOptions blind;
  blind.load_aware = false;
  Circuit blind_circuit = circuit.value();
  ASSERT_TRUE(MapCircuit(&blind_circuit, *s, blind, nullptr).ok());
  const NodeId n1 = blind_circuit.vertex(2).host;
  s->SetBaseLoad(n1, 1.0);
  s->RefreshIndex();

  MappingReport report;
  MappingOptions aware;
  aware.load_aware = true;
  ASSERT_TRUE(MapCircuit(&circuit.value(), *s, aware, &report).ok());
  // The overloaded node is avoided — either outranked among the fetched
  // candidates (counted as an override) or pushed out of the candidate set
  // entirely by its huge scalar coordinate. Both are the Figure 3 effect.
  EXPECT_NE(circuit->vertex(2).host, n1);
}

TEST(MappingTest, ExactOracleNoWorseThanProbed) {
  Rng rng(11);
  auto topo = net::GenerateWaxman(net::WaxmanParams{}, &rng);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  opts.load_params.sigma = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());
  query::Catalog c = TwoStreamCatalog(3, 60, 50.0, 50.0);
  for (int rep = 0; rep < 10; ++rep) {
    auto probed = Circuit::FromPlan(JoinPlan(c, 80), c);
    auto exact = Circuit::FromPlan(JoinPlan(c, 80), c);
    ASSERT_TRUE(probed.ok() && exact.ok());
    ASSERT_TRUE(
        RelaxationPlacer().Place(&probed.value(), (*s)->cost_space()).ok());
    ASSERT_TRUE(
        RelaxationPlacer().Place(&exact.value(), (*s)->cost_space()).ok());
    MappingReport rp, re;
    ASSERT_TRUE(MapCircuit(&probed.value(), **s, MappingOptions{}, &rp).ok());
    ASSERT_TRUE(
        MapCircuitExact(&exact.value(), **s, MappingOptions{}, &re).ok());
    EXPECT_LE(re.total_mapping_error, rp.total_mapping_error + 1e-9);
  }
}

TEST(MappingTest, FailsOnUnplacedVirtualCoords) {
  // Mapping a circuit whose virtual coords were never set still succeeds
  // formally (coords default to origin) — but a circuit with an empty index
  // must fail.
  auto topo = net::GenerateLine(3, 1.0);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.load_params.sigma = 0.0;
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());
  // Withdraw everything from the index.
  // (No public withdraw-all; simulate by querying an empty fresh index.)
  dht::CoordinateIndex empty(dht::HilbertQuantizer({0.0, 0.0, 0.0},
                                                   {1.0, 1.0, 1.0}, 4));
  std::vector<NodeId> nodes;
  EXPECT_FALSE(
      empty.KNearestNodesInto(Vec{0.5, 0.5, 0.5}, 1, 16, nullptr, &nodes)
          .ok());
}

// --------------------------- Baselines ---------------------------

TEST(BaselinesTest, ConsumerPlacerPinsToConsumer) {
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 7), c);
  ASSERT_TRUE(circuit.ok());
  ConsumerPlacer placer;
  ASSERT_TRUE(placer.Place(&circuit.value(), *s).ok());
  EXPECT_EQ(circuit->vertex(2).host, 7u);
  EXPECT_TRUE(circuit->FullyPlaced());
}

TEST(BaselinesTest, ProducerPlacerFollowsHeavyChild) {
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10, /*r0=*/1000.0, /*r1=*/1.0);
  auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
  ASSERT_TRUE(circuit.ok());
  ProducerPlacer placer;
  ASSERT_TRUE(placer.Place(&circuit.value(), *s).ok());
  EXPECT_EQ(circuit->vertex(2).host, 0u);  // heavy producer's node
}

TEST(BaselinesTest, RandomPlacerUsesOverlayNodes) {
  auto s = LineSbon();
  query::Catalog c = TwoStreamCatalog(0, 10);
  RandomPlacer placer(99);
  for (int rep = 0; rep < 20; ++rep) {
    auto circuit = Circuit::FromPlan(JoinPlan(c, 10), c);
    ASSERT_TRUE(circuit.ok());
    ASSERT_TRUE(placer.Place(&circuit.value(), *s).ok());
    EXPECT_LT(circuit->vertex(2).host, 11u);
  }
}

TEST(BaselinesTest, OracleRefusesTooManyServices) {
  auto s = LineSbon();
  query::Catalog c;
  c.AddStream("a", 10, 64, 0);
  c.AddStream("b", 10, 64, 1);
  c.AddStream("c", 10, 64, 2);
  c.AddStream("d", 10, 64, 3);
  c.AddStream("e", 10, 64, 4);
  query::QuerySpec q = query::QuerySpec::SimpleJoin({0, 1, 2, 3, 4}, 10,
                                                    0.01);
  auto plans = query::EnumeratePlans(q, c, query::EnumerationOptions{});
  ASSERT_TRUE(plans.ok());
  auto circuit = Circuit::FromPlan((*plans)[0], c);
  ASSERT_TRUE(circuit.ok());
  ExhaustiveOraclePlacer::Params params;
  params.max_services = 3;
  ExhaustiveOraclePlacer oracle(params);
  EXPECT_FALSE(oracle.Place(&circuit.value(), *s).ok());
}

// Invariant 4: the oracle's cost lower-bounds every heuristic (property).
class OracleDominanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleDominanceTest, OracleBeatsHeuristics) {
  Rng rng(GetParam());
  net::WaxmanParams wx;
  wx.nodes = 40;
  auto topo = net::GenerateWaxman(wx, &rng);
  ASSERT_TRUE(topo.ok());
  Sbon::Options opts;
  opts.coord_mode = coords::CoordMode::kMds;
  opts.load_params.sigma = 0.0;
  opts.seed = GetParam();
  auto s = Sbon::Create(std::move(topo.value()), opts);
  ASSERT_TRUE(s.ok());

  query::Catalog c = TwoStreamCatalog(
      static_cast<NodeId>(rng.UniformInt(uint64_t{40})),
      static_cast<NodeId>(rng.UniformInt(uint64_t{40})), 200.0, 40.0);
  auto make = [&]() {
    auto ci = Circuit::FromPlan(
        JoinPlan(c, static_cast<NodeId>(rng.UniformInt(uint64_t{40}))), c);
    EXPECT_TRUE(ci.ok());
    return std::move(ci.value());
  };
  Circuit oracle_c = make();
  ExhaustiveOraclePlacer oracle;
  ASSERT_TRUE(oracle.Place(&oracle_c, **s).ok());
  auto oracle_cost =
      overlay::ComputeCircuitCost(oracle_c, (*s)->latency(), nullptr);
  ASSERT_TRUE(oracle_cost.ok());

  // Heuristics: consumer, producer, random, relaxation+mapping.
  std::vector<Circuit> heuristics;
  {
    Circuit cc = oracle_c;
    ASSERT_TRUE(ConsumerPlacer().Place(&cc, **s).ok());
    heuristics.push_back(cc);
    Circuit pc = oracle_c;
    ASSERT_TRUE(ProducerPlacer().Place(&pc, **s).ok());
    heuristics.push_back(pc);
    Circuit rc = oracle_c;
    RandomPlacer rp(GetParam());
    ASSERT_TRUE(rp.Place(&rc, **s).ok());
    heuristics.push_back(rc);
    Circuit xc = oracle_c;
    ASSERT_TRUE(RelaxationPlacer().Place(&xc, (*s)->cost_space()).ok());
    ASSERT_TRUE(MapCircuit(&xc, **s, MappingOptions{}, nullptr).ok());
    heuristics.push_back(xc);
  }
  for (const Circuit& h : heuristics) {
    auto hc = overlay::ComputeCircuitCost(h, (*s)->latency(), nullptr);
    ASSERT_TRUE(hc.ok());
    EXPECT_GE(hc->network_usage, oracle_cost->network_usage - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleDominanceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(BaselinesTest, RelaxationPlusMappingNearOracleOnAverage) {
  // The headline quality claim for the placement substrate: cost-space
  // placement lands within a modest factor of the exhaustive optimum.
  Rng rng(21);
  net::WaxmanParams wx;
  wx.nodes = 50;
  double relax_total = 0.0, oracle_total = 0.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto topo = net::GenerateWaxman(wx, &rng);
    ASSERT_TRUE(topo.ok());
    Sbon::Options opts;
    opts.coord_mode = coords::CoordMode::kMds;
    opts.load_params.sigma = 0.0;
    opts.seed = seed;
    auto s = Sbon::Create(std::move(topo.value()), opts);
    ASSERT_TRUE(s.ok());
    query::Catalog c = TwoStreamCatalog(
        static_cast<NodeId>(rng.UniformInt(uint64_t{50})),
        static_cast<NodeId>(rng.UniformInt(uint64_t{50})), 300.0, 100.0);
    auto circuit = Circuit::FromPlan(
        JoinPlan(c, static_cast<NodeId>(rng.UniformInt(uint64_t{50}))), c);
    ASSERT_TRUE(circuit.ok());
    Circuit relax_c = circuit.value();
    ASSERT_TRUE(RelaxationPlacer().Place(&relax_c, (*s)->cost_space()).ok());
    ASSERT_TRUE(MapCircuit(&relax_c, **s, MappingOptions{}, nullptr).ok());
    Circuit oracle_c = circuit.value();
    ASSERT_TRUE(ExhaustiveOraclePlacer().Place(&oracle_c, **s).ok());
    auto rc = overlay::ComputeCircuitCost(relax_c, (*s)->latency(), nullptr);
    auto oc = overlay::ComputeCircuitCost(oracle_c, (*s)->latency(), nullptr);
    ASSERT_TRUE(rc.ok() && oc.ok());
    relax_total += rc->network_usage;
    oracle_total += oc->network_usage;
  }
  // Relaxation optimizes a quadratic proxy in an imperfect embedding, so a
  // moderate gap to the exhaustive optimum is expected; 2.5x bounds it.
  EXPECT_LE(relax_total, oracle_total * 2.5);
}

}  // namespace
}  // namespace sbon::placement
