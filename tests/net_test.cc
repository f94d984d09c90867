#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "net/dynamics.h"
#include "net/fabric.h"
#include "net/generators.h"
#include "net/shortest_path.h"
#include "net/topology.h"

namespace sbon::net {
namespace {

// --------------------------- Topology ---------------------------

TEST(TopologyTest, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  EXPECT_TRUE(t.AddLink(a, b, 5.0).ok());
  EXPECT_EQ(t.NumNodes(), 2u);
  EXPECT_EQ(t.NumLinks(), 1u);
  EXPECT_EQ(t.IncidentLinks(a).size(), 1u);
  EXPECT_EQ(t.IncidentLinks(b).size(), 1u);
}

TEST(TopologyTest, RejectsBadLinks) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  EXPECT_FALSE(t.AddLink(a, a, 1.0).ok());        // self link
  EXPECT_FALSE(t.AddLink(a, 99, 1.0).ok());       // out of range
  EXPECT_FALSE(t.AddLink(a, b, -1.0).ok());       // negative latency
  EXPECT_EQ(t.NumLinks(), 0u);
}

TEST(TopologyTest, ConnectivityDetection) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const NodeId c = t.AddNode(NodeKind::kHost);
  ASSERT_TRUE(t.AddLink(a, b, 1.0).ok());
  EXPECT_FALSE(t.IsConnected());
  ASSERT_TRUE(t.AddLink(b, c, 1.0).ok());
  EXPECT_TRUE(t.IsConnected());
}

TEST(TopologyTest, OverlayEligibility) {
  Topology t;
  t.AddNode(NodeKind::kTransit, 0, /*overlay_eligible=*/false);
  const NodeId s = t.AddNode(NodeKind::kStub, 1, /*overlay_eligible=*/true);
  const auto nodes = t.OverlayNodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], s);
}

TEST(TopologyTest, EmptyTopologyIsConnected) {
  Topology t;
  EXPECT_TRUE(t.IsConnected());
}

// --------------------------- Generators ---------------------------

TEST(TransitStubTest, DefaultParamsProducePaperScaleTopology) {
  Rng rng(1);
  auto t = GenerateTransitStub(TransitStubParams{}, &rng);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // 4*4 transit + 4*4*3*12 stub = 16 + 576 = 592 nodes (paper: ~600).
  EXPECT_EQ(t->NumNodes(), 592u);
  EXPECT_TRUE(t->IsConnected());
}

TEST(TransitStubTest, StubOnlyOverlayEligibility) {
  Rng rng(2);
  auto t = GenerateTransitStub(TransitStubParams{}, &rng);
  ASSERT_TRUE(t.ok());
  for (NodeId n = 0; n < t->NumNodes(); ++n) {
    if (t->kind(n) == NodeKind::kTransit) {
      EXPECT_FALSE(t->overlay_eligible(n));
    } else {
      EXPECT_TRUE(t->overlay_eligible(n));
    }
  }
}

TEST(TransitStubTest, RejectsDegenerateParams) {
  Rng rng(3);
  TransitStubParams p;
  p.transit_domains = 0;
  EXPECT_FALSE(GenerateTransitStub(p, &rng).ok());
  TransitStubParams q;
  q.nodes_per_stub_domain = 0;
  EXPECT_FALSE(GenerateTransitStub(q, &rng).ok());
}

TEST(TransitStubTest, DeterministicGivenSeed) {
  Rng r1(5), r2(5);
  auto a = GenerateTransitStub(TransitStubParams{}, &r1);
  auto b = GenerateTransitStub(TransitStubParams{}, &r2);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->NumLinks(), b->NumLinks());
  for (size_t i = 0; i < a->NumLinks(); ++i) {
    EXPECT_EQ(a->links()[i].a, b->links()[i].a);
    EXPECT_EQ(a->links()[i].b, b->links()[i].b);
    EXPECT_DOUBLE_EQ(a->links()[i].latency_ms, b->links()[i].latency_ms);
  }
}

TEST(TransitStubTest, LatencyClassesRespectRanges) {
  Rng rng(7);
  auto t = GenerateTransitStub(TransitStubParams{}, &rng);
  ASSERT_TRUE(t.ok());
  for (const Link& l : t->links()) {
    const bool a_transit = t->kind(l.a) == NodeKind::kTransit;
    const bool b_transit = t->kind(l.b) == NodeKind::kTransit;
    if (a_transit && b_transit) {
      // Intra- or inter-transit: within the union of the two ranges.
      EXPECT_GE(l.latency_ms, kIntraTransitLatency.min_ms);
      EXPECT_LE(l.latency_ms, kInterTransitLatency.max_ms);
    } else if (a_transit != b_transit) {
      EXPECT_GE(l.latency_ms, kTransitStubLatency.min_ms);
      EXPECT_LE(l.latency_ms, kTransitStubLatency.max_ms);
    } else {
      EXPECT_GE(l.latency_ms, kIntraStubLatency.min_ms);
      EXPECT_LE(l.latency_ms, kIntraStubLatency.max_ms);
    }
  }
}

TEST(TransitStubTest, ScalesWithParams) {
  Rng rng(11);
  TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 5;
  auto t = GenerateTransitStub(p, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumNodes(), 2u * 2u + 2u * 2u * 2u * 5u);
  EXPECT_TRUE(t->IsConnected());
}

TEST(WaxmanTest, ConnectedAndSized) {
  Rng rng(13);
  WaxmanParams p;
  p.nodes = 80;
  auto t = GenerateWaxman(p, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumNodes(), 80u);
  EXPECT_TRUE(t->IsConnected());
}

TEST(WaxmanTest, RejectsZeroNodes) {
  Rng rng(17);
  WaxmanParams p;
  p.nodes = 0;
  EXPECT_FALSE(GenerateWaxman(p, &rng).ok());
}

TEST(GridTest, StructureAndLatencies) {
  auto t = GenerateGrid(4, 2.0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->NumNodes(), 16u);
  // 2 * side * (side-1) links.
  EXPECT_EQ(t->NumLinks(), 24u);
  EXPECT_TRUE(t->IsConnected());
}

TEST(StarAndLineTest, Shapes) {
  auto star = GenerateStar(5, 1.0);
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->NumNodes(), 6u);
  EXPECT_EQ(star->NumLinks(), 5u);
  EXPECT_EQ(star->IncidentLinks(0).size(), 5u);

  auto line = GenerateLine(4, 1.0);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->NumNodes(), 4u);
  EXPECT_EQ(line->NumLinks(), 3u);
}

// --------------------------- Shortest paths ---------------------------

TEST(DijkstraTest, LineDistances) {
  auto t = GenerateLine(5, 3.0);
  ASSERT_TRUE(t.ok());
  const auto d = DijkstraLatencies(*t, 0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(d[i], 3.0 * static_cast<double>(i));
  }
}

TEST(DijkstraTest, GridManhattanDistance) {
  auto t = GenerateGrid(5, 1.0);
  ASSERT_TRUE(t.ok());
  const auto d = DijkstraLatencies(*t, 0);  // corner (0,0)
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(d[r * 5 + c], static_cast<double>(r + c));
    }
  }
}

TEST(DijkstraTest, PicksCheaperLongerPath) {
  Topology t;
  const NodeId a = t.AddNode(NodeKind::kHost);
  const NodeId b = t.AddNode(NodeKind::kHost);
  const NodeId c = t.AddNode(NodeKind::kHost);
  ASSERT_TRUE(t.AddLink(a, c, 10.0).ok());
  ASSERT_TRUE(t.AddLink(a, b, 2.0).ok());
  ASSERT_TRUE(t.AddLink(b, c, 3.0).ok());
  const auto d = DijkstraLatencies(t, a);
  EXPECT_DOUBLE_EQ(d[c], 5.0);
}

TEST(DijkstraTest, UnreachableIsInfinity) {
  Topology t;
  t.AddNode(NodeKind::kHost);
  t.AddNode(NodeKind::kHost);
  const auto d = DijkstraLatencies(t, 0);
  EXPECT_TRUE(std::isinf(d[1]));
}

TEST(DijkstraTest, PredecessorsFormShortestPathTree) {
  Rng rng(19);
  WaxmanParams p;
  p.nodes = 40;
  auto t = GenerateWaxman(p, &rng);
  ASSERT_TRUE(t.ok());
  std::vector<double> dist;
  std::vector<NodeId> pred;
  DijkstraWithPredecessors(*t, 0, &dist, &pred);
  EXPECT_EQ(pred[0], kInvalidNode);
  for (NodeId n = 1; n < t->NumNodes(); ++n) {
    ASSERT_NE(pred[n], kInvalidNode);
    // dist must strictly decrease along the predecessor chain to the root.
    EXPECT_LT(dist[pred[n]], dist[n]);
  }
}

// Property: Dijkstra agrees with Floyd-Warshall on random graphs.
class ApspPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApspPropertyTest, DijkstraMatchesFloydWarshall) {
  Rng rng(GetParam());
  WaxmanParams p;
  p.nodes = 25;
  auto t = GenerateWaxman(p, &rng);
  ASSERT_TRUE(t.ok());
  const size_t n = t->NumNodes();
  // Floyd-Warshall oracle.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> fw(n * n, kInf);
  for (size_t i = 0; i < n; ++i) fw[i * n + i] = 0.0;
  for (const Link& l : t->links()) {
    fw[l.a * n + l.b] = std::min(fw[l.a * n + l.b], l.latency_ms);
    fw[l.b * n + l.a] = std::min(fw[l.b * n + l.a], l.latency_ms);
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        fw[i * n + j] =
            std::min(fw[i * n + j], fw[i * n + k] + fw[k * n + j]);
      }
    }
  }
  const LatencyMatrix lat(*t);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(lat.Latency(static_cast<NodeId>(i),
                              static_cast<NodeId>(j)),
                  fw[i * n + j], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApspPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LatencyMatrixTest, SymmetricOnUndirectedGraphs) {
  Rng rng(23);
  auto t = GenerateTransitStub(TransitStubParams{}, &rng);
  ASSERT_TRUE(t.ok());
  const LatencyMatrix lat(*t);
  Rng pick(29);
  for (int rep = 0; rep < 200; ++rep) {
    const NodeId a = static_cast<NodeId>(pick.UniformInt(t->NumNodes()));
    const NodeId b = static_cast<NodeId>(pick.UniformInt(t->NumNodes()));
    EXPECT_DOUBLE_EQ(lat.Latency(a, b), lat.Latency(b, a));
  }
}

TEST(LatencyMatrixTest, MeanAndMaxSane) {
  auto t = GenerateLine(3, 10.0);
  ASSERT_TRUE(t.ok());
  const LatencyMatrix lat(*t);
  // pairs: (0,1)=10, (0,2)=20, (1,2)=10 (counted twice each direction).
  EXPECT_NEAR(lat.MeanLatency(), (10 + 20 + 10) * 2 / 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(lat.MaxLatency(), 20.0);
}

// --------------------------- Dynamics ---------------------------

TEST(LoadModelTest, LoadsStayInUnitInterval) {
  Rng rng(31);
  LoadModel::Params p;
  p.sigma = 0.6;  // violent shocks, bounds must still hold
  LoadModel m(50, p, &rng);
  for (int step = 0; step < 200; ++step) {
    m.Step(0.1, &rng);
    for (size_t i = 0; i < m.NumNodes(); ++i) {
      EXPECT_GE(m.load(static_cast<NodeId>(i)), 0.0);
      EXPECT_LE(m.load(static_cast<NodeId>(i)), 1.0);
    }
  }
}

TEST(LoadModelTest, MeanReversion) {
  Rng rng(37);
  LoadModel::Params p;
  p.mean = 0.3;
  p.theta = 2.0;
  p.sigma = 0.05;
  LoadModel m(200, p, &rng);
  for (int step = 0; step < 500; ++step) m.Step(0.05, &rng);
  double avg = 0.0;
  for (size_t i = 0; i < m.NumNodes(); ++i) {
    avg += m.load(static_cast<NodeId>(i));
  }
  avg /= static_cast<double>(m.NumNodes());
  EXPECT_NEAR(avg, 0.3, 0.05);
}

TEST(LoadModelTest, HotspotsRevertHigh) {
  Rng rng(41);
  LoadModel::Params p;
  p.mean = 0.2;
  p.hotspot_frac = 1.0;  // every node a hotspot
  p.hotspot_mean = 0.9;
  p.theta = 2.0;
  p.sigma = 0.05;
  LoadModel m(100, p, &rng);
  for (int step = 0; step < 500; ++step) m.Step(0.05, &rng);
  double avg = 0.0;
  for (size_t i = 0; i < m.NumNodes(); ++i) {
    avg += m.load(static_cast<NodeId>(i));
  }
  avg /= static_cast<double>(m.NumNodes());
  EXPECT_GT(avg, 0.75);
}

TEST(LoadModelTest, SetLoadClamps) {
  Rng rng(43);
  LoadModel m(2, LoadModel::Params{}, &rng);
  m.SetLoad(0, 5.0);
  EXPECT_DOUBLE_EQ(m.load(0), 1.0);
  m.SetLoad(0, -2.0);
  EXPECT_DOUBLE_EQ(m.load(0), 0.0);
}

// Latency jitter is derived on read by the fabric (one epoch seed per
// TickNetwork), so its properties are asserted on the live view itself, in
// both the dense-matrix and the exact-row base modes.

Topology WaxmanTopo(size_t nodes, uint64_t seed) {
  Rng rng(seed);
  WaxmanParams p;
  p.nodes = nodes;
  auto t = GenerateWaxman(p, &rng);
  EXPECT_TRUE(t.ok());
  return std::move(t.value());
}

NetworkFabric::Options Mode(NetworkFabric::BaseMode mode) {
  NetworkFabric::Options o;
  o.base_mode = mode;
  return o;
}

constexpr NetworkFabric::BaseMode kJitterModes[] = {
    NetworkFabric::BaseMode::kDense, NetworkFabric::BaseMode::kExact};

TEST(LatencyJitterTest, SymmetricFactors) {
  const Topology topo = WaxmanTopo(20, 47);
  for (const auto mode : kJitterModes) {
    Rng rng(47);
    NetworkFabric f(topo, 0.2, &rng, Mode(mode));
    f.TickNetwork(&rng);
    // Bitwise: both argument orders read one product, even where the base
    // mirrors differ in the last ulp.
    for (NodeId a = 0; a < 20; ++a) {
      for (NodeId b = 0; b < 20; ++b) {
        EXPECT_EQ(f.live().Latency(a, b), f.live().Latency(b, a))
            << f.name() << " (" << a << "," << b << ")";
      }
    }
  }
}

TEST(LatencyJitterTest, ZeroSigmaIsIdentity) {
  const Topology topo = WaxmanTopo(10, 53);
  for (const auto mode : kJitterModes) {
    Rng rng(53);
    NetworkFabric f(topo, 0.0, &rng, Mode(mode));
    EXPECT_FALSE(f.has_jitter());
    for (int tick = 0; tick < 3; ++tick) {
      f.TickNetwork(&rng);
      for (NodeId a = 0; a < 10; ++a) {
        for (NodeId b = 0; b < 10; ++b) {
          EXPECT_EQ(f.live().Latency(a, b), f.base().Latency(a, b))
              << f.name() << " tick " << tick;
        }
      }
    }
  }
}

TEST(LatencyJitterTest, ResampleChangesFactors) {
  const Topology topo = WaxmanTopo(10, 59);
  for (const auto mode : kJitterModes) {
    Rng rng(59);
    NetworkFabric f(topo, 0.5, &rng, Mode(mode));
    f.TickNetwork(&rng);
    const double before = f.live().Latency(1, 2);
    f.TickNetwork(&rng);
    EXPECT_NE(before, f.live().Latency(1, 2)) << f.name();
  }
}

TEST(LatencyJitterTest, FactorsPositive) {
  const Topology topo = WaxmanTopo(30, 61);
  for (const auto mode : kJitterModes) {
    Rng rng(61);
    NetworkFabric f(topo, 0.8, &rng, Mode(mode));
    f.TickNetwork(&rng);
    for (NodeId a = 0; a < 30; ++a) {
      for (NodeId b = a + 1; b < 30; ++b) {
        const double v = f.live().Latency(a, b);
        EXPECT_TRUE(std::isfinite(v)) << f.name();
        EXPECT_GT(v, 0.0) << f.name();
      }
    }
  }
}

}  // namespace
}  // namespace sbon::net
