#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/rng.h"
#include "coords/cost_space.h"
#include "coords/mds.h"
#include "coords/vivaldi.h"
#include "coords/weighting.h"
#include "net/generators.h"
#include "net/shortest_path.h"

namespace sbon::coords {
namespace {

// --------------------------- Weighting ---------------------------

TEST(WeightingTest, IdentityIsLinear) {
  IdentityWeighting w(2.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.Apply(1.0), 2.0);
}

TEST(WeightingTest, SquaredPenalizesSuperLinearly) {
  SquaredWeighting w(1.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.5), 0.25);
  EXPECT_DOUBLE_EQ(w.Apply(1.0), 1.0);
  // Ratio of penalties grows with load (the Figure 2 property).
  EXPECT_GT(w.Apply(0.9) / w.Apply(0.3), 0.9 / 0.3);
}

TEST(WeightingTest, ExponentialZeroAtIdeal) {
  ExponentialWeighting w(4.0, 1.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.0), 0.0);
  EXPECT_GT(w.Apply(1.0), w.Apply(0.5) * 2.0);
}

TEST(WeightingTest, ThresholdFlatBelowKnee) {
  ThresholdWeighting w(0.7, 10.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.Apply(0.69), 0.0);
  EXPECT_NEAR(w.Apply(0.8), 1.0, 1e-9);
}

TEST(WeightingTest, NegativeInputsClampToZero) {
  EXPECT_DOUBLE_EQ(IdentityWeighting().Apply(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(SquaredWeighting().Apply(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ExponentialWeighting().Apply(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ThresholdWeighting().Apply(-1.0), 0.0);
}

TEST(WeightingTest, AllNonNegativeAndMonotone) {
  // The paper requires weighting functions to be non-negative with zero at
  // the ideal value; check monotonicity over a sweep.
  for (const char* name :
       {"identity", "squared", "exponential", "threshold"}) {
    auto w = MakeWeighting(name);
    ASSERT_NE(w, nullptr) << name;
    double prev = -1.0;
    for (double x = 0.0; x <= 1.0; x += 0.05) {
      const double y = w->Apply(x);
      EXPECT_GE(y, 0.0) << name;
      EXPECT_GE(y, prev - 1e-12) << name << " not monotone at " << x;
      prev = y;
    }
    EXPECT_DOUBLE_EQ(w->Apply(0.0), 0.0) << name;
  }
}

TEST(WeightingTest, FactoryRejectsUnknown) {
  EXPECT_EQ(MakeWeighting("nope"), nullptr);
}

// --------------------------- CostSpace ---------------------------

TEST(CostSpaceTest, LatencyOnlyHasNoScalars) {
  const CostSpaceSpec spec = CostSpaceSpec::LatencyOnly(3);
  EXPECT_EQ(spec.vector_dims(), 3u);
  EXPECT_EQ(spec.num_scalar_dims(), 0u);
  EXPECT_EQ(spec.total_dims(), 3u);
}

TEST(CostSpaceTest, LatencyAndLoadShape) {
  const CostSpaceSpec spec = CostSpaceSpec::LatencyAndLoad(2, 100.0);
  EXPECT_EQ(spec.vector_dims(), 2u);
  EXPECT_EQ(spec.num_scalar_dims(), 1u);
  EXPECT_EQ(spec.scalar_dim(0).name, "cpu_load");
  EXPECT_EQ(spec.scalar_dim(0).weighting->Name(), "squared");
}

TEST(CostSpaceTest, SetAndGetCoords) {
  CostSpace cs(CostSpaceSpec::LatencyAndLoad(2, 100.0), 3);
  ASSERT_TRUE(cs.SetVectorCoord(0, Vec{1.0, 2.0}).ok());
  ASSERT_TRUE(cs.SetScalarMetric(0, 0, 0.5).ok());
  EXPECT_EQ(cs.VectorCoord(0), (Vec{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(cs.RawScalar(0, 0), 0.5);
  // squared weighting with scale 100: 100 * 0.25.
  EXPECT_DOUBLE_EQ(cs.WeightedScalar(0, 0), 25.0);
  EXPECT_DOUBLE_EQ(cs.ScalarPenalty(0), 25.0);
}

TEST(CostSpaceTest, FullCoordAppendsWeightedScalars) {
  CostSpace cs(CostSpaceSpec::LatencyAndLoad(2, 100.0), 1);
  ASSERT_TRUE(cs.SetVectorCoord(0, Vec{3.0, 4.0}).ok());
  ASSERT_TRUE(cs.SetScalarMetric(0, 0, 1.0).ok());
  const Vec full = cs.FullCoord(0);
  ASSERT_EQ(full.dims(), 3u);
  EXPECT_DOUBLE_EQ(full[0], 3.0);
  EXPECT_DOUBLE_EQ(full[1], 4.0);
  EXPECT_DOUBLE_EQ(full[2], 100.0);
}

TEST(CostSpaceTest, RejectsBadIndices) {
  CostSpace cs(CostSpaceSpec::LatencyOnly(2), 2);
  EXPECT_FALSE(cs.SetVectorCoord(5, Vec{0, 0}).ok());
  EXPECT_FALSE(cs.SetVectorCoord(0, Vec{0, 0, 0}).ok());
  EXPECT_FALSE(cs.SetScalarMetric(0, 0, 1.0).ok());  // no scalar dims
}

TEST(CostSpaceTest, IdealTargetZerosEveryScalarDim) {
  CostSpace cs(CostSpaceSpec::LatencyAndLoad(2, 100.0), 1);
  EXPECT_EQ(cs.IdealTarget(Vec{1.0, -2.0}), (Vec{1.0, -2.0, 0.0}));
  CostSpace latency_only(CostSpaceSpec::LatencyOnly(3), 1);
  EXPECT_EQ(latency_only.IdealTarget(Vec{1.0, 2.0, 3.0}),
            (Vec{1.0, 2.0, 3.0}));
}

TEST(CostSpaceTest, VectorDistanceSymmetric) {
  CostSpace cs(CostSpaceSpec::LatencyOnly(2), 2);
  ASSERT_TRUE(cs.SetVectorCoord(0, Vec{0.0, 0.0}).ok());
  ASSERT_TRUE(cs.SetVectorCoord(1, Vec{3.0, 4.0}).ok());
  EXPECT_DOUBLE_EQ(cs.VectorDistance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(cs.VectorDistance(1, 0), 5.0);
}

// w(x) = x - 0.5: negative below half load.
class ShiftedWeighting : public WeightingFn {
 public:
  double Apply(double raw) const override { return raw - 0.5; }
  std::string Name() const override { return "shifted"; }
};

TEST(CostSpaceTest, PenaltyFloorIsMinOfZeroAndSmallestPenalty) {
  CostSpace squared(CostSpaceSpec::LatencyAndLoad(2, 100.0), 3);
  ASSERT_TRUE(squared.SetScalarMetric(1, 0, 0.5).ok());
  EXPECT_EQ(squared.PenaltyFloor(), 0.0);

  // Two shifted dims: penalty = (x0 - 0.5) + (x1 - 0.5).
  const auto shifted = std::make_shared<ShiftedWeighting>();
  CostSpace cs(CostSpaceSpec(2, {ScalarDimSpec{"a", shifted},
                                 ScalarDimSpec{"b", shifted}}),
               3);
  EXPECT_EQ(cs.PenaltyFloor(), -1.0);  // all metrics start at 0
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_TRUE(cs.SetScalarMetric(n, 0, 1.0).ok());
    ASSERT_TRUE(cs.SetScalarMetric(n, 1, 0.75).ok());
  }
  EXPECT_EQ(cs.PenaltyFloor(), 0.0);  // every penalty is 0.75
  ASSERT_TRUE(cs.SetScalarMetric(2, 1, 0.25).ok());
  EXPECT_EQ(cs.PenaltyFloor(), 0.0);  // one negative term, penalty 0.25
  ASSERT_TRUE(cs.SetScalarMetric(2, 0, 0.0).ok());
  EXPECT_EQ(cs.PenaltyFloor(), -0.75);
  ASSERT_TRUE(cs.SetScalarMetric(2, 0, 1.0).ok());
  ASSERT_TRUE(cs.SetScalarMetric(2, 1, 1.0).ok());
  EXPECT_EQ(cs.PenaltyFloor(), 0.0);
}

// --------------------------- Vivaldi ---------------------------

TEST(VivaldiTest, PredictionErrorSmallOnLine) {
  auto topo = net::GenerateLine(10, 5.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  Rng rng(1);
  VivaldiSystem::Params params;
  params.dims = 2;
  VivaldiRunOptions run;
  run.rounds = 120;
  run.rtt_noise_sigma = 0.0;
  const VivaldiSystem sys = RunVivaldi(lat, params, run, &rng);
  // A line embeds perfectly in 2-D; demand small relative error.
  double total_rel = 0.0;
  int pairs = 0;
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      total_rel += std::abs(sys.Predict(a, b) - lat.Latency(a, b)) /
                   lat.Latency(a, b);
      ++pairs;
    }
  }
  EXPECT_LT(total_rel / pairs, 0.15);
}

TEST(VivaldiTest, ErrorDecreasesWithRounds) {
  Rng trng(3);
  auto topo = net::GenerateTransitStub(net::TransitStubParams{}, &trng);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  VivaldiSystem::Params params;
  params.dims = 2;

  auto median_err = [&](size_t rounds, uint64_t seed) {
    Rng rng(seed);
    VivaldiRunOptions run;
    run.rounds = rounds;
    const VivaldiSystem sys = RunVivaldi(lat, params, run, &rng);
    std::vector<Vec> coords;
    for (NodeId i = 0; i < lat.NumNodes(); ++i) coords.push_back(sys.Coord(i));
    return EvaluateEmbedding(lat, coords, 20000).median_relative_error;
  };
  const double early = median_err(2, 7);
  const double late = median_err(60, 7);
  EXPECT_LT(late, early);
  // Invariant 7 of DESIGN.md: small median error on transit-stub.
  EXPECT_LT(late, 0.35);
}

TEST(VivaldiTest, UpdateMovesTowardRtt) {
  Rng rng(5);
  VivaldiSystem sys(2, VivaldiSystem::Params{}, &rng);
  // Repeated samples of a 50ms RTT should drive predicted toward 50.
  for (int i = 0; i < 500; ++i) {
    sys.Update(0, 1, 50.0);
    sys.Update(1, 0, 50.0);
  }
  EXPECT_NEAR(sys.Predict(0, 1), 50.0, 5.0);
}

TEST(VivaldiTest, LocalErrorBounded) {
  Rng trng(9);
  auto topo = net::GenerateLine(20, 4.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  Rng rng(11);
  const VivaldiSystem sys =
      RunVivaldi(lat, VivaldiSystem::Params{}, VivaldiRunOptions{}, &rng);
  for (NodeId n = 0; n < 20; ++n) {
    EXPECT_GE(sys.LocalError(n), 0.0);
    EXPECT_LE(sys.LocalError(n), 10.0);
  }
}

// --------------------------- MDS ---------------------------

TEST(MdsTest, RecoversPlantedConfiguration) {
  // Plant points in the plane; latency = Euclidean distance; MDS must
  // reconstruct pairwise distances near-exactly.
  const std::vector<Vec> pts = {{0, 0},  {10, 0}, {0, 10}, {10, 10},
                                {5, 5},  {2, 8},  {7, 3},  {9, 1}};
  net::Topology topo;
  for (size_t i = 0; i < pts.size(); ++i) topo.AddNode(net::NodeKind::kHost);
  // Complete graph with exact Euclidean latencies.
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t j = i + 1; j < pts.size(); ++j) {
      ASSERT_TRUE(topo.AddLink(static_cast<NodeId>(i),
                               static_cast<NodeId>(j),
                               pts[i].DistanceTo(pts[j]))
                      .ok());
    }
  }
  const net::LatencyMatrix lat(topo);
  Rng rng(13);
  const std::vector<Vec> coords = ClassicalMds(lat, 2, &rng);
  const EmbeddingError err = EvaluateEmbedding(lat, coords);
  EXPECT_LT(err.median_relative_error, 0.02);
  EXPECT_LT(err.stress, 0.05);
}

TEST(MdsTest, BeatsOrMatchesVivaldiOnTransitStub) {
  Rng trng(17);
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = 6;
  auto topo = net::GenerateTransitStub(p, &trng);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  Rng rng(19);
  const std::vector<Vec> mds = ClassicalMds(lat, 2, &rng);
  const VivaldiSystem viv =
      RunVivaldi(lat, VivaldiSystem::Params{}, VivaldiRunOptions{}, &rng);
  std::vector<Vec> vcoords;
  for (NodeId i = 0; i < lat.NumNodes(); ++i) vcoords.push_back(viv.Coord(i));
  const EmbeddingError mds_err = EvaluateEmbedding(lat, mds);
  const EmbeddingError viv_err = EvaluateEmbedding(lat, vcoords);
  // Internet-like latencies are non-Euclidean, so neither method dominates
  // the other on every metric; both must simply yield usable cost spaces
  // (small-but-nonzero error, per Ng & Zhang [16]).
  EXPECT_LT(mds_err.median_relative_error, 0.35);
  EXPECT_LT(viv_err.median_relative_error, 0.35);
  EXPECT_LT(mds_err.stress, 0.5);
  EXPECT_LT(viv_err.stress, 0.5);
}

TEST(EvaluateEmbeddingTest, PerfectEmbeddingZeroError) {
  auto topo = net::GenerateLine(5, 2.0);
  ASSERT_TRUE(topo.ok());
  const net::LatencyMatrix lat(*topo);
  // Exact 1-D embedding padded to 2-D.
  std::vector<Vec> coords;
  for (int i = 0; i < 5; ++i) coords.push_back(Vec{2.0 * i, 0.0});
  const EmbeddingError err = EvaluateEmbedding(lat, coords);
  EXPECT_NEAR(err.median_relative_error, 0.0, 1e-12);
  EXPECT_NEAR(err.stress, 0.0, 1e-12);
}

TEST(EvaluateEmbeddingTest, HandlesTinyInputs) {
  net::Topology topo;
  topo.AddNode(net::NodeKind::kHost);
  const net::LatencyMatrix lat(topo);
  const EmbeddingError err = EvaluateEmbedding(lat, {Vec{0.0}});
  EXPECT_DOUBLE_EQ(err.median_relative_error, 0.0);
}

}  // namespace
}  // namespace sbon::coords
