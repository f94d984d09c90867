// Exactness pins of the best-first optimizer. It maps candidate plans in
// ascending virtual network usage, runs greedy reuse passes over those
// that can reuse, and stops mapping any other one as soon as its cost lower
// bound cannot win; the pruning must be exact. At every reuse radius, every
// answer must equal, bit for bit, that of the exhaustive loop that places
// and maps every plan in enumeration order, runs the reuse passes over
// each, and keeps the first strictly cheaper circuit, while billing no more
// DHT traffic.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coords/weighting.h"
#include "core/optimizer.h"
#include "harness/fixtures.h"
#include "harness/reference_optimizer.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"

namespace sbon::core {
namespace {

using PlacerPtr = std::shared_ptr<const placement::VirtualPlacer>;

// w(x) = 100 (x - 0.5): nodes below half load carry a negative penalty,
// so penalty terms can lower a circuit's cost.
class ShiftedWeighting : public coords::WeightingFn {
 public:
  double Apply(double raw) const override { return 100.0 * (raw - 0.5); }
  std::string Name() const override { return "shifted"; }
};

std::unique_ptr<overlay::Sbon> MakeSbon(uint64_t seed, bool negative) {
  overlay::Sbon::Options opts;
  if (negative) {
    opts.space_spec = coords::CostSpaceSpec(
        2, {coords::ScalarDimSpec{"cpu_load",
                                  std::make_shared<ShiftedWeighting>()}});
  }
  return test::MakeTransitStubSbon(test::TopologySize::kTiny, seed, opts);
}

std::vector<PlacerPtr> Placers() {
  return {std::make_shared<const placement::RelaxationPlacer>(),
          std::make_shared<const placement::CentroidPlacer>(),
          std::make_shared<const placement::GradientPlacer>()};
}

// Runs `optimizer` and the exhaustive reference on one spec and compares
// them: plan ops, hosts, reuse bindings, the estimate bit for bit and the
// reuse counts; mapping work never above the reference's. Returns the
// optimizer's answer.
core::OptimizeResult ExpectMatchesExhaustive(Optimizer* optimizer,
                                             const query::QuerySpec& spec,
                                             const query::Catalog& catalog,
                                             overlay::Sbon* sbon,
                                             const std::string& what) {
  auto got = optimizer->Optimize(spec, catalog, sbon);
  auto want = test::ExhaustiveOptimize(optimizer->config(),
                                       optimizer->placer(), spec, catalog,
                                       *sbon);
  EXPECT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  EXPECT_TRUE(want.ok()) << what << ": " << want.status().ToString();
  if (!got.ok() || !want.ok()) return {};
  EXPECT_EQ(test::CircuitDiff(got->circuit, want->circuit), "") << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(got->estimated_cost),
            std::bit_cast<uint64_t>(want->estimated_cost))
      << what << ": " << got->estimated_cost << " vs "
      << want->estimated_cost;
  EXPECT_EQ(got->services_reused, want->services_reused) << what;
  EXPECT_EQ(got->reuse_candidates_considered,
            want->reuse_candidates_considered)
      << what;
  EXPECT_EQ(got->plans_considered, want->plans_considered) << what;
  EXPECT_GE(got->placements_evaluated, 1u) << what;
  EXPECT_LE(got->placements_evaluated, want->placements_evaluated) << what;
  const dht::IndexQueryCost& g = got->mapping.dht_cost;
  const dht::IndexQueryCost& w = want->mapping.dht_cost;
  EXPECT_LE(g.lookups, w.lookups) << what;
  EXPECT_LE(g.routing_hops, w.routing_hops) << what;
  EXPECT_LE(g.ring_probes, w.ring_probes) << what;
  EXPECT_LE(got->mapping.services_mapped, want->mapping.services_mapped)
      << what;
  return std::move(got.value());
}

// (seed, negative penalties): 30 random specs and 10 shareable joins on one
// overlay whose ledger holds 12 installed shareable joins, each spec run
// under every reuse radius x top_k x lambda x placer combination. One
// optimizer per combination serves all specs, so its scratch is reused
// across calls.
class OptimizerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(OptimizerEquivalenceTest, BestFirstEqualsExhaustive) {
  const auto [seed, negative] = GetParam();
  auto sbon = MakeSbon(seed, negative);
  query::WorkloadParams wp = test::TestWorkloadParams(16);
  wp.max_streams_per_query = 5;
  const query::Catalog catalog = test::MakeCatalog(*sbon, wp, seed + 100);
  Optimizer installer(test::TestOptimizerConfig(), test::DefaultPlacer());
  for (const query::QuerySpec& q :
       test::MakeShareableJoins(*sbon, 6, 12, seed + 300)) {
    auto r = installer.Optimize(q, catalog, sbon.get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(sbon->InstallCircuit(std::move(r->circuit)).ok());
  }
  std::vector<query::QuerySpec> specs =
      test::MakeQueries(*sbon, catalog, wp, 30, seed + 200);
  for (query::QuerySpec& q :
       test::MakeShareableJoins(*sbon, 6, 10, seed + 400)) {
    specs.push_back(std::move(q));
  }

  std::vector<std::unique_ptr<Optimizer>> optimizers;
  for (double radius : {0.0, 20.0, 50.0, -1.0}) {
    for (size_t top_k : {1, 2, 5, 8}) {
      for (double lambda : {0.0, 0.5, 1.0, 5.0}) {
        for (const PlacerPtr& placer : Placers()) {
          OptimizerConfig cfg;
          cfg.reuse_radius = radius;
          cfg.enumeration.top_k = top_k;
          cfg.lambda = lambda;
          optimizers.push_back(std::make_unique<Optimizer>(cfg, placer));
        }
      }
    }
  }
  // The radius axis must exercise both reuse and the pruning beside it.
  size_t reused = 0;
  size_t reuse_pruned = 0;
  for (size_t q = 0; q < specs.size(); ++q) {
    for (const auto& opt : optimizers) {
      const OptimizerConfig& cfg = opt->config();
      const std::string what =
          "spec " + std::to_string(q) + " radius=" +
          std::to_string(cfg.reuse_radius) + " top_k=" +
          std::to_string(cfg.enumeration.top_k) +
          " lambda=" + std::to_string(cfg.lambda) + " " +
          opt->placer().Name();
      const core::OptimizeResult r =
          ExpectMatchesExhaustive(opt.get(), specs[q], catalog, sbon.get(),
                                  what);
      if (cfg.reuse_radius == 0.0) continue;
      reused += r.services_reused;
      if (r.placements_evaluated <
          r.plans_considered + r.reuse_candidates_considered) {
        ++reuse_pruned;
      }
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(reuse_pruned, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndWeightings, OptimizerEquivalenceTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

// The wrapped placer's answer, with every placeable vertex shifted along
// the first vector axis by 10^-(2 + c) for the c-th Place call: tiny
// enough that each service still maps to the host nearest its unshifted
// coordinate, yet ordering the candidates' virtual usage so that the
// first plan enumerated is the last one mapped.
class ShiftingPlacer : public placement::VirtualPlacer {
 public:
  explicit ShiftingPlacer(PlacerPtr inner) : inner_(std::move(inner)) {}

  Status Place(overlay::Circuit* circuit,
               const coords::CostSpace& space) const override {
    Status st = inner_->Place(circuit, space);
    if (!st.ok()) return st;
    const double shift = 1e-2 / std::pow(10.0, static_cast<double>(calls_++));
    for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
      if (circuit->Placeable(v)) {
        circuit->mutable_vertex(v).virtual_coord[0] += shift;
      }
    }
    return Status::OK();
  }
  std::string Name() const override { return "shifted-" + inner_->Name(); }

 private:
  PlacerPtr inner_;
  mutable int calls_ = 0;
};

// With lambda = 0 and every producer and the consumer on one node (uniform
// load, so every service maps there too), every candidate circuit costs
// exactly 0: the tie-break alone decides, and the first plan enumerated
// must win, however late it is mapped, at every reuse radius.
TEST(OptimizerTieBreakTest, AllFreeCandidatesPickFirstEnumerated) {
  for (uint64_t seed : {1, 2, 3}) {
    overlay::Sbon::Options opts;
    opts.load_params.sigma = 0.0;
    opts.load_params.mean = 0.2;
    auto sbon =
        test::MakeTransitStubSbon(test::TopologySize::kTiny, seed, opts);
    const NodeId site =
        sbon->overlay_nodes()[(7 * seed) % sbon->overlay_nodes().size()];
    query::Catalog catalog;
    for (int i = 0; i < 5; ++i) {
      // Not "s" + std::to_string(i): at -O3 gcc 12 reports a false
      // -Wrestrict on that operator+.
      catalog.AddStream(std::string("s").append(std::to_string(i)),
                        10.0 + 7.0 * i, 64.0 + 16.0 * i, site);
    }
    const query::QuerySpec spec =
        query::QuerySpec::SimpleJoin({0, 1, 2, 3, 4}, site, 1e-4);
    for (double radius : {0.0, 50.0, -1.0}) {
      OptimizerConfig cfg;
      cfg.reuse_radius = radius;
      cfg.enumeration.top_k = 8;
      cfg.lambda = 0.0;
      auto plans = query::EnumeratePlans(spec, catalog, cfg.enumeration);
      ASSERT_TRUE(plans.ok());
      ASSERT_GT(plans->size(), 1u);
      for (const PlacerPtr& inner : Placers()) {
        for (bool shifted : {false, true}) {
          const std::string what =
              "seed " + std::to_string(seed) + " radius " +
              std::to_string(radius) + " " + inner->Name() +
              (shifted ? " shifted" : "");
          // A fresh placer per optimizer, so both see the same shifts.
          auto make_placer = [&]() -> PlacerPtr {
            if (!shifted) return inner;
            return std::make_shared<const ShiftingPlacer>(inner);
          };
          Optimizer optimizer(cfg, make_placer());
          auto got = optimizer.Optimize(spec, catalog, sbon.get());
          auto want = test::ExhaustiveOptimize(cfg, *make_placer(), spec,
                                               catalog, *sbon);
          ASSERT_TRUE(got.ok() && want.ok()) << what;
          EXPECT_EQ(got->estimated_cost, 0.0) << what;
          EXPECT_EQ(want->estimated_cost, 0.0) << what;
          EXPECT_EQ(got->circuit.plan().Canonical(), (*plans)[0].Canonical())
              << what;
          EXPECT_EQ(test::CircuitDiff(got->circuit, want->circuit), "")
              << what;
          for (const overlay::CircuitVertex& v : got->circuit.vertices()) {
            EXPECT_EQ(v.host, site) << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sbon::core
