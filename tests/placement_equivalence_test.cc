// Bit-identity pin of the iterative virtual placers: RelaxationPlacer and
// GradientPlacer sweep raw doubles over a per-Place term table (anchors
// fetched once, each vertex's rates summed once), with the per-component
// loops unrolled at 2 and 3 dims and run to the runtime count otherwise.
// The references below are the Vec-valued sweeps they replaced — an
// incidence list rebuilt by scanning every edge, and each anchor re-read
// from the cost space per neighbor per sweep. Both must produce the same
// bits and stop after the same number of sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "coords/cost_space.h"
#include "overlay/circuit.h"
#include "placement/relaxation.h"
#include "query/catalog.h"
#include "query/enumerate.h"
#include "query/query_spec.h"

namespace sbon::placement {
namespace {

using overlay::Circuit;

// ---------------------------------------------------------------------------
// Reference sweeps (the Vec formulation, kept verbatim in behavior).

std::vector<std::pair<int, int>> RefIncidentEdges(const Circuit& c, int v) {
  std::vector<std::pair<int, int>> out;
  for (int e = 0; e < static_cast<int>(c.edges().size()); ++e) {
    if (c.edges()[e].from == v) out.emplace_back(e, c.edges()[e].to);
    if (c.edges()[e].to == v) out.emplace_back(e, c.edges()[e].from);
  }
  return out;
}

Vec RefAnchor(const Circuit& c, int i, const coords::CostSpace& space) {
  const overlay::CircuitVertex& v = c.vertex(i);
  if (v.pinned || v.reused) return space.VectorCoord(v.host);
  return v.virtual_coord;
}

void RefSeed(Circuit* circuit, const coords::CostSpace& space) {
  Vec centroid(space.spec().vector_dims());
  double weight = 0.0;
  for (const overlay::CircuitEdge& e : circuit->edges()) {
    for (int end : {e.from, e.to}) {
      const overlay::CircuitVertex& v = circuit->vertex(end);
      if (v.pinned || v.reused) {
        centroid.AddScaled(space.VectorCoord(v.host), e.rate_bytes_per_s);
        weight += e.rate_bytes_per_s;
      }
    }
  }
  if (weight > 0.0) centroid /= weight;
  for (int i : circuit->PlaceableVertices()) {
    circuit->mutable_vertex(i).virtual_coord = centroid;
  }
}

// Returns the number of sweeps run; `moves`, if given, receives each
// sweep's largest move.
size_t RefRelax(Circuit* circuit, const coords::CostSpace& space,
                const RelaxationPlacer::Params& params,
                std::vector<double>* moves = nullptr) {
  const std::vector<int> placeable = circuit->PlaceableVertices();
  if (placeable.empty()) return 0;
  RefSeed(circuit, space);
  size_t sweeps = 0;
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    ++sweeps;
    double max_move = 0.0;
    for (int v : placeable) {
      Vec num(space.spec().vector_dims());
      double den = 0.0;
      for (const auto& [edge_idx, other] : RefIncidentEdges(*circuit, v)) {
        const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        num.AddScaled(RefAnchor(*circuit, other, space), rate);
        den += rate;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(v);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (moves != nullptr) moves->push_back(max_move);
    if (max_move < params.tolerance) break;
  }
  return sweeps;
}

// Returns the number of Weiszfeld sweeps run (after the relaxation seed);
// `moves`, if given, receives each Weiszfeld sweep's largest move.
size_t RefGradient(Circuit* circuit, const coords::CostSpace& space,
                   const GradientPlacer::Params& params,
                   std::vector<double>* moves = nullptr) {
  const std::vector<int> placeable = circuit->PlaceableVertices();
  if (placeable.empty()) return 0;
  RefRelax(circuit, space, RelaxationPlacer::Params());
  size_t sweeps = 0;
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    ++sweeps;
    double max_move = 0.0;
    for (int v : placeable) {
      Vec num(space.spec().vector_dims());
      double den = 0.0;
      const Vec cur = circuit->vertex(v).virtual_coord;
      for (const auto& [edge_idx, other] : RefIncidentEdges(*circuit, v)) {
        const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        const Vec a = RefAnchor(*circuit, other, space);
        const double d =
            std::max(cur.DistanceTo(a), GradientPlacer::kDistanceGuard);
        num.AddScaled(a, rate / d);
        den += rate / d;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(v);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (moves != nullptr) moves->push_back(max_move);
    if (max_move < params.tolerance) break;
  }
  return sweeps;
}

// ---------------------------------------------------------------------------
// Scenario generation.

constexpr size_t kNodes = 40;

coords::CostSpace RandomSpace(size_t dims, Rng* rng) {
  coords::CostSpace space(coords::CostSpaceSpec::LatencyOnly(dims), kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    Vec c(dims);
    for (size_t d = 0; d < dims; ++d) c[d] = rng->Uniform(-100.0, 100.0);
    EXPECT_TRUE(space.SetVectorCoord(n, c).ok());
  }
  return space;
}

query::Catalog RandomCatalog(Rng* rng) {
  query::Catalog c;
  for (int s = 0; s < 8; ++s) {
    c.AddStream(std::string(1, static_cast<char>('a' + s)),
                rng->Uniform(1.0, 200.0),
                rng->Uniform(16.0, 256.0),
                static_cast<NodeId>(rng->UniformInt(kNodes)));
  }
  return c;
}

// Left-deep chain plans of `spec` (filters on the leaves, the aggregate
// under the consumer): streams joined smallest filtered byte rate first,
// the classical greedy order, then that order with its first two or its
// second and third streams swapped.
std::vector<query::LogicalPlan> LeftDeepChains(const query::QuerySpec& spec,
                                               const query::Catalog& catalog) {
  const size_t n = spec.NumStreams();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const auto bytes = [&](size_t pos) {
    return catalog.stream(spec.streams[pos]).BytesPerSecond() *
           spec.filter_sel[pos];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return bytes(a) < bytes(b); });
  std::vector<std::vector<size_t>> orders = {order};
  for (size_t swap = 0; swap + 1 < std::min<size_t>(n, 3); ++swap) {
    orders.push_back(order);
    std::swap(orders.back()[swap], orders.back()[swap + 1]);
  }
  std::vector<query::LogicalPlan> out;
  for (const std::vector<size_t>& chain : orders) {
    query::LogicalPlan plan;
    int top = -1;
    for (size_t pos : chain) {
      int leaf = plan.AddProducer(spec.streams[pos]);
      if (spec.filter_sel[pos] < 1.0) {
        leaf = plan.AddSelect(leaf, spec.filter_sel[pos]);
      }
      top = top < 0 ? leaf : plan.AddJoin(top, leaf, 1.0);
    }
    if (spec.aggregate_factor < 1.0) {
      top = plan.AddAggregate(top, spec.aggregate_factor);
    }
    plan.SetConsumer(top, spec.consumer);
    EXPECT_TRUE(plan.AnnotateRates(catalog, spec.join_window_s).ok());
    out.push_back(std::move(plan));
  }
  return out;
}

// Random candidate circuits of a 2-8 stream query: its left-deep chains, or
// its top 3 enumerated plans. A few filters have selectivity 0, so their
// output edges, and every edge above them up to the root, carry no data
// (zero-rate edges).
std::vector<Circuit> RandomCircuits(const query::Catalog& catalog,
                                    bool left_deep, Rng* rng) {
  query::QuerySpec spec;
  spec.consumer = static_cast<NodeId>(rng->UniformInt(kNodes));
  const size_t n = 2 + rng->UniformInt(7);
  for (StreamId s = 0; s < 8; ++s) spec.streams.push_back(s);
  rng->Shuffle(&spec.streams);
  spec.streams.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng->NextDouble();
    spec.filter_sel.push_back(u < 0.07 ? 0.0 : u < 0.5 ? 1.0 : u);
  }
  if (rng->Bernoulli(0.5)) spec.aggregate_factor = 0.1;
  std::vector<query::LogicalPlan> plans;
  if (left_deep) {
    plans = LeftDeepChains(spec, catalog);
  } else {
    query::EnumerationOptions opts;
    opts.top_k = 3;
    auto enumerated = query::EnumeratePlans(spec, catalog, opts);
    EXPECT_TRUE(enumerated.ok());
    plans = std::move(enumerated.value());
  }
  std::vector<Circuit> out;
  for (query::LogicalPlan& plan : plans) {
    auto c = Circuit::FromPlan(std::move(plan), catalog);
    EXPECT_TRUE(c.ok());
    out.push_back(std::move(c.value()));
  }
  return out;
}

// Binds a random interior vertex as reused (its subtree collapses onto the
// instance host), as the multi-query optimizer does per reuse variant.
void BindRandomReuse(Circuit* c, Rng* rng) {
  const std::vector<int> placeable = c->PlaceableVertices();
  if (placeable.empty()) return;
  const int v = placeable[rng->UniformInt(placeable.size())];
  c->BindReusedSubtree(v, /*instance=*/1000 + v,
                       static_cast<NodeId>(rng->UniformInt(kNodes)),
                       /*upstream_latency_ms=*/12.5);
}

void ExpectBitIdentical(const Circuit& got, const Circuit& want,
                        const char* what) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  for (int i = 0; i < static_cast<int>(got.NumVertices()); ++i) {
    const Vec& g = got.vertex(i).virtual_coord;
    const Vec& w = want.vertex(i).virtual_coord;
    ASSERT_EQ(g.dims(), w.dims()) << what << " vertex " << i;
    for (size_t d = 0; d < g.dims(); ++d) {
      ASSERT_EQ(std::bit_cast<uint64_t>(g[d]), std::bit_cast<uint64_t>(w[d]))
          << what << " vertex " << i << " dim " << d << ": " << g[d]
          << " vs " << w[d];
    }
  }
}

// Runs `place` and `ref` on copies of `base` with sweep caps around the
// reference's own stopping point, so positions and the sweep count are
// both pinned: the production placer must match the reference when both
// are cut early, and must stop where the reference stops.
// Returns the reference's sweep count.
template <typename Params, typename PlaceFn, typename RefFn>
size_t CheckCaps(const Circuit& base, Params params, PlaceFn place,
                 RefFn ref) {
  Circuit want_full = base;
  const size_t sweeps = ref(&want_full, params);
  Circuit got_full = base;
  place(&got_full, params);
  ExpectBitIdentical(got_full, want_full, "uncapped");
  for (size_t cap : {size_t{1}, size_t{2}, sweeps > 1 ? sweeps - 1 : 1,
                     sweeps}) {
    Params capped = params;
    capped.max_sweeps = cap;
    Circuit want = base;
    EXPECT_EQ(ref(&want, capped), std::min(cap, sweeps));
    Circuit got = base;
    place(&got, capped);
    ExpectBitIdentical(got, want, "capped");
  }
  // Stopping point: the uncapped run equals the run capped at the
  // reference's sweep count.
  Params at_stop = params;
  at_stop.max_sweeps = std::max<size_t>(sweeps, 1);
  Circuit got_stop = base;
  place(&got_stop, at_stop);
  ExpectBitIdentical(got_full, got_stop, "stopping point");
  return sweeps;
}

// The virtual cost helpers read anchors in place; they must equal the sums
// over `Vec` anchors and `DistanceTo` bit for bit.
void CheckVirtualCosts(const Circuit& placed, const coords::CostSpace& space) {
  double linear = 0.0, quadratic = 0.0;
  for (const overlay::CircuitEdge& e : placed.edges()) {
    if (!e.physical) continue;
    const double d = RefAnchor(placed, e.from, space)
                         .DistanceTo(RefAnchor(placed, e.to, space));
    linear += e.rate_bytes_per_s * d;
    quadratic += e.rate_bytes_per_s * d * d;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(VirtualLinearCost(placed, space)),
            std::bit_cast<uint64_t>(linear));
  EXPECT_EQ(std::bit_cast<uint64_t>(VirtualQuadraticCost(placed, space)),
            std::bit_cast<uint64_t>(quadratic));
}

// Returns the relaxation placer's sweep count.
size_t CheckPlacers(const Circuit& base, const coords::CostSpace& space) {
  const size_t sweeps = CheckCaps(
      base, RelaxationPlacer::Params(),
      [&](Circuit* c, const RelaxationPlacer::Params& p) {
        ASSERT_TRUE(RelaxationPlacer(p).Place(c, space).ok());
      },
      [&](Circuit* c, const RelaxationPlacer::Params& p) {
        return RefRelax(c, space, p);
      });
  CheckCaps(
      base, GradientPlacer::Params(),
      [&](Circuit* c, const GradientPlacer::Params& p) {
        ASSERT_TRUE(GradientPlacer(p).Place(c, space).ok());
      },
      [&](Circuit* c, const GradientPlacer::Params& p) {
        return RefGradient(c, space, p);
      });
  Circuit placed = base;
  EXPECT_TRUE(RelaxationPlacer().Place(&placed, space).ok());
  CheckVirtualCosts(placed, space);
  return sweeps;
}

class PlacerEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(PlacerEquivalence, MatchesVecSweepsBitForBit) {
  const size_t dims = GetParam();
  Rng rng(0xC0FFEE + dims);
  const coords::CostSpace space = RandomSpace(dims, &rng);
  const query::Catalog catalog = RandomCatalog(&rng);
  size_t circuits = 0, reused = 0, long_runs = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool left_deep = (trial % 2) == 0;
    for (const Circuit& base : RandomCircuits(catalog, left_deep, &rng)) {
      long_runs += CheckPlacers(base, space) >= 5 ? 1 : 0;
      Circuit with_reuse = base;
      BindRandomReuse(&with_reuse, &rng);
      CheckPlacers(with_reuse, space);
      ++circuits;
      reused += with_reuse.PlaceableVertices().size() <
                        base.PlaceableVertices().size()
                    ? 1
                    : 0;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(circuits, 24u);
  EXPECT_GT(reused, 0u);
  // Many circuits relax over several sweeps, so the stopping point matters.
  EXPECT_GT(long_runs, circuits / 3);
}

// The sweep cap and the zero-sweep path. With tolerance 0 no sweep stops
// early, so a cap of k runs exactly k sweeps; max_sweeps = 0 runs none, so
// every vertex stays at its seed: the pinned centroid for relaxation, the
// spring equilibrium for gradient's Weiszfeld loop.
TEST_P(PlacerEquivalence, SweepCapAndZeroSweeps) {
  const size_t dims = GetParam();
  Rng rng(0xCA9 + dims);
  const coords::CostSpace space = RandomSpace(dims, &rng);
  const query::Catalog catalog = RandomCatalog(&rng);
  size_t circuits = 0;
  for (int trial = 0; trial < 8; ++trial) {
    for (Circuit& base : RandomCircuits(catalog, (trial % 2) == 0, &rng)) {
      if (trial % 4 == 1) BindRandomReuse(&base, &rng);
      if (base.PlaceableVertices().empty()) continue;
      ++circuits;
      for (size_t cap : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
        RelaxationPlacer::Params rp;
        rp.max_sweeps = cap;
        rp.tolerance = 0.0;
        Circuit want = base;
        EXPECT_EQ(RefRelax(&want, space, rp), cap);
        Circuit got = base;
        ASSERT_TRUE(RelaxationPlacer(rp).Place(&got, space).ok());
        ExpectBitIdentical(got, want, "relaxation at the cap");

        GradientPlacer::Params gp;
        gp.max_sweeps = cap;
        gp.tolerance = 0.0;
        Circuit want_g = base;
        EXPECT_EQ(RefGradient(&want_g, space, gp), cap);
        Circuit got_g = base;
        ASSERT_TRUE(GradientPlacer(gp).Place(&got_g, space).ok());
        ExpectBitIdentical(got_g, want_g, "gradient at the cap");

        if (cap == 0) {
          Circuit seeded = base;
          RefSeed(&seeded, space);
          ExpectBitIdentical(got, seeded, "relaxation, no sweep");
          Circuit relaxed = base;
          RefRelax(&relaxed, space, RelaxationPlacer::Params());
          ExpectBitIdentical(got_g, relaxed, "gradient, no Weiszfeld sweep");
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(circuits, 8u);
}

// The stop test is strict: a sweep whose largest move equals the tolerance
// exactly does not stop the loop. Setting the tolerance to a reference
// sweep's own largest move pins that, and pins that the placers' largest
// move (the sqrt of the largest squared move) is that `DistanceTo` bit for
// bit: one ulp either way would stop a sweep early or late.
TEST_P(PlacerEquivalence, StopTestIsStrictAtTheTolerance) {
  const size_t dims = GetParam();
  Rng rng(0x5709 + dims);
  const coords::CostSpace space = RandomSpace(dims, &rng);
  const query::Catalog catalog = RandomCatalog(&rng);
  size_t pinned = 0;
  for (int trial = 0; trial < 6; ++trial) {
    for (const Circuit& base :
         RandomCircuits(catalog, (trial % 2) == 0, &rng)) {
      if (base.PlaceableVertices().empty()) continue;
      RelaxationPlacer::Params rp;
      rp.max_sweeps = 12;
      rp.tolerance = 0.0;
      std::vector<double> moves;
      Circuit scratch = base;
      RefRelax(&scratch, space, rp, &moves);
      GradientPlacer::Params gp;
      gp.max_sweeps = 12;
      gp.tolerance = 0.0;
      std::vector<double> moves_g;
      scratch = base;
      RefGradient(&scratch, space, gp, &moves_g);
      // Sweep k's move as the tolerance: no earlier sweep moved less, so
      // the strict test runs sweep k + 1, which moves something.
      const auto pins = [](const std::vector<double>& m, size_t k) {
        return m[k] > 0.0 && m[k + 1] > 0.0 &&
               *std::min_element(m.begin(), m.begin() + k + 1) == m[k];
      };
      for (size_t k = 1; k + 1 < moves.size(); ++k) {
        if (!pins(moves, k)) continue;
        rp.tolerance = moves[k];
        Circuit want = base;
        EXPECT_GT(RefRelax(&want, space, rp), k + 1);
        Circuit got = base;
        ASSERT_TRUE(RelaxationPlacer(rp).Place(&got, space).ok());
        ExpectBitIdentical(got, want, "relaxation, tolerance = a move");
        ++pinned;
      }
      for (size_t k = 1; k + 1 < moves_g.size(); ++k) {
        if (!pins(moves_g, k)) continue;
        gp.tolerance = moves_g[k];
        Circuit want = base;
        EXPECT_GT(RefGradient(&want, space, gp), k + 1);
        Circuit got = base;
        ASSERT_TRUE(GradientPlacer(gp).Place(&got, space).ok());
        ExpectBitIdentical(got, want, "gradient, tolerance = a move");
        ++pinned;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(pinned, 20u);
}

// 2 and 3 dims are the library's spaces; 11 exceeds Vec::kInlineDims, so
// virtual coordinates live on the heap.
INSTANTIATE_TEST_SUITE_P(Dims, PlacerEquivalence,
                         ::testing::Values(size_t{2}, size_t{3},
                                           Vec::kInlineDims + 3));

TEST(PlacerEquivalence, ZeroRateEdgesLeaveVertexAtSeed) {
  // A filter of selectivity 0 starves its parent join of one input; a
  // vertex whose every incident rate is 0 keeps its seed position.
  Rng rng(5);
  const coords::CostSpace space = RandomSpace(2, &rng);
  query::Catalog catalog;
  catalog.AddStream("a", 50.0, 64.0, 3);
  catalog.AddStream("b", 50.0, 64.0, 9);
  query::QuerySpec spec = query::QuerySpec::SimpleJoin({0, 1}, 17, 0.1);
  spec.filter_sel = {0.0, 0.0};
  auto plans = query::EnumeratePlans(spec, catalog, {});
  ASSERT_TRUE(plans.ok());
  auto base = Circuit::FromPlan((*plans)[0], catalog);
  ASSERT_TRUE(base.ok());
  CheckPlacers(*base, space);
}

}  // namespace
}  // namespace sbon::placement
