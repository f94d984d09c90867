// Selection pins of the coordinate index. KNearestNodesInto keeps its top
// k by bounded insertion of (distance, node) pairs and steps its ring walk
// without a modulo; WithinRadiusInto steps both arcs the same way and stops
// once it has considered every member. Published coordinates here sit on a
// coarse grid, so many nodes share a coordinate and distance ties are the
// norm: every probed answer must equal a full sort of the same walked
// members under the (distance, node) order, truncated to k, and every
// sphere answer the hits of a seen-set walk in walk order — with the same
// lookups, hops and probes. Mapping over node ids must answer exactly what
// mapping over coordinate-copying matches did.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "dht/coord_index.h"
#include "dht/hilbert.h"
#include "harness/fixtures.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"

namespace sbon::dht {
namespace {

constexpr size_t kDims = 3;
constexpr size_t kNodes = 150;

// A walked member and its distance to the query target; pairs sort by
// distance, node id breaking ties.
using Ranked = std::pair<double, NodeId>;

// A grid point: each component one of {-20, -10, 0, 10, 20}.
Vec GridPoint(Rng* rng) {
  Vec p(kDims);
  for (size_t d = 0; d < kDims; ++d) {
    p[d] = 10.0 * static_cast<double>(rng->UniformInt(int64_t{-2}, 2));
  }
  return p;
}

std::vector<NodeId> FirstNodes(const std::vector<Ranked>& ranked, size_t k) {
  std::vector<NodeId> out;
  for (size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

void ExpectSameCost(const IndexQueryCost& got, const IndexQueryCost& want) {
  EXPECT_EQ(got.lookups, want.lookups);
  EXPECT_EQ(got.routing_hops, want.routing_hops);
  EXPECT_EQ(got.ring_probes, want.ring_probes);
}

// Reference walks over `index`'s ring, with a modulo per member and the
// distance of each published coordinate copied out as a `Vec`.
struct Reference {
  const CoordinateIndex& index;

  const ChordRing::Member& Succ(size_t start, size_t i) const {
    const auto& m = index.ring().members();
    return m[(start + i) % m.size()];
  }
  const ChordRing::Member& Pred(size_t start, size_t i) const {
    const auto& m = index.ring().members();
    return m[(start + m.size() - (i % m.size())) % m.size()];
  }
  double Distance(NodeId n, const Vec& target) const {
    return index.published_coords().NodeVec(n).DistanceTo(target);
  }
  size_t Start(const Vec& target, IndexQueryCost* cost) const {
    auto lookup = index.ring().Lookup(index.quantizer().Key(target));
    EXPECT_TRUE(lookup.ok());
    cost->lookups += 1;
    cost->routing_hops += lookup->hops;
    return lookup->member_index;
  }

  // The walked members of a probed query (0, +1, -1, +2, -2, ...), fully
  // sorted.
  std::vector<Ranked> Probed(const Vec& target, size_t probe_width,
                             IndexQueryCost* cost) const {
    const size_t start = Start(target, cost);
    const size_t n = index.ring().NumMembers();
    const size_t total = std::min(2 * std::min(probe_width, n) + 1, n);
    std::vector<Ranked> out;
    for (size_t step = 0; step < total; ++step) {
      const size_t i = (step + 1) / 2;
      const NodeId node =
          (step % 2 == 1 ? Succ(start, i) : Pred(start, i)).node;
      out.emplace_back(Distance(node, target), node);
    }
    cost->ring_probes += total;
    std::sort(out.begin(), out.end());
    return out;
  }

  // The sphere walk with a seen-set, as it ran before the walk counted its
  // members: a member seen twice is a miss and is not billed again. Returns
  // the hits in walk order; `met` tells whether both directions were still
  // walking when the walk had seen every member.
  std::vector<NodeId> Sphere(const Vec& target, double radius,
                             IndexQueryCost* cost, bool* met) const {
    const size_t start = Start(target, cost);
    const size_t n = index.ring().NumMembers();
    std::vector<bool> seen(index.published_coords().nodes(), false);
    size_t seen_count = 0;
    std::vector<NodeId> out;
    auto consider = [&](const ChordRing::Member& m) {
      if (seen[m.node]) return false;
      seen[m.node] = true;
      ++seen_count;
      cost->ring_probes += 1;
      const bool hit = Distance(m.node, target) <= radius;
      if (hit) out.push_back(m.node);
      return hit;
    };
    consider(Succ(start, 0));
    size_t succ_misses = 0, pred_misses = 0;
    bool succ_done = false, pred_done = false;
    *met = false;
    for (size_t i = 1; i < n && (!succ_done || !pred_done); ++i) {
      if (!succ_done) {
        if (consider(Succ(start, i))) {
          succ_misses = 0;
        } else if (++succ_misses >= 8) {
          succ_done = true;
        }
      }
      if (seen_count == n && !succ_done && !pred_done) *met = true;
      if (!pred_done) {
        if (consider(Pred(start, i))) {
          pred_misses = 0;
        } else if (++pred_misses >= 8) {
          pred_done = true;
        }
      }
      if (seen_count == n && !succ_done && !pred_done) *met = true;
    }
    return out;
  }
};

struct TiedIndex {
  CoordinateIndex index;

  explicit TiedIndex(uint64_t seed, size_t nodes = kNodes)
      : index(HilbertQuantizer(std::vector<double>(kDims, -25.0),
                               std::vector<double>(kDims, 25.0),
                               /*bits=*/8)) {
    Rng rng(seed);
    std::vector<NodeId> ids;
    std::vector<Vec> coords;
    for (NodeId n = 0; n < nodes; ++n) {
      ids.push_back(n);
      coords.push_back(GridPoint(&rng));
    }
    index.PublishAll(ids, coords);
  }

  Reference ref() const { return Reference{index}; }
};

TEST(IndexEquivalenceTest, KNearestWithTiesEqualsTruncatedFullSort) {
  size_t tied_cutoffs = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 31 + 7);
    std::vector<NodeId> got;  // reused across queries, as mapping does
    for (int q = 0; q < 200; ++q) {
      const Vec target = GridPoint(&rng);
      const size_t k = 1 + rng.UniformInt(12);
      const size_t width = 1 + rng.UniformInt(40);
      IndexQueryCost got_cost, want_cost;
      ASSERT_TRUE(
          fx.index.KNearestNodesInto(target, k, width, &got_cost, &got).ok());
      const std::vector<Ranked> full = fx.ref().Probed(target, width,
                                                       &want_cost);
      ASSERT_EQ(got, FirstNodes(full, k));
      ExpectSameCost(got_cost, want_cost);
      // A tie straddling the cutoff: the node id decides who is kept.
      if (full.size() > k && full[k].first == full[k - 1].first) {
        ++tied_cutoffs;
      }
    }
  }
  EXPECT_GT(tied_cutoffs, 400u);
}

// The bounded top-k buffer at its edges: k = 0 answers nothing, k = 1 only
// the nearest, and a k above the walked member count every walked member —
// each equal to the truncated full sort, billed the same as any other k.
TEST(IndexEquivalenceTest, KNearestEdgeKsEqualTruncatedFullSort) {
  constexpr size_t kHuge = std::numeric_limits<size_t>::max();
  for (uint64_t seed : {21u, 22u}) {
    for (size_t nodes : {size_t{1}, size_t{6}, kNodes}) {
      TiedIndex fx(seed * 10 + nodes, nodes);
      Rng rng(seed * 5 + nodes);
      std::vector<NodeId> got{7, 7, 7};  // stale content must be cleared
      for (int q = 0; q < 60; ++q) {
        const Vec target = GridPoint(&rng);
        const size_t width = rng.UniformInt(12);
        const size_t walked = std::min(2 * std::min(width, nodes) + 1, nodes);
        for (const size_t k :
             {size_t{0}, size_t{1}, walked + 1 + rng.UniformInt(8), kHuge}) {
          IndexQueryCost got_cost, want_cost;
          ASSERT_TRUE(
              fx.index.KNearestNodesInto(target, k, width, &got_cost, &got)
                  .ok());
          const std::vector<Ranked> full =
              fx.ref().Probed(target, width, &want_cost);
          ASSERT_EQ(full.size(), walked);
          ASSERT_EQ(got, FirstNodes(full, k)) << "k=" << k;
          ExpectSameCost(got_cost, want_cost);
        }
      }
    }
  }
}

// The order and cost the coordinate-copying KNearestInto answered: the
// reference walk's members ranked by (distance, node), rank by rank, with
// the same lookups, hops and probes.
TEST(IndexEquivalenceTest, KNearestNodesEqualsKNearestOrderAndCost) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 13 + 5);
    std::vector<NodeId> nodes;
    for (int q = 0; q < 200; ++q) {
      const Vec target = GridPoint(&rng);
      const size_t k = 1 + rng.UniformInt(12);
      const size_t width = 1 + rng.UniformInt(40);
      IndexQueryCost node_cost, ref_cost;
      ASSERT_TRUE(
          fx.index.KNearestNodesInto(target, k, width, &node_cost, &nodes)
              .ok());
      const std::vector<NodeId> want =
          FirstNodes(fx.ref().Probed(target, width, &ref_cost), k);
      ASSERT_EQ(nodes.size(), want.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(nodes[i], want[i]) << "rank " << i;
      }
      ExpectSameCost(node_cost, ref_cost);
    }
  }
}

TEST(IndexEquivalenceTest, WithinRadiusEqualsSeenSetWalk) {
  size_t hits = 0;
  for (uint64_t seed : {4u, 5u, 6u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 17 + 3);
    std::vector<NodeId> got;
    for (int q = 0; q < 100; ++q) {
      const Vec target = GridPoint(&rng);
      const double radius = rng.Uniform(0.0, 30.0);
      IndexQueryCost got_cost, want_cost;
      ASSERT_TRUE(
          fx.index.WithinRadiusInto(target, radius, &got_cost, &got).ok());
      bool met = false;
      ASSERT_EQ(got, fx.ref().Sphere(target, radius, &want_cost, &met));
      ExpectSameCost(got_cost, want_cost);
      hits += got.size();
    }
  }
  EXPECT_GT(hits, 2000u);
}

// Rings of at most 17 members under radii that hold most of them: both arcs
// are still walking when they meet on the far side of the ring, so the walk
// must stop at exactly n members — one fewer misses a member, one more bills
// (and returns) a member twice.
TEST(IndexEquivalenceTest, WithinRadiusStopsWhereBothWalksMeet) {
  size_t met_queries = 0;
  for (size_t n = 1; n <= 17; ++n) {
    for (uint64_t seed : {10u, 11u, 12u}) {
      TiedIndex fx(seed * 100 + n, n);
      Rng rng(seed * 7 + n);
      std::vector<NodeId> got;
      for (int q = 0; q < 20; ++q) {
        const Vec target = GridPoint(&rng);
        const double radius = rng.Uniform(20.0, 80.0);
        IndexQueryCost got_cost, want_cost;
        ASSERT_TRUE(
            fx.index.WithinRadiusInto(target, radius, &got_cost, &got).ok());
        bool met = false;
        ASSERT_EQ(got, fx.ref().Sphere(target, radius, &want_cost, &met))
            << "n=" << n;
        ExpectSameCost(got_cost, want_cost);
        EXPECT_LE(got_cost.ring_probes, fx.index.NumPublished());
        met_queries += met ? 1 : 0;
      }
    }
  }
  EXPECT_GT(met_queries, 500u);
}

// The mapping path the node-only query replaced: the reference walk's
// top-k matches, each with its published coordinate copied out, and
// vector-part distances read from those copies.
Status CopiedMatchMapCircuit(overlay::Circuit* circuit,
                             const overlay::Sbon& sbon,
                             const placement::MappingOptions& options,
                             placement::MappingReport* report) {
  struct Match {
    NodeId node;
    Vec coord;
  };
  const size_t scalar_dims = sbon.cost_space().spec().num_scalar_dims();
  auto vector_part_distance = [](const Vec& full, const Vec& point) {
    double s = 0.0;
    for (size_t d = 0; d < point.dims(); ++d) {
      const double diff = full[d] - point[d];
      s += diff * diff;
    }
    return std::sqrt(s);
  };
  const Reference ref{sbon.index()};
  std::vector<Match> candidates;
  for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
    if (!circuit->Placeable(v)) continue;
    const Vec& point = circuit->vertex(v).virtual_coord;
    Vec target = point;
    for (size_t i = 0; i < scalar_dims; ++i) target.Append(0.0);
    candidates.clear();
    for (NodeId node :
         FirstNodes(ref.Probed(target, options.probe_width, &report->dht_cost),
                    options.k_candidates)) {
      candidates.push_back(
          Match{node, sbon.index().published_coords().NodeVec(node)});
    }
    if (candidates.empty()) return Status::NotFound("no candidates");
    size_t vector_nearest = 0;
    double best_vec = 1e300;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double dv = vector_part_distance(candidates[i].coord, point);
      if (dv < best_vec) {
        best_vec = dv;
        vector_nearest = i;
      }
    }
    const size_t chosen = options.load_aware ? 0 : vector_nearest;
    circuit->mutable_vertex(v).host = candidates[chosen].node;
    report->services_mapped += 1;
    report->total_mapping_error +=
        vector_part_distance(candidates[chosen].coord, point);
    if (options.load_aware && chosen != vector_nearest &&
        candidates[chosen].node != candidates[vector_nearest].node) {
      report->load_overrides += 1;
    }
  }
  return Status::OK();
}

TEST(IndexEquivalenceTest, MapCircuitEqualsIndexMatchPath) {
  size_t overrides = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto sbon = test::MakeTransitStubSbon(test::TopologySize::kSmall, seed);
    const query::WorkloadParams wp = test::TestWorkloadParams();
    const query::Catalog catalog = test::MakeCatalog(*sbon, wp, seed);
    const placement::RelaxationPlacer placer;
    for (const query::QuerySpec& spec :
         test::MakeQueries(*sbon, catalog, wp, 20, seed + 1)) {
      auto plans = query::EnumeratePlans(spec, catalog, {});
      ASSERT_TRUE(plans.ok());
      for (const query::LogicalPlan& plan : *plans) {
        auto placed = overlay::Circuit::FromPlan(plan, catalog);
        ASSERT_TRUE(placed.ok());
        ASSERT_TRUE(placer.Place(&placed.value(), sbon->cost_space()).ok());
        for (bool load_aware : {true, false}) {
          placement::MappingOptions options;
          options.load_aware = load_aware;
          overlay::Circuit got = *placed;
          overlay::Circuit want = *placed;
          placement::MappingReport got_report, want_report;
          ASSERT_TRUE(
              placement::MapCircuit(&got, *sbon, options, &got_report).ok());
          ASSERT_TRUE(
              CopiedMatchMapCircuit(&want, *sbon, options, &want_report).ok());
          for (int v = 0; v < static_cast<int>(got.NumVertices()); ++v) {
            ASSERT_EQ(got.vertex(v).host, want.vertex(v).host);
          }
          EXPECT_EQ(got_report.services_mapped, want_report.services_mapped);
          EXPECT_EQ(got_report.total_mapping_error,
                    want_report.total_mapping_error);
          EXPECT_EQ(got_report.load_overrides, want_report.load_overrides);
          ExpectSameCost(got_report.dht_cost, want_report.dht_cost);
          overrides += want_report.load_overrides;
        }
      }
    }
  }
  // The load-aware ranking overrode the vector-nearest candidate often
  // enough for the override count to be pinned.
  EXPECT_GT(overrides, 10u);
}

}  // namespace
}  // namespace sbon::dht
