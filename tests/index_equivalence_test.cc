// Selection pins of the coordinate index: KNearestInto picks its top k by
// partial_sort over (distance, node) pairs and steps its ring walk without
// a modulo; WithinRadius ranks (distance, node) pairs and builds matches
// last. Published coordinates here sit on a coarse grid, so many nodes
// share a coordinate and distance ties are the norm: every answer must
// equal a full sort of the same walked members under the (distance, node)
// order, truncated to k. The node-only query must answer exactly what
// KNearestInto answers, and mapping over it exactly what mapping over
// KNearestInto's matches did.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

bool MatchLess(const IndexMatch& a, const IndexMatch& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.node < b.node;
}

// A grid point: each component one of {-20, -10, 0, 10, 20}.
Vec GridPoint(Rng* rng) {
  Vec p(kDims);
  for (size_t d = 0; d < kDims; ++d) {
    p[d] = 10.0 * static_cast<double>(rng->UniformInt(int64_t{-2}, 2));
  }
  return p;
}

struct TiedIndex {
  CoordinateIndex index;
  std::vector<Vec> mirror;

  explicit TiedIndex(uint64_t seed)
      : index(HilbertQuantizer(std::vector<double>(kDims, -25.0),
                               std::vector<double>(kDims, 25.0),
                               /*bits=*/8)) {
    Rng rng(seed);
    for (NodeId n = 0; n < kNodes; ++n) mirror.push_back(GridPoint(&rng));
    index.PublishAll([] {
      std::vector<NodeId> ids(kNodes);
      for (NodeId n = 0; n < kNodes; ++n) ids[n] = n;
      return ids;
    }(), mirror);
  }

  IndexMatch Match(NodeId n, const Vec& target) const {
    return IndexMatch{n, mirror[n].DistanceTo(target), mirror[n]};
  }

  // The walked members of a probed query (0, +1, -1, +2, -2, ...), minus
  // exclusions, fully sorted and truncated to k.
  std::vector<IndexMatch> RefKNearest(const Vec& target, size_t k,
                                      size_t probe_width,
                                      std::vector<NodeId> exclude) const {
    const ChordRing& ring = index.ring();
    auto lookup = ring.Lookup(index.quantizer().Key(target));
    EXPECT_TRUE(lookup.ok());
    std::sort(exclude.begin(), exclude.end());
    const size_t n = ring.NumMembers();
    const size_t total = std::min(2 * std::min(probe_width, n) + 1, n);
    std::vector<IndexMatch> out;
    for (size_t step = 0; step < total; ++step) {
      const size_t i = (step + 1) / 2;
      const ChordRing::Member& m =
          step % 2 == 1 ? ring.SuccessorAt(lookup->member_index, i)
                        : ring.PredecessorAt(lookup->member_index, i);
      if (std::binary_search(exclude.begin(), exclude.end(), m.node)) {
        continue;
      }
      out.push_back(Match(m.node, target));
    }
    std::sort(out.begin(), out.end(), MatchLess);
    if (out.size() > k) out.resize(k);
    return out;
  }

  // The sphere walk with a seen-set, then a MatchLess sort of the hits.
  std::vector<IndexMatch> RefWithinRadius(const Vec& target,
                                          double radius) const {
    const ChordRing& ring = index.ring();
    auto lookup = ring.Lookup(index.quantizer().Key(target));
    EXPECT_TRUE(lookup.ok());
    std::vector<bool> seen(kNodes, false);
    std::vector<IndexMatch> out;
    auto consider = [&](const ChordRing::Member& m) {
      if (seen[m.node]) return false;
      seen[m.node] = true;
      const IndexMatch hit = Match(m.node, target);
      if (hit.distance <= radius) out.push_back(hit);
      return hit.distance <= radius;
    };
    consider(ring.SuccessorAt(lookup->member_index, 0));
    const size_t n = ring.NumMembers();
    size_t succ_misses = 0, pred_misses = 0;
    bool succ_done = false, pred_done = false;
    for (size_t i = 1; i < n && (!succ_done || !pred_done); ++i) {
      if (!succ_done) {
        if (consider(ring.SuccessorAt(lookup->member_index, i))) {
          succ_misses = 0;
        } else if (++succ_misses >= 8) {
          succ_done = true;
        }
      }
      if (!pred_done) {
        if (consider(ring.PredecessorAt(lookup->member_index, i))) {
          pred_misses = 0;
        } else if (++pred_misses >= 8) {
          pred_done = true;
        }
      }
    }
    std::sort(out.begin(), out.end(), MatchLess);
    return out;
  }
};

void ExpectSame(const std::vector<IndexMatch>& got,
                const std::vector<IndexMatch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].node, want[i].node) << "rank " << i;
    ASSERT_EQ(got[i].distance, want[i].distance) << "rank " << i;
    ASSERT_TRUE(got[i].coord == want[i].coord) << "rank " << i;
  }
}

TEST(IndexEquivalenceTest, KNearestWithTiesEqualsTruncatedFullSort) {
  size_t tied_cutoffs = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 31 + 7);
    std::vector<IndexMatch> got;
    IndexQueryCost cost;
    for (int q = 0; q < 200; ++q) {
      const Vec target = GridPoint(&rng);
      const size_t k = 1 + rng.UniformInt(12);
      const size_t width = 1 + rng.UniformInt(40);
      std::vector<NodeId> exclude;
      for (size_t e = rng.UniformInt(5); e > 0; --e) {
        exclude.push_back(static_cast<NodeId>(rng.UniformInt(kNodes)));
      }
      ASSERT_TRUE(
          fx.index.KNearestInto(target, k, width, &cost, exclude, &got).ok());
      const std::vector<IndexMatch> full =
          fx.RefKNearest(target, kNodes, width, exclude);
      ExpectSame(got, fx.RefKNearest(target, k, width, exclude));
      // A tie straddling the cutoff: the node id decides who is kept.
      if (full.size() > k && full[k].distance == full[k - 1].distance) {
        ++tied_cutoffs;
      }
    }
  }
  EXPECT_GT(tied_cutoffs, 50u);
}

TEST(IndexEquivalenceTest, WithinRadiusEqualsMatchLessSort) {
  size_t ties = 0;
  for (uint64_t seed : {4u, 5u, 6u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 17 + 3);
    for (int q = 0; q < 100; ++q) {
      const Vec target = GridPoint(&rng);
      const double radius = rng.Uniform(0.0, 30.0);
      IndexQueryCost cost;
      auto got = fx.index.WithinRadius(target, radius, &cost);
      ASSERT_TRUE(got.ok());
      const std::vector<IndexMatch> want = fx.RefWithinRadius(target, radius);
      ExpectSame(*got, want);
      for (size_t i = 1; i < want.size(); ++i) {
        ties += want[i].distance == want[i - 1].distance ? 1 : 0;
      }
    }
  }
  EXPECT_GT(ties, 100u);
}

TEST(IndexEquivalenceTest, KNearestNodesEqualsKNearestOrderAndCost) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    TiedIndex fx(seed);
    Rng rng(seed * 13 + 5);
    std::vector<IndexMatch> matches;
    std::vector<NodeId> nodes;
    for (int q = 0; q < 200; ++q) {
      const Vec target = GridPoint(&rng);
      const size_t k = 1 + rng.UniformInt(12);
      const size_t width = 1 + rng.UniformInt(40);
      IndexQueryCost match_cost, node_cost;
      ASSERT_TRUE(fx.index
                      .KNearestInto(target, k, width, &match_cost, {},
                                    &matches)
                      .ok());
      ASSERT_TRUE(
          fx.index.KNearestNodesInto(target, k, width, &node_cost, &nodes)
              .ok());
      ASSERT_EQ(nodes.size(), matches.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(nodes[i], matches[i].node) << "rank " << i;
      }
      EXPECT_EQ(node_cost.lookups, match_cost.lookups);
      EXPECT_EQ(node_cost.routing_hops, match_cost.routing_hops);
      EXPECT_EQ(node_cost.ring_probes, match_cost.ring_probes);
    }
  }
}

// The mapping path the node-only query replaced: KNearestInto's matches,
// with vector-part distances read from each match's copied coordinate.
Status IndexMatchMapCircuit(overlay::Circuit* circuit,
                            const overlay::Sbon& sbon,
                            const placement::MappingOptions& options,
                            placement::MappingReport* report) {
  const size_t scalar_dims = sbon.cost_space().spec().num_scalar_dims();
  auto vector_part_distance = [](const Vec& full, const Vec& point) {
    double s = 0.0;
    for (size_t d = 0; d < point.dims(); ++d) {
      const double diff = full[d] - point[d];
      s += diff * diff;
    }
    return std::sqrt(s);
  };
  std::vector<IndexMatch> candidates;
  for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
    if (!circuit->Placeable(v)) continue;
    const Vec& point = circuit->vertex(v).virtual_coord;
    Vec target = point;
    for (size_t i = 0; i < scalar_dims; ++i) target.Append(0.0);
    Status st = sbon.index().KNearestInto(target, options.k_candidates,
                                          options.probe_width,
                                          &report->dht_cost, {}, &candidates);
    if (!st.ok()) return st;
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
              IndexMatchMapCircuit(&want, *sbon, options, &want_report).ok());
          for (int v = 0; v < static_cast<int>(got.NumVertices()); ++v) {
            ASSERT_EQ(got.vertex(v).host, want.vertex(v).host);
          }
          EXPECT_EQ(got_report.services_mapped, want_report.services_mapped);
          EXPECT_EQ(got_report.total_mapping_error,
                    want_report.total_mapping_error);
          EXPECT_EQ(got_report.load_overrides, want_report.load_overrides);
          EXPECT_EQ(got_report.dht_cost.lookups,
                    want_report.dht_cost.lookups);
          EXPECT_EQ(got_report.dht_cost.routing_hops,
                    want_report.dht_cost.routing_hops);
          EXPECT_EQ(got_report.dht_cost.ring_probes,
                    want_report.dht_cost.ring_probes);
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
