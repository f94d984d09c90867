// Selection pins of the coordinate index: KNearestInto picks its top k by
// partial_sort over (distance, node) pairs and steps its ring walk without
// a modulo; WithinRadius ranks (distance, node) pairs and builds matches
// last. Published coordinates here sit on a coarse grid, so many nodes
// share a coordinate and distance ties are the norm: every answer must
// equal a full sort of the same walked members under the (distance, node)
// order, truncated to k.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "dht/coord_index.h"
#include "dht/hilbert.h"

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

}  // namespace
}  // namespace sbon::dht
