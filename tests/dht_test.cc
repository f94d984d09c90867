#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dht/chord.h"
#include "dht/coord_index.h"
#include "dht/hilbert.h"
#include "dht/u128.h"

namespace sbon::dht {
namespace {

// --------------------------- U128 ---------------------------

TEST(U128Test, ComparisonOrdering) {
  EXPECT_LT(U128(0, 1), U128(0, 2));
  EXPECT_LT(U128(0, ~0ULL), U128(1, 0));
  EXPECT_LT(U128(1, 5), U128(2, 0));
  EXPECT_EQ(U128(3, 4), U128(3, 4));
  EXPECT_NE(U128(3, 4), U128(3, 5));
}

TEST(U128Test, AdditionCarries) {
  const U128 a(0, ~0ULL);
  const U128 b = a + U128::FromU64(1);
  EXPECT_EQ(b, U128(1, 0));
}

TEST(U128Test, SubtractionBorrowsAndWraps) {
  EXPECT_EQ(U128(1, 0) - U128::FromU64(1), U128(0, ~0ULL));
  // Ring wrap: 0 - 1 == max.
  EXPECT_EQ(U128() - U128::FromU64(1), U128::Max());
}

TEST(U128Test, AddSubRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const U128 a(rng.Next(), rng.Next());
    const U128 b(rng.Next(), rng.Next());
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST(U128Test, Shifts) {
  const U128 one = U128::FromU64(1);
  EXPECT_EQ(one << 64, U128(1, 0));
  EXPECT_EQ(one << 127, U128(1ULL << 63, 0));
  EXPECT_EQ((one << 64) >> 64, one);
  EXPECT_EQ(one << 128, U128());
  EXPECT_EQ((U128(1, 0) >> 1), U128(0, 1ULL << 63));
}

TEST(U128Test, BitSetAndGet) {
  U128 x;
  x.SetBit(5);
  x.SetBit(70);
  EXPECT_TRUE(x.Bit(5));
  EXPECT_TRUE(x.Bit(70));
  EXPECT_FALSE(x.Bit(6));
  EXPECT_FALSE(x.Bit(69));
}

TEST(U128Test, PowerOfTwo) {
  EXPECT_EQ(PowerOfTwo(0), U128::FromU64(1));
  EXPECT_EQ(PowerOfTwo(63), U128::FromU64(1ULL << 63));
  EXPECT_EQ(PowerOfTwo(64), U128(1, 0));
}

TEST(U128Test, HashDispersion) {
  std::set<uint64_t> his;
  for (uint64_t i = 0; i < 1000; ++i) his.insert(HashU64(i).hi);
  EXPECT_EQ(his.size(), 1000u);  // no collisions in hi word over 1k inputs
}

// --------------------------- Hilbert ---------------------------

class HilbertRoundTripTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(HilbertRoundTripTest, EncodeDecodeBijective) {
  const auto [dims, bits] = GetParam();
  Rng rng(dims * 100 + bits);
  for (int rep = 0; rep < 500; ++rep) {
    std::vector<uint32_t> axes(dims);
    for (auto& a : axes) {
      a = static_cast<uint32_t>(rng.UniformInt(uint64_t{1} << bits));
    }
    const U128 idx = HilbertEncode(axes, bits);
    EXPECT_EQ(HilbertDecode(idx, dims, bits), axes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsBits, HilbertRoundTripTest,
    ::testing::Values(std::make_pair(1u, 8u), std::make_pair(2u, 4u),
                      std::make_pair(2u, 10u), std::make_pair(3u, 7u),
                      std::make_pair(3u, 16u), std::make_pair(4u, 10u),
                      std::make_pair(5u, 12u), std::make_pair(6u, 10u),
                      std::make_pair(8u, 14u)));

TEST(HilbertTest, CurveVisitsEveryCellExactlyOnce) {
  // 2-D, 3 bits: 64 cells; walking indices 0..63 must enumerate all cells.
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (uint64_t i = 0; i < 64; ++i) {
    const auto axes = HilbertDecode(U128::FromU64(i), 2, 3);
    seen.insert({axes[0], axes[1]});
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(HilbertTest, ConsecutiveIndicesAreGridNeighbors) {
  // The defining locality property: successive curve positions differ by
  // exactly one step in exactly one dimension.
  for (unsigned dims : {2u, 3u}) {
    const unsigned bits = (dims == 2) ? 5u : 3u;
    const uint64_t total = 1ULL << (dims * bits);
    auto prev = HilbertDecode(U128::FromU64(0), dims, bits);
    for (uint64_t i = 1; i < total; ++i) {
      const auto cur = HilbertDecode(U128::FromU64(i), dims, bits);
      unsigned changed = 0;
      unsigned delta = 0;
      for (unsigned d = 0; d < dims; ++d) {
        if (cur[d] != prev[d]) {
          ++changed;
          delta = std::max(delta,
                           static_cast<unsigned>(std::abs(
                               static_cast<int64_t>(cur[d]) -
                               static_cast<int64_t>(prev[d]))));
        }
      }
      ASSERT_EQ(changed, 1u) << "at index " << i;
      ASSERT_EQ(delta, 1u) << "at index " << i;
      prev = cur;
    }
  }
}

TEST(HilbertTest, NearbyIndicesNearbyInSpaceOnAverage) {
  // Weaker locality in the useful direction: small index deltas should map
  // to small average grid distances compared to random pairs.
  Rng rng(7);
  const unsigned dims = 2, bits = 8;
  const uint64_t total = 1ULL << (dims * bits);
  double near_dist = 0.0, rand_dist = 0.0;
  const int reps = 2000;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t i = rng.UniformInt(total - 16);
    const auto a = HilbertDecode(U128::FromU64(i), dims, bits);
    const auto b = HilbertDecode(U128::FromU64(i + 1 + rng.UniformInt(15)),
                                 dims, bits);
    const auto c = HilbertDecode(U128::FromU64(rng.UniformInt(total)), dims,
                                 bits);
    auto dist = [](const std::vector<uint32_t>& x,
                   const std::vector<uint32_t>& y) {
      double s = 0;
      for (size_t d = 0; d < x.size(); ++d) {
        const double diff =
            static_cast<double>(x[d]) - static_cast<double>(y[d]);
        s += diff * diff;
      }
      return std::sqrt(s);
    };
    near_dist += dist(a, b);
    rand_dist += dist(a, c);
  }
  EXPECT_LT(near_dist, rand_dist * 0.1);
}

TEST(HilbertQuantizerTest, QuantizeDequantizeWithinCell) {
  HilbertQuantizer q({0.0, 0.0}, {100.0, 100.0}, 8);
  Rng rng(9);
  const double cell = 100.0 / 256.0;
  for (int rep = 0; rep < 300; ++rep) {
    Vec p{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const Vec back = q.Dequantize(q.Quantize(p));
    EXPECT_NEAR(back[0], p[0], cell);
    EXPECT_NEAR(back[1], p[1], cell);
  }
}

TEST(HilbertQuantizerTest, ClampsOutOfBox) {
  HilbertQuantizer q({0.0}, {10.0}, 4);
  EXPECT_EQ(q.Quantize(Vec{-5.0})[0], 0u);
  EXPECT_EQ(q.Quantize(Vec{50.0})[0], 15u);
}

TEST(HilbertQuantizerTest, FitToCoversPointsWithMargin) {
  std::vector<Vec> pts = {{0.0, 5.0}, {10.0, -5.0}, {5.0, 0.0}};
  const HilbertQuantizer q = HilbertQuantizer::FitTo(pts, 8, 0.1);
  for (const Vec& p : pts) {
    const auto cell = q.Quantize(p);
    EXPECT_GT(cell[0], 0u);
    EXPECT_LT(cell[0], 255u);
    EXPECT_GT(cell[1], 0u);
    EXPECT_LT(cell[1], 255u);
  }
}

TEST(HilbertQuantizerTest, DegenerateDimensionHandled) {
  // All points share one coordinate; quantizer must not divide by zero.
  std::vector<Vec> pts = {{1.0, 7.0}, {2.0, 7.0}};
  const HilbertQuantizer q = HilbertQuantizer::FitTo(pts, 6);
  (void)q.Key(Vec{1.5, 7.0});  // must not crash
}

// --------------------------- Chord ---------------------------

// The ring key of `node` at `point`, spelled out here rather than through
// ChordRing::KeyOf so the reference rings below check the key layout too.
U128 RefKey(const U128& point, NodeId node) {
  return (point << 32) | U128::FromU64(node);
}

// A uniform point of up to `bits` <= 96 bits.
U128 RandomPoint(Rng* rng, unsigned bits) {
  return HashU64(rng->Next()) >> (128 - bits);
}

TEST(ChordTest, LookupReturnsSuccessor) {
  ChordRing ring;
  for (uint64_t k : {10, 20, 30, 40, 50}) {
    ring.Join(U128::FromU64(k), static_cast<NodeId>(k));
  }
  auto r = ring.Lookup(U128::FromU64(25));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 30u);
  // Exact point hits its owner.
  r = ring.Lookup(U128::FromU64(30));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 30u);
  EXPECT_EQ(r->key, RefKey(U128::FromU64(30), 30));
  // Wraps past the top.
  r = ring.Lookup(U128::FromU64(55));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 10u);
}

TEST(ChordTest, EmptyRingFails) {
  ChordRing ring;
  EXPECT_FALSE(ring.Lookup(U128::FromU64(1)).ok());
}

TEST(ChordTest, LeaveRemovesNode) {
  ChordRing ring;
  ring.Join(U128::FromU64(10), 1);
  ring.Join(U128::FromU64(20), 2);
  ring.Leave(1);
  auto r = ring.Lookup(U128::FromU64(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 2u);
}

// Nodes in one Hilbert cell get distinct keys, side by side in node-id
// order; a lookup of the cell lands on the lowest node, and a Leave takes
// out only the leaving node's key.
TEST(ChordTest, NodesSharingACellOrderByNodeId) {
  const U128 cell = U128::FromU64(10);
  ChordRing ring;
  ring.Join(U128::FromU64(20), 1);
  for (NodeId node : {7u, 3u, 9u, 5u}) ring.Join(cell, node);
  ASSERT_EQ(ring.NumMembers(), 5u);
  const std::vector<NodeId> in_cell = {3, 5, 7, 9};
  for (size_t i = 0; i < in_cell.size(); ++i) {
    EXPECT_EQ(ring.members()[i].node, in_cell[i]);
    EXPECT_EQ(ring.members()[i].key, RefKey(cell, in_cell[i]));
    EXPECT_EQ(ring.members()[i].key, ChordRing::KeyOf(cell, in_cell[i]));
  }
  EXPECT_EQ(ring.members()[4].node, 1u);
  auto r = ring.Lookup(cell);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 3u);

  ring.Leave(3);
  ASSERT_EQ(ring.NumMembers(), 4u);
  r = ring.Lookup(cell);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 5u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ring.members()[i].key, RefKey(cell, in_cell[i + 1]));
  }
  // A lookup from every member's own point routes to that point's lowest
  // node within one hop per member.
  for (const ChordRing::Member& m : ring.members()) {
    auto routed = ring.Lookup(cell, m.key >> 32);
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed->node, 5u);
    EXPECT_LE(routed->hops, ring.NumMembers());
  }
}

TEST(ChordTest, JoinReplacesExistingEntry) {
  ChordRing ring;
  ring.Join(U128::FromU64(10), 1);
  ring.Join(U128::FromU64(20), 2);
  ring.Join(U128::FromU64(30), 1);
  ASSERT_EQ(ring.NumMembers(), 2u);
  EXPECT_EQ(ring.members()[0].node, 2u);
  EXPECT_EQ(ring.members()[1].node, 1u);
  EXPECT_EQ(ring.members()[1].key, RefKey(U128::FromU64(30), 1));
  // Rejoining at its own point keeps the node's key.
  ring.Join(U128::FromU64(30), 1);
  ASSERT_EQ(ring.NumMembers(), 2u);
  EXPECT_EQ(ring.members()[1].key, RefKey(U128::FromU64(30), 1));
  auto r = ring.Lookup(U128::FromU64(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 2u);
}

// The sequential membership Rejoin replaces, kept as the reference: each
// node's key by node id, so a Join replaces the node's key and a Leave
// drops it.
struct ReferenceRing {
  std::map<NodeId, U128> key_of;

  void Leave(NodeId node) { key_of.erase(node); }
  void Join(const U128& point, NodeId node) {
    key_of[node] = RefKey(point, node);
  }
  std::vector<ChordRing::Member> Members() const {
    std::vector<ChordRing::Member> members;
    for (const auto& [node, key] : key_of) members.push_back({key, node});
    std::sort(members.begin(), members.end(),
              [](const ChordRing::Member& a, const ChordRing::Member& b) {
                return a.key < b.key;
              });
    return members;
  }
};

// Applies `moves` to both rings (Rejoin vs Leave + Join per move) and
// checks the memberships are bitwise equal, and that the batch counted
// once.
void ExpectRejoinMatchesReference(const std::vector<ChordRing::Move>& moves,
                                  ChordRing* ring, ReferenceRing* ref) {
  for (const ChordRing::Move& m : moves) {
    ref->Leave(m.node);
    ref->Join(m.point, m.node);
  }
  const size_t batches = ring->rejoin_batches();
  ring->Rejoin(moves);
  EXPECT_EQ(ring->rejoin_batches(), batches + (moves.empty() ? 0 : 1));
  const std::vector<ChordRing::Member> want = ref->Members();
  ASSERT_EQ(ring->NumMembers(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(ring->members()[i].key, want[i].key) << "entry " << i;
    ASSERT_EQ(ring->members()[i].node, want[i].node) << "entry " << i;
  }
}

// Rejoin is one sorted rewrite with the sequential result: for any batch —
// nodes sharing a point, a node moving to a point another node leaves in
// the same batch, a node moving twice — the membership is bitwise what
// Leave + Join per move produces. Points in [0, 24) over 32 nodes make all
// three common; interleaved Leaves shrink the ring between batches.
TEST(ChordTest, RejoinMatchesSequentialMembership) {
  size_t shared = 0, moved_twice = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ReferenceRing ref;
    ChordRing ring;
    for (int step = 0; step < 60; ++step) {
      if (rng.UniformInt(5) == 0) {
        const NodeId node = static_cast<NodeId>(rng.UniformInt(32));
        ref.Leave(node);
        ring.Leave(node);
        const std::vector<ChordRing::Member> want = ref.Members();
        ASSERT_EQ(ring.NumMembers(), want.size()) << "step " << step;
        continue;
      }
      std::vector<ChordRing::Move> moves(1 + rng.UniformInt(12));
      for (ChordRing::Move& m : moves) {
        m.point = U128::FromU64(rng.UniformInt(24));
        m.node = static_cast<NodeId>(rng.UniformInt(32));
      }
      for (size_t i = 0; i < moves.size(); ++i) {
        for (size_t j = i + 1; j < moves.size(); ++j) {
          moved_twice += moves[j].node == moves[i].node;
          shared += moves[j].point == moves[i].point &&
                    moves[j].node != moves[i].node;
        }
      }
      ExpectRejoinMatchesReference(moves, &ring, &ref);
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(moved_twice, 0u);
}

// The refresh batch at ε=1: every member of a 496-node ring moves at once,
// in random order, some nodes twice, with points from [0, 600) so many
// nodes share a cell. Then single moves on the same full ring, the
// message-mode publish.
TEST(ChordTest, FullRingAndSingleMoveRejoinMatchSequential) {
  constexpr size_t kNodes = 496;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto random_point = [&] {
      return U128::FromU64(rng.UniformInt(600));
    };
    ChordRing ring;
    ReferenceRing ref;
    std::vector<ChordRing::Move> moves;
    for (size_t i = 0; i < kNodes; ++i) {
      moves.push_back({random_point(), static_cast<NodeId>(i)});
    }
    ExpectRejoinMatchesReference(moves, &ring, &ref);
    size_t shared = 0;
    for (size_t i = 1; i < kNodes; ++i) {
      shared += (ring.members()[i].key >> 32) ==
                (ring.members()[i - 1].key >> 32);
    }
    EXPECT_GT(shared, 0u);
    for (int batch = 0; batch < 3; ++batch) {
      moves.clear();
      for (size_t i = 0; i < kNodes; ++i) {
        moves.push_back({random_point(), static_cast<NodeId>(i)});
      }
      for (int twice = 0; twice < 40; ++twice) {
        moves.push_back({random_point(),
                         static_cast<NodeId>(rng.UniformInt(kNodes))});
      }
      for (size_t i = moves.size(); i-- > 1;) {
        std::swap(moves[i], moves[rng.UniformInt(i + 1)]);
      }
      ExpectRejoinMatchesReference(moves, &ring, &ref);
    }
    for (int one = 0; one < 200; ++one) {
      ExpectRejoinMatchesReference(
          {{random_point(), static_cast<NodeId>(rng.UniformInt(kNodes))}},
          &ring, &ref);
    }
    EXPECT_EQ(ring.NumMembers(), kNodes);
  }
}

// A batch that lists nodes several times — 2 to 5 moves each, in mixed
// order, as a message-mode drain delivers publishes — leaves the ring
// bitwise as the batch of each node's last move does. Sizes cover both
// sorts (std::sort below 32 moves, the radix sort above).
TEST(ChordTest, RepeatedMovesKeepOnlyTheLast) {
  constexpr size_t kNodes = 240;
  for (size_t repeated : {3, 12, 120, 240}) {
    SCOPED_TRACE(repeated);
    Rng rng(repeated);
    const auto random_point = [&] {
      return U128::FromU64(rng.Next() & ((uint64_t{1} << 30) - 1));
    };
    ChordRing ring, last_only;
    std::vector<ChordRing::Move> full;
    for (size_t i = 0; i < kNodes; ++i) {
      full.push_back({random_point(), static_cast<NodeId>(i)});
    }
    ring.Rejoin(full);
    last_only.Rejoin(full);

    std::vector<ChordRing::Move> moves;
    std::vector<bool> listed(kNodes, false);
    for (size_t i = 0; i < repeated; ++i) {
      const NodeId node = static_cast<NodeId>(rng.UniformInt(kNodes));
      if (listed[node]) continue;
      listed[node] = true;
      for (uint64_t k = 2 + rng.UniformInt(4); k-- > 0;) {
        moves.push_back({random_point(), node});
      }
    }
    for (size_t i = moves.size(); i-- > 1;) {
      std::swap(moves[i], moves[rng.UniformInt(i + 1)]);
    }
    // Each node's last move, in batch order.
    std::vector<ChordRing::Move> last;
    for (size_t i = 0; i < moves.size(); ++i) {
      const bool moves_again =
          std::any_of(moves.begin() + i + 1, moves.end(),
                      [&](const ChordRing::Move& m) {
                        return m.node == moves[i].node;
                      });
      if (!moves_again) last.push_back(moves[i]);
    }
    ASSERT_LT(last.size(), moves.size());
    ring.Rejoin(moves);
    last_only.Rejoin(last);
    ASSERT_EQ(ring.NumMembers(), kNodes);
    ASSERT_EQ(last_only.NumMembers(), kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      ASSERT_EQ(ring.members()[i].key, last_only.members()[i].key) << i;
      ASSERT_EQ(ring.members()[i].node, last_only.members()[i].node) << i;
    }
    for (const ChordRing::Move& m : last) {
      auto r = ring.Lookup(m.point);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->key >> 32, m.point);
    }
  }
}

// Points beyond 32 bits put key bits in `hi`: nodes whose points share
// their low 32 bits (so only `hi` orders their keys) and nodes with
// `hi != 0` land where the sequential Joins put them, through both sorts.
TEST(ChordTest, WideKeysSkipKeyResolution) {
  constexpr size_t kNodes = 200;
  Rng rng(11);
  const auto wide_point = [&] {
    return U128(0, rng.Next() & ((uint64_t{1} << 40) - 1));
  };
  ChordRing ring;
  ReferenceRing ref;
  std::vector<ChordRing::Move> moves;
  for (size_t i = 0; i < kNodes; ++i) {
    moves.push_back({wide_point(), static_cast<NodeId>(i)});
  }
  ExpectRejoinMatchesReference(moves, &ring, &ref);
  for (size_t count : {8, 150}) {
    moves.clear();
    for (size_t i = 0; i < count; ++i) {
      moves.push_back({wide_point(),
                       static_cast<NodeId>(rng.UniformInt(kNodes))});
    }
    // Pairs of moves whose points differ only above bit 31: their keys'
    // `lo` words differ only in the node id, and `hi` orders them.
    for (size_t i = 0; i + 1 < count; i += 4) {
      moves[i + 1].point =
          moves[i].point +
          (U128::FromU64(1 + rng.UniformInt(1000)) << 32);
    }
    size_t wide = 0;
    for (const ChordRing::Move& m : moves) {
      wide += ChordRing::KeyOf(m.point, m.node).hi != 0;
    }
    EXPECT_GT(wide, 0u);
    ExpectRejoinMatchesReference(moves, &ring, &ref);
  }
}

class ChordPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChordPropertyTest, LookupMatchesSortedMapOracle) {
  const size_t n = GetParam();
  Rng rng(n);
  ChordRing ring;
  std::map<U128, NodeId> oracle;
  for (size_t i = 0; i < n; ++i) {
    const U128 point = RandomPoint(&rng, 96);
    ring.Join(point, static_cast<NodeId>(i));
    oracle[RefKey(point, static_cast<NodeId>(i))] = static_cast<NodeId>(i);
  }
  for (int rep = 0; rep < 300; ++rep) {
    const U128 q = RandomPoint(&rng, 96);
    auto it = oracle.lower_bound(q << 32);
    const NodeId expected =
        (it == oracle.end()) ? oracle.begin()->second : it->second;
    // Route from a random origin to exercise the fingers.
    const U128 origin = RandomPoint(&rng, 96);
    auto r = ring.Lookup(q, origin);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->node, expected);
  }
}

TEST_P(ChordPropertyTest, HopCountLogarithmic) {
  const size_t n = GetParam();
  Rng rng(n + 777);
  ChordRing ring;
  for (size_t i = 0; i < n; ++i) {
    ring.Join(RandomPoint(&rng, 96), static_cast<NodeId>(i));
  }
  const double log2n = std::log2(static_cast<double>(n));
  size_t worst = 0;
  double total = 0.0;
  const int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    auto r = ring.Lookup(RandomPoint(&rng, 96), RandomPoint(&rng, 96));
    ASSERT_TRUE(r.ok());
    worst = std::max(worst, r->hops);
    total += static_cast<double>(r->hops);
  }
  EXPECT_LE(worst, static_cast<size_t>(2.0 * log2n + 4.0));
  EXPECT_LE(total / reps, log2n + 2.0);
}

// Reference Chord with a materialized finger table, built the way rings
// stored it before fingers were derived inside Lookup: fingers[m][i] =
// successor(members[m].key + 2^i), routed by the greedy scan for the
// closest preceding finger.
class MaterializedFingerChord {
 public:
  explicit MaterializedFingerChord(std::vector<ChordRing::Member> members)
      : members_(std::move(members)), fingers_(members_.size() * kBits) {
    for (size_t m = 0; m < members_.size(); ++m) {
      for (unsigned i = 0; i < kBits; ++i) {
        fingers_[m * kBits + i] =
            SuccessorIndex(members_[m].key + PowerOfTwo(i));
      }
    }
  }

  ChordRing::LookupResult Lookup(U128 key, U128 origin_key) const {
    const size_t n = members_.size();
    size_t cur = SuccessorIndex(origin_key);
    const size_t target_idx = SuccessorIndex(key);
    size_t hops = 0;
    while (cur != target_idx) {
      const U128& cur_key = members_[cur].key;
      const size_t succ = (cur + 1) % n;
      ++hops;
      if (InOpenClosed(key, cur_key, members_[succ].key)) {
        cur = succ;
        break;
      }
      size_t next = succ;
      for (unsigned i = kBits; i-- > 0;) {
        const size_t f = fingers_[cur * kBits + i];
        const U128& fkey = members_[f].key;
        if (f != cur && InOpenClosed(fkey, cur_key, key) && fkey != key) {
          next = f;
          break;
        }
      }
      cur = next;
    }
    ChordRing::LookupResult r;
    r.node = members_[cur].node;
    r.key = members_[cur].key;
    r.hops = hops;
    r.member_index = cur;
    return r;
  }

 private:
  static constexpr unsigned kBits = 128;

  // True if `x` lies in the clockwise interval (a, b].
  static bool InOpenClosed(const U128& x, const U128& a, const U128& b) {
    return x != a && (x - a) <= (b - a);
  }

  size_t SuccessorIndex(U128 key) const {
    const auto it = std::lower_bound(
        members_.begin(), members_.end(), key,
        [](const ChordRing::Member& m, const U128& k) { return m.key < k; });
    if (it == members_.end()) return 0;
    return static_cast<size_t>(it - members_.begin());
  }

  std::vector<ChordRing::Member> members_;
  std::vector<size_t> fingers_;
};

// Every lookup on `ring` — random points from random origins, member
// points, and member points as origins — must take the reference's route
// between the points' lowest keys.
void ExpectRoutesMatchReference(const ChordRing& ring, unsigned bits,
                                Rng* rng) {
  const MaterializedFingerChord ref(ring.members());
  const auto check = [&](const U128& point, const U128& origin) {
    auto got = ring.Lookup(point, origin);
    ASSERT_TRUE(got.ok());
    const ChordRing::LookupResult want = ref.Lookup(point << 32, origin << 32);
    EXPECT_EQ(got->node, want.node);
    EXPECT_EQ(got->key, want.key);
    EXPECT_EQ(got->hops, want.hops);
    EXPECT_EQ(got->member_index, want.member_index);
  };
  for (int rep = 0; rep < 300; ++rep) {
    check(RandomPoint(rng, bits), RandomPoint(rng, bits));
  }
  for (const ChordRing::Member& m : ring.members()) {
    check(m.key >> 32, RandomPoint(rng, bits));
    check(RandomPoint(rng, bits), m.key >> 32);
  }
}

TEST_P(ChordPropertyTest, LookupMatchesMaterializedFingerTable) {
  const size_t n = GetParam();
  Rng rng(n + 4242);
  // Full-width (96-bit) points, Hilbert-width (40-bit) points, and 6-bit
  // points dense enough that nodes share them.
  for (const unsigned bits : {96u, 40u, 6u}) {
    SCOPED_TRACE(bits);
    ChordRing ring;
    for (size_t i = 0; i < n; ++i) {
      ring.Join(RandomPoint(&rng, bits), static_cast<NodeId>(i));
    }
    ExpectRoutesMatchReference(ring, bits, &rng);
    ChordRing single;
    single.Join(RandomPoint(&rng, bits), 0);
    ExpectRoutesMatchReference(single, bits, &rng);
  }
}

// Lookup(point) keeps its hop counts in a memo that every membership change
// clears. Random Join / Leave / Rejoin batches interleave with lookups that
// warm the memo; after every mutation each first-member lookup — random
// points and every member's point, so every point's lowest member as a
// target — must take the route the reference takes from the first
// member's key.
TEST(ChordTest, FirstMemberLookupFollowsMembershipChanges) {
  for (const size_t n : {5u, 64u, 300u}) {
    for (const unsigned bits : {96u, 40u, 6u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " bits=" << bits);
      Rng rng(n * 131 + bits);
      const auto random_point = [&] { return RandomPoint(&rng, bits); };
      const auto random_node = [&] {
        return static_cast<NodeId>(rng.UniformInt(n + n / 2));
      };
      ChordRing ring;
      for (size_t i = 0; i < n; ++i) {
        ring.Join(random_point(), static_cast<NodeId>(i));
      }
      for (int step = 0; step < 30; ++step) {
        const uint64_t kind = rng.UniformInt(3);
        if (kind == 0 || ring.NumMembers() == 1) {
          ring.Join(random_point(), random_node());
        } else if (kind == 1) {
          ring.Leave(ring.members()[rng.UniformInt(ring.NumMembers())].node);
        } else {
          std::vector<ChordRing::Move> moves(1 + rng.UniformInt(8));
          for (ChordRing::Move& m : moves) m = {random_point(), random_node()};
          ring.Rejoin(moves);
        }
        const MaterializedFingerChord ref(ring.members());
        const U128 origin = ring.members()[0].key;
        const auto check = [&](const U128& point) {
          auto got = ring.Lookup(point);
          ASSERT_TRUE(got.ok());
          const ChordRing::LookupResult want = ref.Lookup(point << 32, origin);
          ASSERT_EQ(got->hops, want.hops) << "step " << step;
          ASSERT_EQ(got->node, want.node) << "step " << step;
          ASSERT_EQ(got->member_index, want.member_index) << "step " << step;
        };
        for (int q = 0; q < 50; ++q) check(random_point());
        for (const ChordRing::Member& m : ring.members()) check(m.key >> 32);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, ChordPropertyTest,
                         ::testing::Values(2, 5, 16, 64, 200, 500));

TEST(ChordTest, SuccessorPredecessorWalk) {
  ChordRing ring;
  for (uint64_t k : {10, 20, 30}) {
    ring.Join(U128::FromU64(k), static_cast<NodeId>(k));
  }
  auto r = ring.Lookup(U128::FromU64(15));
  ASSERT_TRUE(r.ok());  // member 20 at index 1
  // Walking the sorted members from the lookup's index, both ways.
  const std::vector<ChordRing::Member>& m = ring.members();
  const size_t n = m.size();
  EXPECT_EQ(m[r->member_index].node, 20u);
  EXPECT_EQ(m[(r->member_index + 1) % n].node, 30u);
  EXPECT_EQ(m[(r->member_index + 2) % n].node, 10u);  // wrap
  EXPECT_EQ(m[(r->member_index + n - 1) % n].node, 10u);
  EXPECT_EQ(m[(r->member_index + n - 2) % n].node, 30u);  // wrap
}

// --------------------------- CoordinateIndex ---------------------------

CoordinateIndex MakeIndex(const std::vector<Vec>& coords, unsigned bits = 8) {
  CoordinateIndex idx(HilbertQuantizer::FitTo(coords, bits));
  for (size_t i = 0; i < coords.size(); ++i) {
    idx.Publish(static_cast<NodeId>(i), coords[i]);
  }
  return idx;
}

// The probed query's node ids, nearest first (a fresh vector per call).
std::vector<NodeId> ProbedNodes(const CoordinateIndex& idx, const Vec& target,
                                size_t k, size_t probe_width = 16,
                                IndexQueryCost* cost = nullptr) {
  std::vector<NodeId> out;
  EXPECT_TRUE(idx.KNearestNodesInto(target, k, probe_width, cost, &out).ok());
  return out;
}

std::vector<NodeId> ExactNodes(const CoordinateIndex& idx, const Vec& target,
                               size_t k) {
  std::vector<NodeId> out;
  idx.KNearestExactInto(target, k, &out);
  return out;
}

std::vector<NodeId> SphereNodes(const CoordinateIndex& idx, const Vec& target,
                                double radius) {
  std::vector<NodeId> out;
  EXPECT_TRUE(idx.WithinRadiusInto(target, radius, nullptr, &out).ok());
  return out;
}

TEST(CoordinateIndexTest, NearestFindsObviousNeighbor) {
  std::vector<Vec> coords = {{0, 0}, {100, 100}, {50, 50}, {10, 2}};
  auto idx = MakeIndex(coords);
  EXPECT_EQ(ProbedNodes(idx, Vec{9, 1}, 1), std::vector<NodeId>{3});
  EXPECT_EQ(ExactNodes(idx, Vec{9, 1}, 1), std::vector<NodeId>{3});
}

TEST(CoordinateIndexTest, EmptyIndexFails) {
  CoordinateIndex idx(HilbertQuantizer({0.0}, {1.0}, 4));
  std::vector<NodeId> out = {7};
  EXPECT_FALSE(idx.KNearestNodesInto(Vec{0.5}, 1, 16, nullptr, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(idx.WithinRadiusInto(Vec{0.5}, 1.0, nullptr, &out).ok());
  idx.KNearestExactInto(Vec{0.5}, 1, &out);
  EXPECT_TRUE(out.empty());
}

TEST(CoordinateIndexTest, WithdrawRemoves) {
  std::vector<Vec> coords = {{0, 0}, {1, 1}};
  auto idx = MakeIndex(coords);
  idx.Withdraw(0);
  EXPECT_EQ(ProbedNodes(idx, Vec{0, 0}, 1), std::vector<NodeId>{1});
  EXPECT_EQ(ExactNodes(idx, Vec{0, 0}, 2), std::vector<NodeId>{1});
}

TEST(CoordinateIndexTest, RepublishMovesNode) {
  std::vector<Vec> coords = {{0, 0}, {100, 100}};
  auto idx = MakeIndex(coords);
  idx.Publish(0, Vec{90, 90});
  EXPECT_EQ(ProbedNodes(idx, Vec{80, 80}, 1), std::vector<NodeId>{0});
  EXPECT_EQ(idx.NumPublished(), 2u);
}

// A batch publish builds the ring a node-by-node Publish would. With two
// Hilbert bits per dimension the 2-D box has only 16 cells, so most nodes
// share a cell and sit in node-id order within it.
TEST(CoordinateIndexTest, PublishAllMatchesOneByOnePublish) {
  Rng rng(7);
  std::vector<NodeId> nodes;
  std::vector<Vec> coords;
  for (NodeId n = 0; n < 60; ++n) {
    nodes.push_back(n);
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  const HilbertQuantizer q = HilbertQuantizer::FitTo(coords, 2);
  CoordinateIndex batch(q), single(q);
  auto expect_same = [&]() {
    ASSERT_EQ(batch.NumPublished(), single.NumPublished());
    for (size_t i = 0; i < batch.NumPublished(); ++i) {
      EXPECT_EQ(batch.ring().members()[i].key, single.ring().members()[i].key);
      EXPECT_EQ(batch.ring().members()[i].node,
                single.ring().members()[i].node);
    }
    for (int rep = 0; rep < 20; ++rep) {
      const Vec target{rng.Uniform(0, 100), rng.Uniform(0, 100)};
      EXPECT_EQ(ProbedNodes(batch, target, 5, 4),
                ProbedNodes(single, target, 5, 4));
    }
  };
  batch.PublishAll(nodes, coords);
  for (size_t i = 0; i < nodes.size(); ++i) single.Publish(nodes[i], coords[i]);
  expect_same();

  // Republish a subset (one node twice) after a withdrawal.
  batch.Withdraw(3);
  single.Withdraw(3);
  std::vector<NodeId> moved;
  std::vector<Vec> moved_coords;
  for (NodeId n : {5u, 3u, 40u, 5u, 12u, 59u}) {
    moved.push_back(n);
    moved_coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  batch.PublishAll(moved, moved_coords);
  for (size_t i = 0; i < moved.size(); ++i) {
    single.Publish(moved[i], moved_coords[i]);
  }
  expect_same();
  EXPECT_EQ(batch.NumPublished(), 60u);
}

TEST(CoordinateIndexTest, KNearestSortedByDistance) {
  Rng rng(3);
  std::vector<Vec> coords;
  for (int i = 0; i < 60; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto idx = MakeIndex(coords);
  const Vec target{50, 50};
  const std::vector<NodeId> got = ProbedNodes(idx, target, 10, 30);
  ASSERT_EQ(got.size(), 10u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(coords[got[i - 1]].DistanceTo(target),
              coords[got[i]].DistanceTo(target));
  }
}

class IndexAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexAccuracyTest, WideProbeMatchesExactOracle) {
  Rng rng(GetParam());
  std::vector<Vec> coords;
  const size_t n = 120;
  for (size_t i = 0; i < n; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto idx = MakeIndex(coords, 10);
  for (int rep = 0; rep < 30; ++rep) {
    const Vec target{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    // Probe width covering the whole ring: must equal the oracle.
    EXPECT_EQ(ProbedNodes(idx, target, 5, n), ExactNodes(idx, target, 5));
  }
}

TEST_P(IndexAccuracyTest, NarrowProbeNearOptimal) {
  Rng rng(GetParam() + 50);
  std::vector<Vec> coords;
  const size_t n = 200;
  for (size_t i = 0; i < n; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto idx = MakeIndex(coords, 10);
  double got_total = 0.0, want_total = 0.0;
  for (int rep = 0; rep < 60; ++rep) {
    const Vec target{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const std::vector<NodeId> got =
        ProbedNodes(idx, target, 1, /*probe_width=*/16);
    ASSERT_EQ(got.size(), 1u);
    const std::vector<NodeId> want = ExactNodes(idx, target, 1);
    got_total += coords[got[0]].DistanceTo(target);
    want_total += coords[want[0]].DistanceTo(target);
  }
  // Hilbert probing is approximate; on average it must stay within 2x of
  // the exact nearest distance (typically much closer).
  EXPECT_LE(got_total, want_total * 2.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexAccuracyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(CoordinateIndexTest, WithinRadiusFindsAllNearby) {
  std::vector<Vec> coords = {{0, 0}, {3, 0}, {0, 4}, {30, 40}, {100, 100}};
  auto idx = MakeIndex(coords);
  const std::vector<NodeId> got = SphereNodes(idx, Vec{0, 0}, 5.5);
  const std::set<NodeId> nodes(got.begin(), got.end());
  EXPECT_EQ(nodes.size(), got.size());  // each member at most once
  EXPECT_TRUE(nodes.count(0));
  EXPECT_TRUE(nodes.count(1));
  EXPECT_TRUE(nodes.count(2));
  EXPECT_FALSE(nodes.count(4));
}

TEST(CoordinateIndexTest, WithinRadiusZeroMatchesOnlyCoincident) {
  std::vector<Vec> coords = {{5, 5}, {6, 6}};
  auto idx = MakeIndex(coords);
  EXPECT_EQ(SphereNodes(idx, Vec{5, 5}, 0.0), std::vector<NodeId>{0});
}

TEST(CoordinateIndexTest, QueryCostAccounted) {
  Rng rng(5);
  std::vector<Vec> coords;
  for (int i = 0; i < 100; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  auto idx = MakeIndex(coords);
  IndexQueryCost cost;
  EXPECT_EQ(ProbedNodes(idx, Vec{50, 50}, 4, 8, &cost).size(), 4u);
  EXPECT_EQ(cost.lookups, 1u);
  EXPECT_GT(cost.ring_probes, 0u);
  std::vector<NodeId> sphere;
  ASSERT_TRUE(idx.WithinRadiusInto(Vec{50, 50}, 10.0, &cost, &sphere).ok());
  EXPECT_EQ(cost.lookups, 2u);
}

// Straightforward reference for the probed query, kept deliberately naive:
// rebuild the sorted ring from the published coordinates, walk the curve
// neighborhood with an explicit seen-set (the pre-optimization algorithm),
// re-rank by true distance, truncate to k. The production fast path must
// return the same nodes in the same order.
std::vector<NodeId> ReferenceKNearest(const CoordinateIndex& idx,
                                      const std::vector<Vec>& coords,
                                      const Vec& target, size_t k,
                                      size_t probe_width) {
  struct RingEntry {
    U128 key;
    NodeId node;
  };
  std::vector<RingEntry> ring;
  for (NodeId n = 0; n < coords.size(); ++n) {
    ring.push_back(RingEntry{idx.quantizer().Key(coords[n]), n});
  }
  // Nodes sharing a cell sit in node-id order.
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.key != b.key ? a.key < b.key : a.node < b.node;
            });
  const size_t n = ring.size();
  const U128 key = idx.quantizer().Key(target);
  size_t start = 0;
  while (start < n && ring[start].key < key) ++start;
  start %= n;  // successor(key), wrapping

  std::set<NodeId> seen;
  std::vector<std::pair<double, NodeId>> cand;
  auto consider = [&](size_t mi) {
    const NodeId node = ring[mi].node;
    if (!seen.insert(node).second) return;
    cand.emplace_back(coords[node].DistanceTo(target), node);
  };
  const size_t width = std::min(probe_width, n);
  consider(start);
  for (size_t i = 1; i <= width; ++i) {
    consider((start + i) % n);
    consider((start + n - (i % n)) % n);
  }
  std::sort(cand.begin(), cand.end());  // by distance, node id breaking ties
  std::vector<NodeId> out;
  for (size_t i = 0; i < std::min(k, cand.size()); ++i) {
    out.push_back(cand[i].second);
  }
  return out;
}

// `n` uniform points of the 100 x 100 box.
std::vector<Vec> RandomCoords(size_t n, Rng* rng) {
  std::vector<Vec> coords;
  for (size_t i = 0; i < n; ++i) {
    coords.push_back(Vec{rng->Uniform(0, 100), rng->Uniform(0, 100)});
  }
  return coords;
}

class IndexEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalenceTest, KNearestMatchesReferenceBitIdentically) {
  Rng rng(GetParam());
  const size_t n = 90;
  const auto coords = RandomCoords(n, &rng);
  auto idx = MakeIndex(coords, 10);
  std::vector<NodeId> got;  // reused across queries, as mapping does
  for (int rep = 0; rep < 40; ++rep) {
    const Vec target{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    const size_t k = 1 + rng.UniformInt(8);
    const size_t width = 1 + rng.UniformInt(2 * n);  // includes wrap cases
    ASSERT_TRUE(idx.KNearestNodesInto(target, k, width, nullptr, &got).ok());
    EXPECT_EQ(got, ReferenceKNearest(idx, coords, target, k, width));
  }
}

TEST_P(IndexEquivalenceTest, KNearestExactMatchesFullSortReference) {
  Rng rng(GetParam() + 1000);
  const size_t n = 150;
  std::vector<Vec> coords;
  for (size_t i = 0; i < n; ++i) {
    coords.push_back(Vec{rng.Uniform(0, 50), rng.Uniform(0, 50)});
  }
  auto idx = MakeIndex(coords, 9);
  std::vector<NodeId> got;
  for (int rep = 0; rep < 40; ++rep) {
    const Vec target{rng.Uniform(0, 50), rng.Uniform(0, 50)};
    const size_t k = 1 + rng.UniformInt(n + 10);  // includes k > population
    // Reference: sort everything by (distance, node), take the prefix.
    std::vector<std::pair<double, NodeId>> all;
    for (NodeId node = 0; node < n; ++node) {
      all.emplace_back(coords[node].DistanceTo(target), node);
    }
    std::sort(all.begin(), all.end());
    std::vector<NodeId> want;
    for (size_t i = 0; i < std::min(k, all.size()); ++i) {
      want.push_back(all[i].second);
    }
    idx.KNearestExactInto(target, k, &got);
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(CoordinateIndexTest, RingProbesBilledOncePerDistinctMember) {
  Rng rng(9);
  const size_t n = 12;
  const auto coords = RandomCoords(n, &rng);
  auto idx = MakeIndex(coords, 10);
  const Vec target{50, 50};
  for (size_t width : {size_t{1}, size_t{3}, size_t{5}, size_t{16}}) {
    IndexQueryCost cost;
    ProbedNodes(idx, target, 4, width, &cost);
    // One probe per distinct ring member in the walk window — wrapping past
    // the far side of the ring must not bill the same member twice.
    EXPECT_EQ(cost.ring_probes, std::min(2 * width + 1, n)) << width;
    EXPECT_EQ(cost.lookups, 1u);
  }
  // A sphere holding every member walks the whole ring once.
  IndexQueryCost cost;
  std::vector<NodeId> sphere;
  ASSERT_TRUE(idx.WithinRadiusInto(target, 1e9, &cost, &sphere).ok());
  EXPECT_EQ(std::set<NodeId>(sphere.begin(), sphere.end()).size(), n);
  EXPECT_EQ(sphere.size(), n);
  EXPECT_EQ(cost.ring_probes, n);
}

TEST(CoordinateIndexTest, HigherDimensionalIndexWorks) {
  Rng rng(7);
  std::vector<Vec> coords;
  for (int i = 0; i < 80; ++i) {
    Vec v(4);
    for (int d = 0; d < 4; ++d) v[d] = rng.Uniform(0, 10);
    coords.push_back(v);
  }
  auto idx = MakeIndex(coords, 8);
  Vec target(4);
  for (int d = 0; d < 4; ++d) target[d] = 5.0;
  const std::vector<NodeId> got = ProbedNodes(idx, target, 3, 80);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], ExactNodes(idx, target, 3)[0]);
}

}  // namespace
}  // namespace sbon::dht
