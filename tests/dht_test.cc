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

TEST(ChordTest, LookupReturnsSuccessor) {
  ChordRing ring;
  for (uint64_t k : {10, 20, 30, 40, 50}) {
    ring.Join(U128::FromU64(k), static_cast<NodeId>(k));
  }
  auto r = ring.Lookup(U128::FromU64(25));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 30u);
  // Exact key hits its owner.
  r = ring.Lookup(U128::FromU64(30));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 30u);
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

TEST(ChordTest, DuplicateKeysPerturbed) {
  ChordRing ring;
  ring.Join(U128::FromU64(10), 1);
  ring.Join(U128::FromU64(10), 2);
  EXPECT_EQ(ring.NumMembers(), 2u);
  EXPECT_NE(ring.members()[0].key, ring.members()[1].key);
}

TEST(ChordTest, JoinReplacesExistingEntry) {
  ChordRing ring;
  ring.Join(U128::FromU64(10), 1);
  ring.Join(U128::FromU64(20), 2);
  ring.Join(U128::FromU64(30), 1);
  ASSERT_EQ(ring.NumMembers(), 2u);
  EXPECT_EQ(ring.members()[0].node, 2u);
  EXPECT_EQ(ring.members()[1].node, 1u);
  EXPECT_EQ(ring.members()[1].key, U128::FromU64(30));
  // Rejoining at its own key keeps the key unperturbed: the node's old
  // entry is gone before the new one is placed.
  ring.Join(U128::FromU64(30), 1);
  ASSERT_EQ(ring.NumMembers(), 2u);
  EXPECT_EQ(ring.members()[1].key, U128::FromU64(30));
  auto r = ring.Lookup(U128::FromU64(5));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node, 2u);
}

// The sequential vector membership Rejoin replaces, kept as the reference:
// Leave drops the node's entries; Join perturbs an exact duplicate key by
// the node id until it is free, then splices the entry in at its lower
// bound.
struct ReferenceRing {
  std::vector<ChordRing::Member> members;

  void Leave(NodeId node) {
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](const ChordRing::Member& m) {
                                   return m.node == node;
                                 }),
                  members.end());
  }
  void Join(U128 key, NodeId node) {
    const auto key_less = [](const ChordRing::Member& m, const U128& k) {
      return m.key < k;
    };
    U128 k = key;
    auto pos = std::lower_bound(members.begin(), members.end(), k, key_less);
    while (pos != members.end() && pos->key == k) {
      k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
      pos = std::lower_bound(members.begin(), members.end(), k, key_less);
    }
    members.insert(pos, ChordRing::Member{k, node});
  }
};

// Rejoin is one sorted rewrite with the sequential result: for any batch —
// duplicate-key perturbation chains, a requested key still held by a node
// that moves later in the batch, a node moving twice — the membership is
// bitwise what Leave + Join per move produces. Keys in [0, 24) over 32
// nodes make all three common; interleaved Leaves shrink the ring between
// batches.
TEST(ChordTest, RejoinMatchesSequentialMembership) {
  size_t perturbed = 0, held_by_later_mover = 0, moved_twice = 0;
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
      } else {
        std::vector<ChordRing::Member> moves(1 + rng.UniformInt(12));
        for (ChordRing::Member& m : moves) {
          m.key = U128::FromU64(rng.UniformInt(24));
          m.node = static_cast<NodeId>(rng.UniformInt(32));
        }
        // Coverage: the cases the batch key assignment must get right.
        for (size_t i = 0; i < moves.size(); ++i) {
          for (size_t j = i + 1; j < moves.size(); ++j) {
            if (moves[j].node == moves[i].node) ++moved_twice;
          }
          for (const ChordRing::Member& old : ref.members) {
            if (old.key != moves[i].key) continue;
            bool moves_later = false, moved_before = false;
            for (size_t j = 0; j < moves.size(); ++j) {
              if (moves[j].node != old.node) continue;
              (j > i ? moves_later : moved_before) = true;
            }
            if (moves_later && !moved_before) ++held_by_later_mover;
          }
        }
        for (const ChordRing::Member& m : moves) {
          ref.Leave(m.node);
          ref.Join(m.key, m.node);
          const auto it = std::find_if(
              ref.members.begin(), ref.members.end(),
              [&](const ChordRing::Member& e) { return e.node == m.node; });
          if (it->key != m.key) ++perturbed;
        }
        ring.Rejoin(moves);
      }
      ASSERT_EQ(ring.NumMembers(), ref.members.size()) << "step " << step;
      for (size_t i = 0; i < ref.members.size(); ++i) {
        EXPECT_EQ(ring.members()[i].key, ref.members[i].key)
            << "step " << step << " entry " << i;
        EXPECT_EQ(ring.members()[i].node, ref.members[i].node)
            << "step " << step << " entry " << i;
      }
    }
  }
  EXPECT_GT(perturbed, 0u);
  EXPECT_GT(held_by_later_mover, 0u);
  EXPECT_GT(moved_twice, 0u);
}

// Applies `moves` to both rings (Rejoin vs Leave + Join per move) and
// checks the memberships are bitwise equal.
void ExpectRejoinMatchesReference(const std::vector<ChordRing::Member>& moves,
                                  ChordRing* ring, ReferenceRing* ref) {
  for (const ChordRing::Member& m : moves) {
    ref->Leave(m.node);
    ref->Join(m.key, m.node);
  }
  ring->Rejoin(moves);
  ASSERT_EQ(ring->NumMembers(), ref->members.size());
  for (size_t i = 0; i < ref->members.size(); ++i) {
    ASSERT_EQ(ring->members()[i].key, ref->members[i].key) << "entry " << i;
    ASSERT_EQ(ring->members()[i].node, ref->members[i].node) << "entry " << i;
  }
}

// The refresh batch at ε=1: every member of a 496-node ring moves at once,
// in random order, some nodes twice, with keys from [0, 600) so perturbation
// chains run through keys the old and the new entries both hold. Then
// single moves on the same full ring, the message-mode publish.
TEST(ChordTest, FullRingAndSingleMoveRejoinMatchSequential) {
  constexpr size_t kNodes = 496;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto random_key = [&] { return U128::FromU64(rng.UniformInt(600)); };
    ChordRing ring;
    ReferenceRing ref;
    std::vector<ChordRing::Member> moves;
    for (size_t i = 0; i < kNodes; ++i) {
      moves.push_back({random_key(), static_cast<NodeId>(i)});
    }
    ExpectRejoinMatchesReference(moves, &ring, &ref);
    size_t perturbed = 0;
    for (const ChordRing::Member& m : ring.members()) {
      if (m.key != moves[m.node].key) ++perturbed;
    }
    EXPECT_GT(perturbed, 0u);
    for (int batch = 0; batch < 3; ++batch) {
      moves.clear();
      for (size_t i = 0; i < kNodes; ++i) {
        moves.push_back({random_key(), static_cast<NodeId>(i)});
      }
      for (int twice = 0; twice < 40; ++twice) {
        moves.push_back({random_key(),
                         static_cast<NodeId>(rng.UniformInt(kNodes))});
      }
      for (size_t i = moves.size(); i-- > 1;) {
        std::swap(moves[i], moves[rng.UniformInt(i + 1)]);
      }
      ExpectRejoinMatchesReference(moves, &ring, &ref);
    }
    for (int one = 0; one < 200; ++one) {
      ExpectRejoinMatchesReference(
          {{random_key(), static_cast<NodeId>(rng.UniformInt(kNodes))}},
          &ring, &ref);
    }
    EXPECT_EQ(ring.NumMembers(), kNodes);
  }
}

// Applies `moves` as ExpectRejoinMatchesReference does and checks that the
// batch counted once, and whether it clashed and so resolved its keys move
// by move.
void ExpectRejoinPath(const std::vector<ChordRing::Member>& moves,
                      bool resolved, ChordRing* ring, ReferenceRing* ref) {
  const size_t batches = ring->rejoin_batches();
  const size_t resolved_before = ring->resolved_batches();
  ExpectRejoinMatchesReference(moves, ring, ref);
  EXPECT_EQ(ring->rejoin_batches(), batches + 1);
  EXPECT_EQ(ring->resolved_batches() - resolved_before, resolved ? 1u : 0u);
}

// Draws ring keys no member holds and no earlier draw of the same batch
// returned: the batches of the tests below clash only where they say so.
class FreshKeys {
 public:
  FreshKeys(const ChordRing& ring, uint64_t seed, uint64_t hi_values = 1)
      : rng_(seed), hi_values_(hi_values) {
    for (const ChordRing::Member& m : ring.members()) used_.insert(m.key);
  }
  U128 Next() {
    U128 key;
    do {
      key = U128(rng_.UniformInt(hi_values_),
                 rng_.Next() & ((uint64_t{1} << 30) - 1));
    } while (!Claim(key));
    return key;
  }
  /// Takes `key` out of later draws; false if a draw or member had it.
  bool Claim(const U128& key) { return used_.insert(key).second; }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  uint64_t hi_values_;
  std::set<U128> used_;
};

// `count` distinct nodes of [0, nodes) moving to fresh keys, in random
// order.
std::vector<ChordRing::Member> FreshBatch(size_t nodes, size_t count,
                                          FreshKeys* keys) {
  std::vector<NodeId> order(nodes);
  for (size_t i = 0; i < nodes; ++i) order[i] = static_cast<NodeId>(i);
  std::vector<ChordRing::Member> moves;
  for (size_t i = 0; i < count; ++i) {
    std::swap(order[i], order[i + keys->rng().UniformInt(nodes - i)]);
    moves.push_back({keys->Next(), order[i]});
  }
  return moves;
}

// Batches in which no node asks for a key another node holds or asks for —
// the refresh at ε=1 with 30-bit Hilbert keys — skip key resolution: every
// node lands at its last move's key. Sizes cover both sorts (std::sort
// below 32 moves, the radix sort above) and held-key lower bounds that
// stride one member and hundreds. Some nodes move twice to one key, some
// to two different keys.
TEST(ChordTest, CollisionFreeBatchesSkipKeyResolution) {
  constexpr size_t kNodes = 496;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    ChordRing ring;
    ReferenceRing ref;
    {
      FreshKeys keys(ring, seed);
      ExpectRejoinPath(FreshBatch(kNodes, kNodes, &keys), false, &ring, &ref);
    }
    for (size_t count : {1, 2, 16, 31, 32, 124, 300, 465, 496}) {
      SCOPED_TRACE(count);
      FreshKeys keys(ring, seed * 1000 + count);
      std::vector<ChordRing::Member> moves = FreshBatch(kNodes, count, &keys);
      const size_t twice = std::min<size_t>(count, 12);
      for (size_t i = 0; i < twice; ++i) {
        // Even: the node asks for its first key again; odd: a new key.
        const ChordRing::Member& first = moves[i];
        moves.push_back({i % 2 == 0 ? first.key : keys.Next(), first.node});
      }
      for (size_t i = moves.size(); i-- > 1;) {
        std::swap(moves[i], moves[keys.rng().UniformInt(i + 1)]);
      }
      ExpectRejoinPath(moves, false, &ring, &ref);
    }
  }
}

// A node asking for its own key is no clash: its old entry leaves first.
TEST(ChordTest, RejoinAtOwnKeySkipsKeyResolution) {
  ChordRing ring;
  ReferenceRing ref;
  FreshKeys keys(ring, 7);
  ExpectRejoinPath(FreshBatch(64, 64, &keys), false, &ring, &ref);
  const std::vector<ChordRing::Member> before = ring.members();
  ExpectRejoinPath({before[10]}, false, &ring, &ref);
  ExpectRejoinPath({before[3], before[40], before[3]}, false, &ring, &ref);
  ExpectRejoinPath(before, false, &ring, &ref);
  EXPECT_EQ(ring.members().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(ring.members()[i].key, before[i].key);
    EXPECT_EQ(ring.members()[i].node, before[i].node);
  }
}

// Every kind of clash sends the batch through key resolution and still
// gives the sequential ring: a move asking for the key of a node that moves
// later in the batch (perturbed), or of one that moved earlier (not
// perturbed, but the check does not look at batch order), two nodes asking
// for one key, and a move asking for a non-moving member's key. Each is
// placed in a small batch and in a full-ring one.
TEST(ChordTest, ClashingBatchesResolveKeys) {
  constexpr size_t kNodes = 496;
  enum Clash { kLaterMover, kEarlierMover, kSameKey, kStillMember };
  for (size_t count : {8, 465}) {
    for (Clash clash : {kLaterMover, kEarlierMover, kSameKey, kStillMember}) {
      SCOPED_TRACE(testing::Message() << count << " moves, clash " << clash);
      ChordRing ring;
      ReferenceRing ref;
      FreshKeys keys(ring, count + clash);
      ExpectRejoinPath(FreshBatch(kNodes, kNodes, &keys), false, &ring, &ref);
      // Node 0 stays put in this batch: it is the still member.
      std::vector<ChordRing::Member> moves = FreshBatch(kNodes, count + 1,
                                                        &keys);
      std::erase_if(moves,
                    [](const ChordRing::Member& m) { return m.node == 0; });
      moves.resize(count);
      const auto key_of = [&](NodeId node) {
        return std::find_if(ref.members.begin(), ref.members.end(),
                            [&](const ChordRing::Member& m) {
                              return m.node == node;
                            })->key;
      };
      const size_t a = 1, b = count - 2;
      switch (clash) {
        case kLaterMover:
          moves[a].key = key_of(moves[b].node);
          break;
        case kEarlierMover:
          moves[b].key = key_of(moves[a].node);
          break;
        case kSameKey:
          moves[b].key = moves[a].key;
          break;
        case kStillMember:
          moves[a].key = key_of(0);
          break;
      }
      // The move that asks for a key someone held first.
      const ChordRing::Member asker =
          clash == kEarlierMover || clash == kSameKey ? moves[b] : moves[a];
      ExpectRejoinPath(moves, true, &ring, &ref);
      // Only a key still held when asked for is moved on.
      EXPECT_EQ(key_of(asker.node) != asker.key, clash != kEarlierMover);
    }
  }
}

// Keys beyond 64 bits sort on both words: nodes whose keys differ only in
// `hi` and nodes with `hi != 0` land where the sequential Joins put them,
// without key resolution, through both sorts.
TEST(ChordTest, WideKeysSkipKeyResolution) {
  constexpr size_t kNodes = 200;
  ChordRing ring;
  ReferenceRing ref;
  FreshKeys keys(ring, 11, /*hi_values=*/4);
  ExpectRejoinPath(FreshBatch(kNodes, kNodes, &keys), false, &ring, &ref);
  for (size_t count : {8, 150}) {
    std::vector<ChordRing::Member> moves = FreshBatch(kNodes, count, &keys);
    // Pairs of moves whose keys differ only in hi (fresh on both words).
    for (size_t i = 0; i + 1 < count; i += 4) {
      U128 lo_twin;
      do {
        lo_twin = U128(moves[i].key.hi + 1 + keys.rng().UniformInt(1000),
                       moves[i].key.lo);
      } while (!keys.Claim(lo_twin));
      moves[i + 1].key = lo_twin;
    }
    size_t wide = 0;
    for (const ChordRing::Member& m : moves) wide += m.key.hi != 0;
    EXPECT_GT(wide, 0u);
    ExpectRejoinPath(moves, false, &ring, &ref);
  }
}

class ChordPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChordPropertyTest, LookupMatchesSortedMapOracle) {
  const size_t n = GetParam();
  Rng rng(n);
  ChordRing ring;
  std::map<U128, NodeId> oracle;
  for (size_t i = 0; i < n; ++i) {
    const U128 key = HashU64(rng.Next());
    ring.Join(key, static_cast<NodeId>(i));
    oracle[key] = static_cast<NodeId>(i);
  }
  for (int rep = 0; rep < 300; ++rep) {
    const U128 q = HashU64(rng.Next());
    auto it = oracle.lower_bound(q);
    const NodeId expected =
        (it == oracle.end()) ? oracle.begin()->second : it->second;
    // Route from a random origin to exercise the fingers.
    const U128 origin = HashU64(rng.Next());
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
    ring.Join(HashU64(rng.Next()), static_cast<NodeId>(i));
  }
  const double log2n = std::log2(static_cast<double>(n));
  size_t worst = 0;
  double total = 0.0;
  const int reps = 400;
  for (int rep = 0; rep < reps; ++rep) {
    auto r = ring.Lookup(HashU64(rng.Next()), HashU64(rng.Next()));
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

// Every lookup on `ring` — random keys from random origins, exact member
// keys, and member keys as origins — must take the reference's route.
void ExpectRoutesMatchReference(const ChordRing& ring, const U128& mask,
                                Rng* rng) {
  const MaterializedFingerChord ref(ring.members());
  const auto check = [&](const U128& key, const U128& origin) {
    auto got = ring.Lookup(key, origin);
    ASSERT_TRUE(got.ok());
    const ChordRing::LookupResult want = ref.Lookup(key, origin);
    EXPECT_EQ(got->node, want.node);
    EXPECT_EQ(got->key, want.key);
    EXPECT_EQ(got->hops, want.hops);
    EXPECT_EQ(got->member_index, want.member_index);
  };
  for (int rep = 0; rep < 300; ++rep) {
    check(HashU64(rng->Next()) & mask, HashU64(rng->Next()) & mask);
  }
  for (const ChordRing::Member& m : ring.members()) {
    check(m.key, HashU64(rng->Next()) & mask);
    check(HashU64(rng->Next()) & mask, m.key);
  }
}

TEST_P(ChordPropertyTest, LookupMatchesMaterializedFingerTable) {
  const size_t n = GetParam();
  Rng rng(n + 4242);
  // Full-width hashed keys, Hilbert-width (40-bit) keys, and 6-bit keys
  // dense enough to force duplicate-key perturbation.
  for (const unsigned bits : {128u, 40u, 6u}) {
    SCOPED_TRACE(bits);
    const U128 mask =
        bits == 128 ? U128::Max() : PowerOfTwo(bits) - U128::FromU64(1);
    ChordRing ring;
    for (size_t i = 0; i < n; ++i) {
      ring.Join(HashU64(rng.Next()) & mask, static_cast<NodeId>(i));
    }
    ExpectRoutesMatchReference(ring, mask, &rng);
    ChordRing single;
    single.Join(HashU64(rng.Next()) & mask, 0);
    ExpectRoutesMatchReference(single, mask, &rng);
  }
}

// Lookup(key) keeps its hop counts in a memo that every membership change
// clears. Random Join / Leave / Rejoin batches interleave with lookups that
// warm the memo; after every mutation each first-member lookup — random
// keys and every member key, so every target index — must take the route
// the reference takes from the first member's key.
TEST(ChordTest, FirstMemberLookupFollowsMembershipChanges) {
  for (const size_t n : {5u, 64u, 300u}) {
    for (const unsigned bits : {128u, 40u, 6u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " bits=" << bits);
      const U128 mask =
          bits == 128 ? U128::Max() : PowerOfTwo(bits) - U128::FromU64(1);
      Rng rng(n * 131 + bits);
      const auto random_key = [&] { return HashU64(rng.Next()) & mask; };
      const auto random_node = [&] {
        return static_cast<NodeId>(rng.UniformInt(n + n / 2));
      };
      ChordRing ring;
      for (size_t i = 0; i < n; ++i) {
        ring.Join(random_key(), static_cast<NodeId>(i));
      }
      for (int step = 0; step < 30; ++step) {
        const uint64_t kind = rng.UniformInt(3);
        if (kind == 0 || ring.NumMembers() == 1) {
          ring.Join(random_key(), random_node());
        } else if (kind == 1) {
          ring.Leave(ring.members()[rng.UniformInt(ring.NumMembers())].node);
        } else {
          std::vector<ChordRing::Member> moves(1 + rng.UniformInt(8));
          for (ChordRing::Member& m : moves) m = {random_key(), random_node()};
          ring.Rejoin(moves);
        }
        const MaterializedFingerChord ref(ring.members());
        const U128 origin = ring.members()[0].key;
        const auto check = [&](const U128& key) {
          auto got = ring.Lookup(key);
          ASSERT_TRUE(got.ok());
          const ChordRing::LookupResult want = ref.Lookup(key, origin);
          ASSERT_EQ(got->hops, want.hops) << "step " << step;
          ASSERT_EQ(got->node, want.node) << "step " << step;
          ASSERT_EQ(got->member_index, want.member_index) << "step " << step;
        };
        for (int q = 0; q < 50; ++q) check(random_key());
        for (const ChordRing::Member& m : ring.members()) check(m.key);
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
// Hilbert bits per dimension the 2-D box has only 16 cells, so most keys
// collide and the batch must reproduce every perturbation chain.
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
  std::sort(ring.begin(), ring.end(),
            [](const RingEntry& a, const RingEntry& b) {
              return a.key < b.key;
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

// Generates a point set whose Hilbert keys are pairwise distinct, so the
// reference ring above (which does not model duplicate-key perturbation)
// agrees with the production ring.
std::vector<Vec> DistinctKeyCoords(size_t n, Rng* rng, unsigned bits) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<Vec> coords;
    for (size_t i = 0; i < n; ++i) {
      coords.push_back(Vec{rng->Uniform(0, 100), rng->Uniform(0, 100)});
    }
    HilbertQuantizer q = HilbertQuantizer::FitTo(coords, bits);
    std::set<U128> keys;
    for (const Vec& c : coords) keys.insert(q.Key(c));
    if (keys.size() == n) return coords;
  }
  ADD_FAILURE() << "could not generate distinct-key coords";
  return {};
}

class IndexEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexEquivalenceTest, KNearestMatchesReferenceBitIdentically) {
  Rng rng(GetParam());
  const size_t n = 90;
  const auto coords = DistinctKeyCoords(n, &rng, 10);
  ASSERT_EQ(coords.size(), n);
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
  const auto coords = DistinctKeyCoords(n, &rng, 10);
  ASSERT_EQ(coords.size(), n);
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
