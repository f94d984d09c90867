// Equivalence of dht::ChordRing's successor search with a std::lower_bound
// reference. The ring keeps one branch-free lower bound over its sorted
// members; Lookup(point), Lookup(point, origin), the route's fingers, Leave
// and Rejoin's merge all go through it, and Lookup(p, p) answers with one
// search and no route. Every answer must equal the reference's: the
// successor by std::lower_bound (wrapping to member 0), and the hop count
// of a textbook Chord route from the origin's successor, which forwards to
// the closest preceding finger, successor(cur + 2^i) for the largest i
// that lands strictly between cur and the target key.
//
// Rings of 1, 2, 3, 17, 240, 496 and 2000 members, with 30-bit points (a
// 3-dim, 10-bit Hilbert index) and 96-bit ones, a quarter of the members
// sharing a point with an earlier one so the node bits break the ties.
// Targets: every member's own point, a point below the first key and one
// above the last (both wrap to member 0), and random points.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/chord.h"
#include "dht/u128.h"

namespace sbon::dht {
namespace {

using Member = ChordRing::Member;

// First member whose key is not below `key`, wrapping to 0.
size_t RefSuccessor(const std::vector<Member>& members, const U128& key) {
  const auto it = std::lower_bound(
      members.begin(), members.end(), key,
      [](const Member& m, const U128& k) { return m.key < k; });
  return it == members.end() ? 0
                             : static_cast<size_t>(it - members.begin());
}

// True if `x` lies strictly between `a` and `b` going clockwise (a != b).
bool StrictlyBetween(const U128& x, const U128& a, const U128& b) {
  const U128 dx = x - a;
  return U128() < dx && dx < b - a;
}

// Hops of the textbook route from member `cur` toward `key`, whose
// successor is member `target`. Chord's find_successor: stop when `key`
// lies in (cur, successor(cur)], else forward to the closest preceding
// finger. Past one hop per member the route cannot end: returns -1.
size_t RefHops(const std::vector<Member>& members, size_t cur,
               const U128& key, size_t target) {
  const size_t n = members.size();
  size_t hops = 0;
  while (cur != target) {
    if (hops > n) return static_cast<size_t>(-1);
    const size_t next = (cur + 1) % n;
    const U128& cur_key = members[cur].key;
    if (next == target) {
      cur = next;
    } else {
      size_t finger = next;
      for (unsigned i = 128; i-- > 0;) {
        // A finger at or past the key cannot precede it: skip its search.
        if (!(PowerOfTwo(i) < key - cur_key)) continue;
        const size_t f = RefSuccessor(members, cur_key + PowerOfTwo(i));
        if (StrictlyBetween(members[f].key, cur_key, key)) {
          finger = f;
          break;
        }
      }
      cur = finger;
    }
    ++hops;
  }
  return hops;
}

struct RefResult {
  size_t member_index;
  NodeId node;
  size_t hops;
};

RefResult RefLookup(const std::vector<Member>& members, const U128& point,
                    const U128& origin) {
  const U128 key = ChordRing::KeyOf(point, 0);
  const size_t target = RefSuccessor(members, key);
  const size_t start = RefSuccessor(members, ChordRing::KeyOf(origin, 0));
  return RefResult{target, members[target].node,
                   RefHops(members, start, key, target)};
}

// Point widths: a 3-dim, 10-bit Hilbert index, and the widest point a ring
// key leaves room for.
constexpr unsigned kNarrowBits = 30;
constexpr unsigned kWideBits = 128 - ChordRing::kNodeBits;

U128 MaxPoint(unsigned bits) {
  return (U128::Max() >> (128 - bits));
}

// A point in [1, MaxPoint(bits) - 1]: 0 and the maximum stay free as
// targets below the first key and above the last.
U128 RandomPoint(unsigned bits, Rng* rng) {
  const U128 wide(rng->Next(), rng->Next());
  const U128 p = wide >> (128 - bits);
  if (p == U128()) return U128::FromU64(1);
  if (p == MaxPoint(bits)) return p - U128::FromU64(1);
  return p;
}

// Joins `n` members with distinct node ids in random order; a quarter of
// them at an earlier member's point.
ChordRing MakeRing(size_t n, unsigned bits, Rng* rng) {
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n; ++i) nodes.push_back(static_cast<NodeId>(3 * i));
  for (size_t i = n; i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng->UniformInt(i)]);
  }
  std::vector<U128> points;
  ChordRing ring;
  for (NodeId node : nodes) {
    const U128 point = !points.empty() && rng->UniformInt(4) == 0
                           ? points[rng->UniformInt(points.size())]
                           : RandomPoint(bits, rng);
    points.push_back(point);
    ring.Join(point, node);
  }
  return ring;
}

// Compares every lookup of `target` on `ring` against the reference: the
// first-member lookup (twice: the second reads the hop memo), the
// self-route, and routes from each of `origins`.
void ExpectLookupsMatch(const ChordRing& ring, const U128& target,
                        const std::vector<U128>& origins) {
  const std::vector<Member>& members = ring.members();
  SCOPED_TRACE("target " + target.ToString());
  const auto check = [&](const StatusOr<ChordRing::LookupResult>& got,
                         const RefResult& want) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->member_index, want.member_index);
    EXPECT_EQ(got->node, want.node);
    EXPECT_EQ(got->key, members[want.member_index].key);
    EXPECT_EQ(got->hops, want.hops);
  };
  // Lookup(point) routes from the first member, which owns its own key.
  const RefResult from_first =
      RefLookup(members, target, members[0].key >> ChordRing::kNodeBits);
  check(ring.Lookup(target), from_first);
  check(ring.Lookup(target), from_first);
  const RefResult self = RefLookup(members, target, target);
  EXPECT_EQ(self.hops, 0u);
  check(ring.Lookup(target, target), self);
  for (const U128& origin : origins) {
    SCOPED_TRACE("origin " + origin.ToString());
    check(ring.Lookup(target, origin), RefLookup(members, target, origin));
  }
}

void ExpectRingMatches(const ChordRing& ring, unsigned bits, Rng* rng) {
  const std::vector<Member>& members = ring.members();
  ASSERT_TRUE(std::is_sorted(
      members.begin(), members.end(),
      [](const Member& a, const Member& b) { return a.key < b.key; }));
  const auto some_origins = [&] {
    std::vector<U128> origins = {
        RandomPoint(bits, rng),
        members[rng->UniformInt(members.size())].key >> ChordRing::kNodeBits};
    return origins;
  };
  // Below the first key and above the last: both wrap to member 0.
  for (const U128& edge : {U128(), MaxPoint(bits)}) {
    auto r = ring.Lookup(edge);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->member_index, 0u);
    ExpectLookupsMatch(ring, edge, some_origins());
  }
  for (const Member& m : members) {
    ExpectLookupsMatch(ring, m.key >> ChordRing::kNodeBits, some_origins());
    if (testing::Test::HasFailure()) return;
  }
  for (size_t i = 0; i < 64; ++i) {
    ExpectLookupsMatch(ring, RandomPoint(bits, rng), some_origins());
  }
}

struct RingCase {
  size_t members;
  unsigned bits;
};

void PrintTo(const RingCase& c, std::ostream* os) {
  *os << c.members << " members, " << c.bits << "-bit points";
}

class RingEquivalenceTest : public testing::TestWithParam<RingCase> {};

TEST_P(RingEquivalenceTest, LookupsMatchLowerBoundReference) {
  const RingCase c = GetParam();
  Rng rng(1000 + c.members + c.bits);
  const ChordRing ring = MakeRing(c.members, c.bits, &rng);
  ASSERT_EQ(ring.NumMembers(), c.members);
  ExpectRingMatches(ring, c.bits, &rng);
}

// Leave finds a node's entry, and Rejoin merges its moves in, through the
// same search: after rounds of leaves and batched moves the membership
// equals a sort of the expected entries, and lookups still match.
TEST_P(RingEquivalenceTest, MembershipChangesMatchSortedReference) {
  const RingCase c = GetParam();
  Rng rng(2000 + c.members + c.bits);
  ChordRing ring = MakeRing(c.members, c.bits, &rng);
  std::vector<Member> want = ring.members();
  for (size_t round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (want.size() > 1) {
      const size_t gone = rng.UniformInt(want.size());
      ring.Leave(want[gone].node);
      want.erase(want.begin() + static_cast<std::ptrdiff_t>(gone));
    }
    // A batch that moves some members (a node may move twice: its last
    // move wins) and brings one new node in.
    std::vector<ChordRing::Move> moves;
    for (size_t i = 0; i < (want.size() + 1) / 2; ++i) {
      const NodeId node = want[rng.UniformInt(want.size())].node;
      moves.push_back({RandomPoint(c.bits, &rng), node});
    }
    moves.push_back({RandomPoint(c.bits, &rng), static_cast<NodeId>(
                                                    3 * c.members + round)});
    ring.Rejoin(moves);
    for (const ChordRing::Move& m : moves) {
      std::erase_if(want, [&](const Member& e) { return e.node == m.node; });
    }
    for (size_t i = moves.size(); i-- > 0;) {
      const ChordRing::Move& m = moves[i];
      if (std::none_of(want.begin(), want.end(),
                       [&](const Member& e) { return e.node == m.node; })) {
        want.push_back(Member{ChordRing::KeyOf(m.point, m.node), m.node});
      }
    }
    std::sort(want.begin(), want.end(),
              [](const Member& a, const Member& b) { return a.key < b.key; });
    ASSERT_EQ(ring.NumMembers(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(ring.members()[i].key, want[i].key) << "member " << i;
      ASSERT_EQ(ring.members()[i].node, want[i].node) << "member " << i;
    }
    ExpectRingMatches(ring, c.bits, &rng);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RingEquivalenceTest,
    testing::Values(RingCase{1, kNarrowBits}, RingCase{2, kNarrowBits},
                    RingCase{3, kNarrowBits}, RingCase{17, kNarrowBits},
                    RingCase{240, kNarrowBits}, RingCase{496, kNarrowBits},
                    RingCase{2000, kNarrowBits}, RingCase{3, kWideBits},
                    RingCase{17, kWideBits}, RingCase{240, kWideBits}),
    [](const testing::TestParamInfo<RingCase>& info) {
      return std::to_string(info.param.members) + "_members_" +
             std::to_string(info.param.bits) + "_bit_points";
    });

}  // namespace
}  // namespace sbon::dht
