#include "dht/chord.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace sbon::dht {
namespace {

// Index of the highest set bit of a nonzero `x`.
unsigned TopBit(const U128& x) {
  return x.hi != 0 ? 127 - static_cast<unsigned>(std::countl_zero(x.hi))
                   : 63 - static_cast<unsigned>(std::countl_zero(x.lo));
}

// `a < b` as one flag, with no branch on which word decides.
inline bool KeyBelow(const U128& a, const U128& b) {
  return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
}

}  // namespace

U128 ChordRing::KeyOf(const U128& point, NodeId node) {
  assert(point >> (128 - kNodeBits) == U128());
  return (point << kNodeBits) | U128::FromU64(node);
}

void ChordRing::Join(U128 point, NodeId node) {
  const Move move{point, node};
  Rejoin(&move, 1);
}

void ChordRing::Leave(NodeId node) {
  const size_t pos = EntryOf(node);
  if (pos == kNoEntry) return;
  members_.erase(members_.begin() + pos);
  first_hops_.clear();
}

size_t ChordRing::EntryOf(NodeId node) const {
  if (node >= key_of_.size()) return kNoEntry;
  // A non-member's stale key finds another node's entry or none.
  const size_t pos = LowerBound(key_of_[node], 0, members_.size());
  if (pos == members_.size() || members_[pos].node != node) return kNoEntry;
  return pos;
}

void ChordRing::Rejoin(const Move* moves, size_t d) {
  if (d == 0) return;
  ++rejoin_batches_;
  first_hops_.clear();
  NodeId max_node = 0;
  for (size_t i = 0; i < d; ++i) max_node = std::max(max_node, moves[i].node);
  if (moving_.size() <= max_node) {
    moving_.resize(static_cast<size_t>(max_node) + 1, 0);
    key_of_.resize(moving_.size());
  }

  // 1. Each node's last move, walking the batch backwards: a node's earlier
  //    moves leave no trace, since no key it held can displace another's.
  sorted_.clear();
  sorted_.reserve(d);
  for (size_t i = d; i-- > 0;) {
    const Move& move = moves[i];
    if (moving_[move.node] != 0) continue;
    moving_[move.node] = 1;
    sorted_.push_back(Member{KeyOf(move.point, move.node), move.node});
  }

  // 2. The kept moves in key order.
  SortMoves();

  // 3. Drop every moving node's old entry in one pass over the ring,
  //    closing the gaps with one block move each (every member's node has
  //    a moving_ slot: it joined through here).
  const auto moving = [&](const Member& m) { return moving_[m.node] != 0; };
  const auto end = members_.end();
  auto kept_end = std::find_if(members_.begin(), end, moving);
  for (auto r = kept_end; r != end;) {
    const auto next = std::find_if(++r, end, moving);
    kept_end = std::move(r, next, kept_end);
    r = next;
  }
  members_.erase(kept_end, end);
  for (const Member& m : sorted_) moving_[m.node] = 0;

  // 4. Merge the kept moves in from the back, in key order: each one
  //    shifts the kept members above its lower bound up as one block. The
  //    bound lies below the previous move's, usually close by, so doubling
  //    steps down from there bracket it and the search runs inside the
  //    bracket: O(log gap) compares a move, not O(log n).
  size_t old_end = members_.size();
  members_.resize(old_end + sorted_.size());
  size_t w = members_.size();
  for (size_t p = sorted_.size(); p-- > 0;) {
    const Member& member = sorted_[p];
    const auto first = members_.begin();
    size_t hi = old_end;
    size_t step = 1;
    while (step <= hi && !KeyBelow(members_[hi - step].key, member.key)) {
      hi -= step;
      step *= 2;
    }
    const size_t lo =
        LowerBound(member.key, step <= hi ? hi - step + 1 : 0, hi);
    std::move_backward(first + lo, first + old_end, first + w);
    w -= old_end - lo;
    old_end = lo;
    members_[--w] = member;
    key_of_[member.node] = member.key;
  }
}

void ChordRing::SortMoves() {
  const size_t d = sorted_.size();
  U128 varying;
  for (const Member& m : sorted_) varying = varying | (m.key ^ sorted_[0].key);
  if (d < kRadixMinMoves) {
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Member& a, const Member& b) { return a.key < b.key; });
    return;
  }
  // LSD radix sort over the key bytes that vary in the batch (six for the
  // 30-bit points of a 3-dim Hilbert index above node ids below 2^16): one
  // pass counts every such byte, then one stable scatter per byte, least
  // significant first.
  constexpr unsigned kDigitBits = 8;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  const auto digit = [](const U128& key, unsigned shift) {
    const uint64_t word = shift < 64 ? key.lo >> shift : key.hi >> (shift - 64);
    return static_cast<size_t>(word & (kBuckets - 1));
  };
  unsigned shifts[128 / kDigitBits] = {};
  size_t passes = 0;
  for (unsigned shift = 0; shift < 128; shift += kDigitBits) {
    if (digit(varying, shift) != 0) shifts[passes++] = shift;
  }
  radix_offsets_.assign(passes * kBuckets, 0);
  for (const Member& m : sorted_) {
    for (size_t p = 0; p < passes; ++p) {
      ++radix_offsets_[p * kBuckets + digit(m.key, shifts[p])];
    }
  }
  sort_buf_.resize(d);
  for (size_t p = 0; p < passes; ++p) {
    size_t* offset = radix_offsets_.data() + p * kBuckets;
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    for (const Member& m : sorted_) {
      sort_buf_[offset[digit(m.key, shifts[p])]++] = m;
    }
    sorted_.swap(sort_buf_);
  }
}

size_t ChordRing::LowerBound(const U128& key, size_t begin,
                             size_t end) const {
  if (begin == end) return end;
  // Branch-free binary search (Khuong & Morin, "Array Layouts for
  // Comparison-Based Searching", JEA 2017): the answer stays in
  // [base, base + len], and each step halves len with one select on a
  // two-word compare, so the loop runs ceil(log2(end - begin)) times
  // whatever the key and mispredicts nothing but its exit.
  const Member* base = members_.data() + begin;
  size_t len = end - begin;
  while (len > 1) {
    const size_t half = len / 2;
    base += static_cast<size_t>(KeyBelow(base[half].key, key)) * half;
    len -= half;
  }
  return static_cast<size_t>(base - members_.data()) +
         static_cast<size_t>(KeyBelow(base->key, key));
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const size_t i = LowerBound(key, 0, members_.size());
  return i == members_.size() ? 0 : i;
}

size_t ChordRing::RouteHops(size_t cur, size_t target_idx) const {
  const size_t n = members_.size();
  // The last member strictly before the target's key.
  const size_t pred_idx = (target_idx + n - 1) % n;
  const U128& pred_key = members_[pred_idx].key;

  // Greedy Chord routing: while the key is not between cur and its
  // immediate successor, forward to the closest preceding finger. Finger i
  // of cur is successor(cur + 2^i), which lies strictly between cur and key
  // iff some member sits in [cur + 2^i, key), i.e. iff 2^i <= pred - cur.
  // The closest preceding finger is therefore finger j for the top set bit
  // j of pred - cur. Each hop lands strictly closer to key, so on a ring
  // whose keys are unique — as KeyOf makes them — the walk ends within n
  // hops. Where two members shared a key it need not end, so past n hops
  // it gives up.
  size_t hops = 0;
  while (cur != target_idx) {
    if (hops == n) return kNoRoute;
    if (cur == pred_idx) {
      cur = target_idx;  // key lies in (cur, successor]
    } else {
      const U128& cur_key = members_[cur].key;
      cur = SuccessorIndex(cur_key + PowerOfTwo(TopBit(pred_key - cur_key)));
    }
    ++hops;
  }
  return hops;
}

Status ChordRing::NoRouteError() {
  return Status::Internal(
      "Chord route did not end within one hop per member: ring keys are not "
      "unique");
}

ChordRing::LookupResult ChordRing::ResultAt(size_t member_index,
                                            size_t hops) const {
  LookupResult r;
  r.node = members_[member_index].node;
  r.key = members_[member_index].key;
  r.hops = hops;
  r.member_index = member_index;
  return r;
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 point,
                                                    U128 origin_point) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  // Start at the member owning origin_point's lowest key (its successor).
  const size_t target_idx = SuccessorIndex(KeyOf(point, 0));
  // A route from the target's own owner is 0 hops: no second search.
  if (origin_point == point) return ResultAt(target_idx, 0);
  const size_t hops =
      RouteHops(SuccessorIndex(KeyOf(origin_point, 0)), target_idx);
  if (hops == kNoRoute) return NoRouteError();
  return ResultAt(target_idx, hops);
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 point) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  // The first member owns its own key (keys are unique), so the route starts
  // at index 0 and its hop count depends on the target index alone.
  const size_t target_idx = SuccessorIndex(KeyOf(point, 0));
  if (first_hops_.empty()) first_hops_.assign(members_.size(), kUnrouted);
  uint32_t& hops = first_hops_[target_idx];
  if (hops == kUnrouted) {
    const size_t routed = RouteHops(0, target_idx);
    if (routed == kNoRoute) return NoRouteError();
    hops = static_cast<uint32_t>(routed);
  }
  return ResultAt(target_idx, hops);
}

}  // namespace sbon::dht
