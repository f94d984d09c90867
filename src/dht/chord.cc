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

constexpr auto KeyLess = [](const ChordRing::Member& m, const U128& k) {
  return m.key < k;
};

// The first entry in [first, last) whose key is not below `key`, searched
// forward from `first` in doubling strides starting at `stride`: over keys
// spread like the ring's, a stride of members / moves finds most bounds of
// a sorted batch in one or two probes.
using MemberIt = std::vector<ChordRing::Member>::const_iterator;
MemberIt ForwardLowerBound(MemberIt first, MemberIt last, const U128& key,
                           size_t stride) {
  while (static_cast<size_t>(last - first) > stride &&
         first[stride - 1].key < key) {
    first += stride;
    stride *= 2;
  }
  const size_t span = std::min(stride, static_cast<size_t>(last - first));
  return std::lower_bound(first, first + span, key, KeyLess);
}

// Mixes both halves of a ring key for Rejoin's batch key table.
uint64_t KeyHash(const U128& k) {
  const uint64_t x = k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL);
  return (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9ULL >> 17;
}

}  // namespace

void ChordRing::Join(U128 key, NodeId node) {
  const Member move{key, node};
  Rejoin(&move, 1);
}

void ChordRing::Leave(NodeId node) {
  const size_t pos = EntryOf(node);
  if (pos == kNoMove) return;
  members_.erase(members_.begin() + pos);
  first_hops_.clear();
}

size_t ChordRing::EntryOf(NodeId node) const {
  if (node >= key_of_.size()) return kNoMove;
  // A non-member's stale key finds another node's entry or none.
  const auto pos = std::lower_bound(members_.begin(), members_.end(),
                                    key_of_[node], KeyLess);
  if (pos == members_.end() || pos->node != node) return kNoMove;
  return static_cast<size_t>(pos - members_.begin());
}

size_t ChordRing::TakenSlotOf(const U128& key) const {
  const size_t mask = taken_.size() - 1;
  size_t h = KeyHash(key) & mask;
  while (taken_[h].move != kNoMove && taken_[h].key != key) h = (h + 1) & mask;
  return h;
}

bool ChordRing::KeyTaken(const U128& key, size_t i) const {
  // An old entry is still live at move i unless its node already moved.
  const auto pos =
      std::lower_bound(members_.begin(), members_.end(), key, KeyLess);
  if (pos != members_.end() && pos->key == key &&
      first_move_[pos->node] > i) {
    return true;
  }
  // A key an earlier move received is live until its node moves again.
  const TakenSlot& slot = taken_[TakenSlotOf(key)];
  return slot.move != kNoMove && next_move_[slot.move] > i;
}

void ChordRing::Rejoin(const Member* moves, size_t d) {
  if (d == 0) return;
  ++rejoin_batches_;
  first_hops_.clear();
  NodeId max_node = 0;
  for (size_t i = 0; i < d; ++i) max_node = std::max(max_node, moves[i].node);
  if (first_move_.size() <= max_node) {
    first_move_.resize(static_cast<size_t>(max_node) + 1, kNoMove);
    key_of_.resize(first_move_.size());
  }
  // Batch positions, walked backwards: first_move_ ends at each node's
  // first move, next_move_[i] at the same node's following move.
  next_move_.resize(d);
  // The clash table grows with the batch even when nothing clashes, so the
  // first clash after bring-up does not allocate.
  taken_.reserve(std::bit_ceil(2 * d));
  for (size_t i = d; i-- > 0;) {
    size_t& first = first_move_[moves[i].node];
    next_move_[i] = first;
    first = i;
  }

  // 1. Final keys, in key order.
  SortMoves(moves, d);
  if (!PlaceClashFree()) {
    ++resolved_batches_;
    ResolveKeys(moves, d);
  }

  // 2. Drop every moving node's old entry in one pass over the ring,
  //    closing the gaps with one block move each (every member's node has
  //    a first_move_ slot: it joined through here).
  const auto moving = [&](const Member& m) {
    return first_move_[m.node] != kNoMove;
  };
  const auto end = members_.end();
  auto kept_end = std::find_if(members_.begin(), end, moving);
  for (auto r = kept_end; r != end;) {
    const auto next = std::find_if(++r, end, moving);
    kept_end = std::move(r, next, kept_end);
    r = next;
  }
  members_.erase(kept_end, end);
  for (size_t i = 0; i < d; ++i) first_move_[moves[i].node] = kNoMove;

  // 3. Merge the new entries in from the back, in key order: each one
  //    shifts the kept members above its lower bound up as one block.
  size_t old_end = members_.size();
  members_.resize(old_end + placed_.size());
  size_t w = members_.size();
  for (size_t p = placed_.size(); p-- > 0;) {
    const Member& member = placed_[p];
    const auto first = members_.begin();
    const auto lo = std::lower_bound(first, first + old_end, member.key,
                                     KeyLess);
    std::move_backward(lo, first + old_end, first + w);
    w -= static_cast<size_t>(first + old_end - lo);
    old_end = static_cast<size_t>(lo - first);
    members_[--w] = member;
    key_of_[member.node] = member.key;
  }
}

void ChordRing::SortMoves(const Member* moves, size_t d) {
  sorted_.resize(d);
  U128 varying;
  for (size_t i = 0; i < d; ++i) {
    sorted_[i] = SortedMove{moves[i].key, moves[i].node,
                            next_move_[i] == kNoMove};
    varying = varying | (moves[i].key ^ moves[0].key);
  }
  if (d < kRadixMinMoves) {
    std::sort(sorted_.begin(), sorted_.end(),
              [](const SortedMove& a, const SortedMove& b) {
                return a.key < b.key;
              });
    return;
  }
  // LSD radix sort over the key bytes that vary in the batch (four for the
  // 30-bit keys of a 3-dim Hilbert index): one pass counts every such
  // byte, then one stable scatter per byte, least significant first.
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
  for (const SortedMove& m : sorted_) {
    for (size_t p = 0; p < passes; ++p) {
      ++radix_offsets_[p * kBuckets + digit(m.key, shifts[p])];
    }
  }
  sort_buf_.resize(d);
  for (size_t p = 0; p < passes; ++p) {
    size_t* offset = radix_offsets_.data() + p * kBuckets;
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    for (const SortedMove& m : sorted_) {
      sort_buf_[offset[digit(m.key, shifts[p])]++] = m;
    }
    sorted_.swap(sort_buf_);
  }
}

bool ChordRing::PlaceClashFree() {
  placed_.clear();
  // The moved keys' lower bounds in the ring, each searched from where the
  // last one ended, striding ahead by the mean gap between moved keys.
  const size_t stride = std::max<size_t>(1, members_.size() / sorted_.size());
  auto old = members_.cbegin();
  for (size_t s = 0; s < sorted_.size(); ++s) {
    const SortedMove& m = sorted_[s];
    // Two nodes asking for one key: whichever asks second is perturbed.
    if (s > 0 && sorted_[s - 1].key == m.key && sorted_[s - 1].node != m.node) {
      return false;
    }
    // A key another node holds: perturbed unless that node moved first.
    old = ForwardLowerBound(old, members_.cend(), m.key, stride);
    if (old != members_.cend() && old->key == m.key && old->node != m.node) {
      return false;
    }
    if (m.last) placed_.push_back(Member{m.key, m.node});
  }
  return true;
}

void ChordRing::ResolveKeys(const Member* moves, size_t d) {
  taken_.assign(std::bit_ceil(2 * d), TakenSlot{U128(), kNoMove});
  // Final keys in batch order, perturbing exact duplicates by the node id
  // exactly as a sequential Leave + Join would.
  placed_.clear();
  for (size_t i = 0; i < d; ++i) {
    const Member& move = moves[i];
    const U128 step =
        U128::FromU64((static_cast<uint64_t>(move.node) << 1) | 1);
    U128 k = move.key;
    while (KeyTaken(k, i)) k = k + step;
    // A slot already holding k belongs to a move whose entry is gone.
    taken_[TakenSlotOf(k)] = TakenSlot{k, i};
    if (next_move_[i] == kNoMove) placed_.push_back(Member{k, move.node});
  }
  std::sort(placed_.begin(), placed_.end(),
            [](const Member& a, const Member& b) { return a.key < b.key; });
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const auto it =
      std::lower_bound(members_.begin(), members_.end(), key, KeyLess);
  if (it == members_.end()) return 0;
  return static_cast<size_t>(it - members_.begin());
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
  // whose keys are unique the walk ends within n hops. Where two members
  // share a key it need not end, so past n hops it gives up.
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

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key,
                                                    U128 origin_key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  // Start at the member owning origin_key (its successor).
  const size_t target_idx = SuccessorIndex(key);
  const size_t hops = RouteHops(SuccessorIndex(origin_key), target_idx);
  if (hops == kNoRoute) return NoRouteError();
  return ResultAt(target_idx, hops);
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  // The first member owns its own key (keys are unique), so the route starts
  // at index 0 and its hop count depends on the target index alone.
  const size_t target_idx = SuccessorIndex(key);
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
