#include "dht/chord.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sbon::dht {
namespace {

// Index of the highest set bit of a nonzero `x`.
unsigned TopBit(const U128& x) {
  return x.hi != 0 ? 127 - static_cast<unsigned>(std::countl_zero(x.hi))
                   : 63 - static_cast<unsigned>(std::countl_zero(x.lo));
}

}  // namespace

void ChordRing::Join(U128 key, NodeId node) {
  if (in_bulk_) {
    // Same perturbation rule against the map: "does this exact key exist?"
    // is what the vector's lower_bound equality probe asks, so the final
    // key assignment is identical to the sequential vector path.
    U128 k = key;
    while (bulk_members_.count(k) != 0) {
      k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
    }
    bulk_members_.emplace(k, node);
    bulk_key_of_[node] = k;
    return;
  }
  // Perturb exact duplicates so every member has a unique ring key.
  // `members_` stays sorted by key, so existence is a binary search and the
  // new member is spliced in at its lower bound instead of re-sorting the
  // whole ring on every join.
  const auto key_less = [](const Member& m, const U128& k) {
    return m.key < k;
  };
  U128 k = key;
  auto pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
  while (pos != members_.end() && pos->key == k) {
    k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
    pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
  }
  members_.insert(pos, Member{k, node});
}

void ChordRing::Leave(NodeId node) {
  if (in_bulk_) {
    auto it = bulk_key_of_.find(node);
    if (it != bulk_key_of_.end()) {
      bulk_members_.erase(it->second);
      bulk_key_of_.erase(it);
    }
    return;
  }
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&](const Member& m) {
                                  return m.node == node;
                                }),
                 members_.end());
}

void ChordRing::BeginBulk() {
  if (in_bulk_) return;
  in_bulk_ = true;
  bulk_members_.clear();
  bulk_key_of_.clear();
  bulk_key_of_.reserve(members_.size());
  for (const Member& m : members_) {
    bulk_members_.emplace(m.key, m.node);
    bulk_key_of_.emplace(m.node, m.key);
  }
}

void ChordRing::EndBulk() {
  if (!in_bulk_) return;
  in_bulk_ = false;
  members_.clear();
  members_.reserve(bulk_members_.size());
  for (const auto& [k, node] : bulk_members_) {
    members_.push_back(Member{k, node});
  }
  bulk_members_.clear();
  bulk_key_of_.clear();
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), key,
      [](const Member& m, const U128& k) { return m.key < k; });
  if (it == members_.end()) return 0;
  return static_cast<size_t>(it - members_.begin());
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key,
                                                    U128 origin_key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  if (in_bulk_) return Status::FailedPrecondition("ring in a bulk window");

  // Start at the member owning origin_key (its successor).
  size_t cur = SuccessorIndex(origin_key);
  size_t hops = 0;
  const size_t n = members_.size();
  const size_t target_idx = SuccessorIndex(key);
  // The last member strictly before `key`.
  const size_t pred_idx = (target_idx + n - 1) % n;
  const U128& pred_key = members_[pred_idx].key;

  // Greedy Chord routing: while the key is not between cur and its
  // immediate successor, forward to the closest preceding finger. Finger i
  // of cur is successor(cur + 2^i), which lies strictly between cur and key
  // iff some member sits in [cur + 2^i, key), i.e. iff 2^i <= pred - cur.
  // The closest preceding finger is therefore finger j for the top set bit
  // j of pred - cur. Each hop lands strictly closer to key, so the walk
  // ends within n hops.
  while (cur != target_idx) {
    if (cur == pred_idx) {
      cur = target_idx;  // key lies in (cur, successor]
    } else {
      const U128& cur_key = members_[cur].key;
      cur = SuccessorIndex(cur_key + PowerOfTwo(TopBit(pred_key - cur_key)));
    }
    ++hops;
  }
  LookupResult r;
  r.node = members_[cur].node;
  r.key = members_[cur].key;
  r.hops = hops;
  r.member_index = cur;
  return r;
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  return Lookup(key, members_[0].key);
}

const ChordRing::Member& ChordRing::SuccessorAt(size_t member_index,
                                                size_t i) const {
  return members_[(member_index + i) % members_.size()];
}

const ChordRing::Member& ChordRing::PredecessorAt(size_t member_index,
                                                  size_t i) const {
  const size_t n = members_.size();
  return members_[(member_index + n - (i % n)) % n];
}

}  // namespace sbon::dht
