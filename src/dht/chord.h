#ifndef SBON_DHT_CHORD_H_
#define SBON_DHT_CHORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "dht/u128.h"

namespace sbon::dht {

/// A simulated Chord ring [19]: the decentralized catalog the paper proposes
/// for mapping cost-space coordinates back to physical nodes (Sec. 3.2).
///
/// This is a functional simulation, not a networked implementation: the ring
/// membership is held centrally, but *lookups are routed* exactly as Chord
/// routes them — greedy closest-preceding-finger hops — so the library can
/// account for lookup cost (hop counts) the way a deployment would pay it.
///
/// Fingers are always exact: finger i of a member is successor(key + 2^i)
/// over the current sorted membership, derived during the lookup rather
/// than stored, so a Join or Leave routes correctly with no rebuild step.
class ChordRing {
 public:
  struct Member {
    U128 key;
    NodeId node = kInvalidNode;
  };

  struct LookupResult {
    NodeId node = kInvalidNode;  ///< successor(key) owner
    U128 key;                    ///< its ring key
    size_t hops = 0;             ///< routing hops taken
    size_t member_index = 0;     ///< index into sorted membership
  };

  /// Moves a node to the given ring key: a Rejoin of one. A node holds at
  /// most one entry, so joining an existing member replaces its entry.
  /// Duplicate exact keys are perturbed by the node id (low bits) to keep
  /// keys unique.
  void Join(U128 key, NodeId node);
  /// Removes the node's entry, found by one binary search on its key; a
  /// no-op for a non-member.
  void Leave(NodeId node);

  /// Applies a batch of moves in one sorted rewrite. The final membership
  /// is bitwise what `Leave(m.node); Join(m.key, m.node)` produces run for
  /// each move in order — including the duplicate-key perturbation chains,
  /// and nodes that move more than once. A batch of d moves costs one
  /// linear pass that drops the movers' old entries, a sort of the d new
  /// entries, a binary search per key a move tries and one per new entry
  /// to find its slot, where one block move places it:
  /// O(members + d log members), with no per-move search for a node's old
  /// entry.
  void Rejoin(const std::vector<Member>& moves) {
    Rejoin(moves.data(), moves.size());
  }

  size_t NumMembers() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  /// Chord-routes from the member owning `origin_key` toward `key`;
  /// returns successor(key). Requires a non-empty ring.
  StatusOr<LookupResult> Lookup(U128 key, U128 origin_key) const;

  /// Lookup starting from the first member (deterministic origin). The
  /// route from members()[0] depends only on the target's member index, so
  /// its hop count is computed once per target and kept in a memo until the
  /// membership next changes (Join, Rejoin and a member's Leave clear it); a
  /// warm lookup costs one binary search. The memo makes this overload
  /// unsafe to call concurrently on one ring, like the rest of the library.
  StatusOr<LookupResult> Lookup(U128 key) const;

 private:
  // Sorted by key; at most one entry per node.
  std::vector<Member> members_;

  // Each member node's ring key, addressed by node id: finds a node's entry
  // with one binary search. Stale for non-members.
  std::vector<U128> key_of_;

  // Rejoin scratch, reused across batches (allocation-free in steady
  // state). `first_move_[node]` is the node's first position in the current
  // batch (kNoMove outside a batch); `next_move_[i]` is the position of
  // move i's node's next move; `taken_` maps the keys earlier moves of the
  // batch received to their move (open addressing); `placed_` holds the
  // final entry of every moving node.
  static constexpr size_t kNoMove = static_cast<size_t>(-1);
  struct TakenSlot {
    U128 key;
    size_t move;
  };
  std::vector<size_t> first_move_;
  std::vector<size_t> next_move_;
  std::vector<TakenSlot> taken_;
  std::vector<Member> placed_;

  /// Index of the node's entry in `members_`, or kNoMove.
  size_t EntryOf(NodeId node) const;
  /// Rejoin over `d` contiguous moves (Join passes a batch of one).
  void Rejoin(const Member* moves, size_t d);
  /// The `taken_` slot holding `key`, or the empty slot it would go to.
  size_t TakenSlotOf(const U128& key) const;
  /// True when `key` is held at move `i` of the batch in flight.
  bool KeyTaken(const U128& key, size_t i) const;
  size_t SuccessorIndex(U128 key) const;
  /// Hops of the greedy Chord route from member `cur` to member
  /// `target_idx`.
  size_t RouteHops(size_t cur, size_t target_idx) const;
  LookupResult ResultAt(size_t member_index, size_t hops) const;

  // Lookup(key)'s hop count per target member index, kUnrouted until that
  // target is first routed; empty after a membership change, sized on the
  // next first-member lookup (its capacity is kept).
  static constexpr uint32_t kUnrouted = static_cast<uint32_t>(-1);
  mutable std::vector<uint32_t> first_hops_;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
