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
  /// and nodes that move more than once.
  ///
  /// The d moves are sorted by key with an LSD radix sort over the key bits
  /// that vary in the batch (std::sort below kRadixMinMoves moves), then
  /// checked for a clash: two nodes asking for one key, or a move asking
  /// for a key another node holds in the ring (found by lower bounds that
  /// move forward through the ring). Without a clash no sequential Join
  /// perturbs a key, so every moving node lands at its last move's key and
  /// the sorted moves are the new entries. Only a clashing batch resolves
  /// its keys move by move in batch order (a binary search and a probe of
  /// a batch key table per key a move tries), then sorts the new entries.
  /// Either way one linear pass drops the movers' old entries and the new
  /// entries are merged in from the back with one binary search and one
  /// block move each: O(members + d log members), with no per-move search
  /// for a node's old entry.
  void Rejoin(const std::vector<Member>& moves) {
    Rejoin(moves.data(), moves.size());
  }

  /// Rejoin batches applied (a Join is a batch of one) and, of those, the
  /// batches that clashed and so resolved their keys move by move.
  size_t rejoin_batches() const { return rejoin_batches_; }
  size_t resolved_batches() const { return resolved_batches_; }

  size_t NumMembers() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  /// Chord-routes from the member owning `origin_key` toward `key`;
  /// returns successor(key). FailedPrecondition on an empty ring; Internal
  /// when the route does not end within one hop per member, which happens
  /// only when two members share a key (a broken ring).
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
  // move i's node's next move; `sorted_` holds the batch's moves in key
  // order (`sort_buf_` is the radix sort's other buffer); `taken_` maps the
  // keys earlier moves of a clashing batch received to their move (open
  // addressing); `placed_` holds the final entry of every moving node.
  static constexpr size_t kNoMove = static_cast<size_t>(-1);
  // Below this many moves std::sort beats the radix sort's fixed cost of
  // clearing and summing its digit counts: on a 496-member ring
  // (BM_RejoinFullRing) std::sort is faster at 16 moves, the radix sort
  // from 32 up.
  static constexpr size_t kRadixMinMoves = 32;
  struct SortedMove {
    U128 key;
    NodeId node;
    bool last;  ///< the node's last move in the batch
  };
  struct TakenSlot {
    U128 key;
    size_t move;
  };
  std::vector<size_t> first_move_;
  std::vector<size_t> next_move_;
  std::vector<SortedMove> sorted_;
  std::vector<SortedMove> sort_buf_;
  std::vector<size_t> radix_offsets_;
  std::vector<TakenSlot> taken_;
  std::vector<Member> placed_;
  size_t rejoin_batches_ = 0;
  size_t resolved_batches_ = 0;

  /// Index of the node's entry in `members_`, or kNoMove.
  size_t EntryOf(NodeId node) const;
  /// Rejoin over `d` contiguous moves (Join passes a batch of one).
  void Rejoin(const Member* moves, size_t d);
  /// Fills `sorted_` with the batch's moves in key order.
  void SortMoves(const Member* moves, size_t d);
  /// Checks the sorted batch for a clash; without one, fills `placed_`
  /// with each moving node's last move, in key order, and returns true.
  bool PlaceClashFree();
  /// Resolves the final keys of a clashing batch move by move, exactly as
  /// sequential Joins perturb them, into `placed_` in key order.
  void ResolveKeys(const Member* moves, size_t d);
  /// The `taken_` slot holding `key`, or the empty slot it would go to.
  size_t TakenSlotOf(const U128& key) const;
  /// True when `key` is held at move `i` of the batch in flight.
  bool KeyTaken(const U128& key, size_t i) const;
  size_t SuccessorIndex(U128 key) const;
  /// Hops of the greedy Chord route from member `cur` to member
  /// `target_idx`; kNoRoute when the route has not ended after one hop per
  /// member, which only a ring with a repeated key can cause.
  static constexpr size_t kNoRoute = static_cast<size_t>(-1);
  size_t RouteHops(size_t cur, size_t target_idx) const;
  /// The Internal error a Lookup returns for kNoRoute.
  static Status NoRouteError();
  LookupResult ResultAt(size_t member_index, size_t hops) const;

  // Lookup(key)'s hop count per target member index, kUnrouted until that
  // target is first routed; empty after a membership change, sized on the
  // next first-member lookup (its capacity is kept).
  static constexpr uint32_t kUnrouted = static_cast<uint32_t>(-1);
  mutable std::vector<uint32_t> first_hops_;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
