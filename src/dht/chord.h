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
///
/// Callers place nodes at *points* (a coordinate's Hilbert index, below
/// 2^96); the ring keys them by `KeyOf(point, node)`, the point above the
/// node id. No two nodes share a key, so nodes in one Hilbert cell sit side
/// by side in node-id order and no caller checks for a clash.
class ChordRing {
 public:
  struct Member {
    U128 key;
    NodeId node = kInvalidNode;
  };

  /// A node moving to a point.
  struct Move {
    U128 point;
    NodeId node = kInvalidNode;
  };

  struct LookupResult {
    NodeId node = kInvalidNode;  ///< successor(key) owner
    U128 key;                    ///< its ring key
    size_t hops = 0;             ///< routing hops taken
    size_t member_index = 0;     ///< index into sorted membership
  };

  /// Bits of a ring key below the point: the width of NodeId.
  static constexpr unsigned kNodeBits = 32;

  /// The ring key of `node` at `point`: `(point << kNodeBits) | node`.
  /// `point` must be below 2^(128 - kNodeBits). Public for tests.
  static U128 KeyOf(const U128& point, NodeId node);

  /// Moves a node to `point`: a Rejoin of one. A node holds at most one
  /// entry, so joining an existing member replaces its entry.
  void Join(U128 point, NodeId node);
  /// Removes the node's entry, found by one search on its key; a
  /// no-op for a non-member.
  void Leave(NodeId node);

  /// Applies a batch of moves in one sorted rewrite. The final membership
  /// is bitwise what `Leave(m.node); Join(m.point, m.node)` produces run
  /// for each move in order: every moving node at its last move's key.
  ///
  /// Four steps. Walk the batch backwards, keeping each node's last move
  /// and marking the node as moving. Sort the kept keys with an LSD radix
  /// sort over the key bytes that vary among them (std::sort below
  /// kRadixMinMoves moves). Drop the movers' old entries in one linear
  /// pass. Merge the kept moves in from the back with one galloping
  /// search (doubling steps down from the previous move's bound, then the
  /// ring's search inside the bracket) and one block move each. For d
  /// moves of which d' nodes are distinct: O(d + members + d' log
  /// members), with no per-move search for a node's old entry.
  void Rejoin(const std::vector<Move>& moves) {
    Rejoin(moves.data(), moves.size());
  }

  /// Rejoin batches applied (a Join is a batch of one).
  size_t rejoin_batches() const { return rejoin_batches_; }

  size_t NumMembers() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  /// Chord-routes from the member owning `origin_point`'s lowest key toward
  /// `point`'s lowest key, `KeyOf(point, 0)`; returns its successor: the
  /// lowest node at `point`, or the next member along the ring.
  /// `Lookup(p, p)` starts at the target's own owner, so it is 0 hops and
  /// costs one search. FailedPrecondition on an empty ring; Internal when
  /// the route does not end within one hop per member, which only a ring
  /// whose keys are not unique could cause.
  StatusOr<LookupResult> Lookup(U128 point, U128 origin_point) const;

  /// Lookup starting from the first member (deterministic origin). The
  /// route from members()[0] depends only on the target's member index, so
  /// its hop count is computed once per target and kept in a memo until the
  /// membership next changes (Join, Rejoin and a member's Leave clear it); a
  /// warm lookup costs one successor search. The memo makes this overload
  /// unsafe to call concurrently on one ring, like the rest of the library.
  StatusOr<LookupResult> Lookup(U128 point) const;

 private:
  // Sorted by key; at most one entry per node.
  std::vector<Member> members_;

  // Each member node's ring key, addressed by node id: finds a node's entry
  // with one search. Stale for non-members.
  std::vector<U128> key_of_;

  // Rejoin scratch, reused across batches (allocation-free in steady
  // state). `moving_[node]` is set while the node moves in the current
  // batch; `sorted_` holds the kept moves' entries in key order
  // (`sort_buf_` is the radix sort's other buffer).
  // Below this many moves std::sort beats the radix sort's fixed cost of
  // clearing and summing its digit counts: on a 496-member ring
  // (BM_RejoinFullRing) std::sort is faster at 16 moves, the radix sort
  // from 32 up.
  static constexpr size_t kRadixMinMoves = 32;
  std::vector<uint8_t> moving_;
  std::vector<Member> sorted_;
  std::vector<Member> sort_buf_;
  std::vector<size_t> radix_offsets_;
  size_t rejoin_batches_ = 0;

  /// Index of the first of members_[begin, end) whose key is not below
  /// `key`, or `end` when none is: the ring's one successor search (Lookup,
  /// the route's fingers, EntryOf and Rejoin's merge all use it).
  /// Branch-free.
  size_t LowerBound(const U128& key, size_t begin, size_t end) const;
  /// Index of the node's entry in `members_`, or kNoEntry.
  static constexpr size_t kNoEntry = static_cast<size_t>(-1);
  size_t EntryOf(NodeId node) const;
  /// Rejoin over `d` contiguous moves (Join passes a batch of one).
  void Rejoin(const Move* moves, size_t d);
  /// Sorts `sorted_` by key.
  void SortMoves();
  /// LowerBound over the whole ring, wrapping to 0: successor(key).
  size_t SuccessorIndex(U128 key) const;
  /// Hops of the greedy Chord route from member `cur` to member
  /// `target_idx`; kNoRoute when the route has not ended after one hop per
  /// member, which only a ring with a repeated key can cause.
  static constexpr size_t kNoRoute = static_cast<size_t>(-1);
  size_t RouteHops(size_t cur, size_t target_idx) const;
  /// The Internal error a Lookup returns for kNoRoute.
  static Status NoRouteError();
  LookupResult ResultAt(size_t member_index, size_t hops) const;

  // Lookup(point)'s hop count per target member index, kUnrouted until that
  // target is first routed; empty after a membership change, sized on the
  // next first-member lookup (its capacity is kept).
  static constexpr uint32_t kUnrouted = static_cast<uint32_t>(-1);
  mutable std::vector<uint32_t> first_hops_;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
