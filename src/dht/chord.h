#ifndef SBON_DHT_CHORD_H_
#define SBON_DHT_CHORD_H_

#include <map>
#include <unordered_map>
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

  /// Adds a member with the given ring key. Duplicate exact keys are
  /// perturbed by the node id (low bits) to keep keys unique.
  void Join(U128 key, NodeId node);
  /// Removes all entries owned by `node`.
  void Leave(NodeId node);

  /// Bulk-update window for mass re-publish (index refresh, bring-up): the
  /// sorted membership vector makes each Leave/Join O(members) — quadratic
  /// when every node re-publishes in one refresh. Between BeginBulk and
  /// EndBulk the membership lives in an ordered map instead, so the same
  /// Join/Leave sequence (including duplicate-key perturbation, which only
  /// asks "does this exact key exist?") costs O(log members) per call and
  /// produces a bit-identical final membership. Lookups and successor walks
  /// are invalid inside the window (Lookup fails with FailedPrecondition);
  /// they are valid again as soon as EndBulk returns.
  void BeginBulk();
  void EndBulk();

  size_t NumMembers() const {
    return in_bulk_ ? bulk_members_.size() : members_.size();
  }
  const std::vector<Member>& members() const { return members_; }

  /// Chord-routes from the member owning `origin_key` toward `key`;
  /// returns successor(key). Requires a non-empty ring outside a bulk
  /// window.
  StatusOr<LookupResult> Lookup(U128 key, U128 origin_key) const;

  /// Lookup starting from the first member (deterministic origin).
  StatusOr<LookupResult> Lookup(U128 key) const;

  /// The i-th member clockwise from `member_index` (wraps).
  const Member& SuccessorAt(size_t member_index, size_t i) const;
  /// The i-th member counter-clockwise from `member_index` (wraps).
  const Member& PredecessorAt(size_t member_index, size_t i) const;

 private:
  // Sorted by key.
  std::vector<Member> members_;
  // Bulk-window state: key-sorted membership plus the reverse index Leave
  // needs (each node holds at most one ring entry — Publish always Leaves
  // before re-Joining).
  bool in_bulk_ = false;
  std::map<U128, NodeId> bulk_members_;
  std::unordered_map<NodeId, U128> bulk_key_of_;

  size_t SuccessorIndex(U128 key) const;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
