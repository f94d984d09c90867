#ifndef SBON_COORDS_MANAGER_H_
#define SBON_COORDS_MANAGER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/coord_block.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "coords/cost_space.h"
#include "coords/mds.h"
#include "coords/vivaldi.h"
#include "dht/coord_index.h"
#include "net/shortest_path.h"

namespace sbon::coords {

/// How vector coordinates are obtained.
enum class CoordMode {
  kVivaldi,  ///< decentralized Vivaldi embedding (deployable; default)
  kMds,      ///< centralized classical-MDS oracle (ablation)
};

/// Cumulative counters of the dirty-driven index refresh (ring traffic a
/// real deployment would pay to keep the coordinate catalog fresh).
struct IndexRefreshStats {
  size_t refreshes = 0;        ///< RefreshIndex calls
  size_t republished = 0;      ///< ring re-publishes actually issued
  size_t skipped = 0;          ///< node refreshes elided (moved <= epsilon)
  size_t quiet_refreshes = 0;  ///< refreshes with zero re-publishes (no
                               ///< ring Leave/Join)
  size_t ring_batches = 0;     ///< ring Rejoin batches of every publish
                               ///< (bring-up, refresh, rejoin, message mode)
};

/// The coordinate substrate of the overlay: the Vivaldi (or MDS) embedding,
/// the cost space it feeds, the decentralized coordinate index over the
/// overlay nodes' full coordinates, and the dirty-coordinate tracking that
/// gates index re-publishes on displacement.
///
/// One of the three substrates `overlay::Sbon` composes (alongside
/// net::NetworkFabric and overlay::ServiceLedger).
class CoordinateManager {
 public:
  /// Hilbert-curve resolution of the coordinate index, in bits per cost
  /// dimension. A ring key is a U128 holding the Hilbert point above a
  /// 32-bit node id, so a spec's total_dims() * kHilbertBits must be at
  /// most 96 (Sbon::Create checks it).
  static constexpr unsigned kHilbertBits = 10;

  struct Params {
    CostSpaceSpec spec = CostSpaceSpec::LatencyAndLoad();
    CoordMode mode = CoordMode::kVivaldi;
  };

  /// Embeds coordinates against `lat` — a full Vivaldi gossip run (default
  /// VivaldiRunOptions, in the spec's vector dimensions) or a classical-MDS
  /// solve, drawing from `rng` in exactly the order the monolithic
  /// Sbon::Initialize always did — and fills the cost space's vector part.
  /// Scalar metrics start at zero; call SetScalarMetric for every node then
  /// BuildIndex to finish bring-up.
  static StatusOr<std::unique_ptr<CoordinateManager>> Build(
      Params params, const net::LatencyView& lat, Rng* rng);

  CoordinateManager(const CoordinateManager&) = delete;
  CoordinateManager& operator=(const CoordinateManager&) = delete;

  const CostSpace& space() const { return *space_; }
  const dht::CoordinateIndex& index() const { return *index_; }
  const IndexRefreshStats& refresh_stats() const { return refresh_stats_; }

  /// Writes node `n`'s raw scalar metric (by convention: total CPU load)
  /// into every scalar dimension of the cost space.
  void SetScalarMetric(NodeId n, double raw);

  /// Builds the coordinate index over the overlay nodes' full coordinates:
  /// fits the Hilbert quantizer box (vector span plus worst-case scalar
  /// penalty corner) and publishes every node.
  void BuildIndex(const std::vector<NodeId>& overlay_nodes);

  /// Online coordinate maintenance: every alive node takes
  /// `samples_per_node` RTT measurements against `live` latencies (with the
  /// bring-up run's multiplicative noise) and runs Vivaldi updates, then
  /// the cost space's vector part is refreshed.
  /// Sample draws come from `rng` in the legacy serial order, and each
  /// node's updates run as its samples are drawn, in node index order, so a
  /// sample against a lower peer sees that peer's updated state and one
  /// against a higher peer its epoch-start state. No-op without Vivaldi.
  void UpdateCoordinatesOnline(const net::LatencyView& live,
                               size_t samples_per_node,
                               const std::vector<bool>& alive, Rng* rng);

  /// Dirty-driven index refresh: republishes the full coordinate of every
  /// overlay node displaced more than `epsilon` (cost-space units) from its
  /// published coordinate, as one ring batch in node order; when nothing
  /// moved the ring is left entirely untouched. The batch never leaves the
  /// lanes: the displacement scan's block is compacted to its displaced
  /// slots and published as is. Heap-free after BuildIndex.
  void RefreshIndex(const std::vector<NodeId>& overlay_nodes, double epsilon);

  /// Ring Leave on a crash: the index stops returning the node immediately.
  void Withdraw(NodeId n);
  /// Ring Join of each node's current full coordinate, in order, as one
  /// ring batch: bitwise the ring and catalog that publishing the nodes one
  /// at a time builds, including a node listed twice. Sbon::RejoinNode
  /// passes one node (stale vector part + fresh scalars); message mode
  /// passes the publishes one epoch's drain delivered. The coordinates are
  /// gathered into the refresh block (CostSpace::FullCoordsInto) and
  /// published lane-wise, as RefreshIndex does.
  void Publish(std::span<const NodeId> nodes);

  // --- message-mode hooks (msg::Runtime) -----------------------------------
  // The message-passing execution mode re-expresses the two substrate
  // sweeps above (UpdateCoordinatesOnline, RefreshIndex) as explicit
  // request/response traffic; these are the primitive steps its agents
  // compose, each one a fragment of the corresponding oracle sweep.

  /// Vivaldi read access for agents answering coordinate pings (nullptr
  /// for MDS/true-coordinate ablations).
  const VivaldiSystem* vivaldi() const { return vivaldi_.get(); }
  /// Applies one remotely measured RTT sample: `self` runs its spring
  /// update against the peer state a pong carried. No-op without Vivaldi.
  void ApplyRemoteSample(NodeId self, NodeId peer, const Vec& peer_coord,
                         double peer_error, double rtt_ms);
  /// Copies the Vivaldi coordinates into the cost space's vector part —
  /// what UpdateCoordinatesOnline does after its sweep. Call once per epoch
  /// after the message drain. No-op without Vivaldi.
  void SyncVectorCoords();
  /// Appends to `out` every node of `overlay_nodes` whose full coordinate
  /// moved more than `epsilon` from its published coordinate —
  /// RefreshIndex's displacement scan without the publishes (the RingAgent
  /// turns each hit into a routed publish message instead).
  void CollectDisplaced(const std::vector<NodeId>& overlay_nodes,
                        double epsilon, std::vector<NodeId>* out);

 private:
  CoordinateManager() = default;

  Params params_;
  std::unique_ptr<VivaldiSystem> vivaldi_;  // null for MDS/true modes
  std::unique_ptr<CostSpace> space_;
  std::unique_ptr<dht::CoordinateIndex> index_;
  IndexRefreshStats refresh_stats_;

  // Reused scratch for the refresh stage, sized by BuildIndex (so no later
  // refresh allocates).
  CoordBlock full_block_;            ///< full coords, positional: the
                                     ///< displacement scan's (slot k =
                                     ///< overlay_nodes[k]), then the publish
                                     ///< batch's (slot j = publish_nodes_[j])
  std::vector<double> disp_scratch_; ///< squared displacement per slot
  std::vector<uint8_t> dirty_;       ///< per overlay node: moved > epsilon
  std::vector<NodeId> publish_nodes_;  ///< the publish batch's nodes
                                       ///< (bring-up, refresh, Publish)

  /// Publishes slot j of full_block_ for publish_nodes_[j] into the index
  /// as one batch and copies the ring's batch counters into refresh_stats_.
  void PublishBatch();
  /// The displacement scan RefreshIndex and CollectDisplaced share: fills
  /// full_block_ (slot k = overlay_nodes[k]) and flags in dirty_ every slot
  /// displaced more than `epsilon` from the index's published coordinate.
  /// Every alive overlay node is published, so each one has a slot there.
  void ScanDisplaced(const std::vector<NodeId>& overlay_nodes,
                     double epsilon);
};

}  // namespace sbon::coords

#endif  // SBON_COORDS_MANAGER_H_
