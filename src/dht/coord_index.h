#ifndef SBON_DHT_COORD_INDEX_H_
#define SBON_DHT_COORD_INDEX_H_

#include <cassert>
#include <span>
#include <vector>

#include "common/coord_block.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/vec.h"
#include "dht/chord.h"
#include "dht/hilbert.h"

namespace sbon::dht {

/// Statistics of the DHT traffic an index query would generate in a real
/// deployment.
struct IndexQueryCost {
  size_t lookups = 0;     ///< Chord lookups issued.
  size_t routing_hops = 0;///< total Chord routing hops.
  size_t ring_probes = 0; ///< distinct neighborhood members examined on the
                          ///< ring (each member is billed at most once per
                          ///< query).

  IndexQueryCost& operator+=(const IndexQueryCost& o) {
    lookups += o.lookups;
    routing_hops += o.routing_hops;
    ring_probes += o.ring_probes;
    return *this;
  }
};

/// Decentralized coordinate catalog (paper Sec. 3.2): every node publishes
/// its cost-space coordinate at its Hilbert-curve point into a Chord ring;
/// queries find nodes close to a target coordinate by looking up the
/// target's point and walking the curve neighborhood in both ring
/// directions. The ring keys each node by its point above its node id
/// (ChordRing::KeyOf), so nodes sharing a Hilbert cell are adjacent on the
/// ring in node-id order and a lookup of that cell starts at the lowest.
///
/// Because the Hilbert curve preserves locality only approximately, the
/// walk examines `probe_width` members on each side and re-ranks them by
/// true coordinate distance; widening the walk trades DHT traffic for
/// mapping accuracy (measured by `bench/fig3_placement_mapping`).
///
/// The three queries answer node ids into a vector the caller owns (cleared
/// first); callers read coordinates from `published_coords()`. Reusing that
/// vector across queries makes every query heap-free in steady state.
///
/// Published coordinates live in a structure-of-arrays `CoordBlock`, so the
/// distance scans (`KNearestExactInto`'s full sweep, the probed walk's
/// candidate ranking) run as unit-stride batched kernels over (distance,
/// node) pairs. Results are bit-identical to a per-`Vec` scan: the batched
/// kernels keep each candidate's accumulation order, and selection uses the
/// same (distance, node) total order.
///
/// Queries reuse per-index scratch buffers instead of allocating per call
/// (they sit on the Submit hot path), so concurrent queries against the
/// same index are not safe; the library is single-threaded throughout.
class CoordinateIndex {
 public:
  /// `quantizer` fixes the indexed box/dimensionality. Its points must
  /// leave a ring key room for the node id: dims * bits <= 96.
  explicit CoordinateIndex(HilbertQuantizer quantizer);

  const HilbertQuantizer& quantizer() const { return quantizer_; }

  /// Publishes (or republishes) slot j of `coords` for nodes[j], in order,
  /// as one ring Rejoin batch: a mass republish (bring-up, index refresh)
  /// costs one ring rewrite instead of an O(published) splice per node, and
  /// builds the ring a node-by-node Publish would have built. The batch
  /// runs lane-wise: the slots' lanes scatter into the catalog and turn
  /// into ring points (HilbertQuantizer::KeyLanes). `coords` has the index's
  /// dims and at least nodes.size() slots. Heap-free once Reserve (or an
  /// earlier batch) covered the batch size and a batch published the
  /// largest node id.
  void PublishAll(std::span<const NodeId> nodes, const CoordBlock& coords);
  /// Vec adapters over the block path: PublishAll of coords[i] for
  /// nodes[i], and of one node.
  void PublishAll(const std::vector<NodeId>& nodes,
                  const std::vector<Vec>& coords);
  void Publish(NodeId node, const Vec& coord);
  /// Sizes the publish scratch for batches of up to `batch` slots.
  void Reserve(size_t batch);
  /// Removes a node from the index.
  void Withdraw(NodeId node);

  size_t NumPublished() const { return ring_.NumMembers(); }

  /// The underlying Chord ring, read-only — message-mode agents route
  /// publish/join traffic through `ring().Lookup` to bill real hop counts
  /// and walk `ring().members()` for successor heartbeats.
  const ChordRing& ring() const { return ring_; }

  /// Published coordinates addressed by node id — the catalog's single
  /// copy, which the refresh displacement scan diffs against. A withdrawn
  /// node's slot keeps its last published coordinate.
  const CoordBlock& published_coords() const { return coords_; }

  /// The up to `k` published nodes closest to `target` (by true distance in
  /// the indexed space), nearest first, examining `probe_width` ring
  /// members on each side of the target point — the query physical mapping
  /// issues per service. `cost` (optional) accumulates DHT traffic. The
  /// walk steps ring indices (no modulo per member), and the top k of the
  /// walked members are kept by bounded insertion into a sorted k-slot
  /// buffer under the strict (distance, node) order, so ties resolve
  /// exactly as a full sort would. `k = 0` answers nothing but bills the
  /// same traffic. Fails if the index is empty.
  Status KNearestNodesInto(const Vec& target, size_t k, size_t probe_width,
                           IndexQueryCost* cost,
                           std::vector<NodeId>* out) const;

  /// All probed nodes within `radius` of `target`, in walk order — the
  /// hyper-sphere search the paper's multi-query pruning uses (Sec. 3.4).
  /// The probe widens adaptively until the curve walk has moved past the
  /// radius on both sides or the whole ring was examined, each member at
  /// most once. `cost` (optional) accumulates DHT traffic. Fails if the
  /// index is empty.
  Status WithinRadiusInto(const Vec& target, double radius,
                          IndexQueryCost* cost,
                          std::vector<NodeId>* out) const;

  /// Exact linear-scan answer (the oracle a centralized index would give),
  /// nearest first: sweeps all published coordinates with the batched
  /// distance kernel and selects the top k with nth_element instead of
  /// sorting all N members. Used by the exact mapper and by tests.
  void KNearestExactInto(const Vec& target, size_t k,
                         std::vector<NodeId>* out) const;

 private:
  /// A (distance, node) pair — the 16-byte selection currency of the scan
  /// kernels.
  struct DistNode {
    double distance;
    NodeId node;
    /// Strict total order: by distance, node id breaking ties, so the
    /// probed and exact queries rank candidates identically and any top-k
    /// selection equals the prefix of a full sort.
    friend bool operator<(const DistNode& a, const DistNode& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.node < b.node;
    }
  };

  HilbertQuantizer quantizer_;
  ChordRing ring_;
  // Published coordinates as per-dimension lanes, addressed by node id.
  CoordBlock coords_;
  std::vector<bool> published_;
  // PublishAll scratch of the batch in flight: its cell lanes (axis d of
  // slot j at [d * batch + j]), its Hilbert points and its ring moves.
  std::vector<uint32_t> cells_;
  std::vector<U128> points_;
  std::vector<ChordRing::Move> moves_;

  // Reusable query scratch (see class comment): distances, (distance, node)
  // pairs and the walked members.
  mutable std::vector<double> dist_scratch_;
  mutable std::vector<DistNode> pair_scratch_;
  mutable std::vector<NodeId> walk_scratch_;

  /// Looks up `target`'s point, bills the lookup to `cost`, and returns the
  /// ring index of the point's successor — where both walks start. Fails if
  /// the index is empty.
  StatusOr<size_t> StartWalk(const Vec& target, IndexQueryCost* cost) const;
  /// The probed walk of KNearestNodesInto: walks the ring around `target`'s
  /// point, bills `cost`, and ranks the walked members, leaving the top k as
  /// the first pairs of `pair_scratch_`. Returns how many it kept:
  /// min(k, members walked).
  StatusOr<size_t> RankNearest(const Vec& target, size_t k,
                               size_t probe_width, IndexQueryCost* cost) const;
  double DistanceTo(NodeId n, const Vec& target) const;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_COORD_INDEX_H_
