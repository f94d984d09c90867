#ifndef SBON_DHT_COORD_INDEX_H_
#define SBON_DHT_COORD_INDEX_H_

#include <cassert>
#include <cstdint>
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
                          ///< query, excluded or not).
};

/// A node returned by a coordinate query, with its distance to the target.
struct IndexMatch {
  NodeId node = kInvalidNode;
  double distance = 0.0;  ///< distance in the indexed (full) coordinate space
  Vec coord;              ///< the coordinate the node published
};

/// Decentralized coordinate catalog (paper Sec. 3.2): every node publishes
/// its cost-space coordinate under a Hilbert-curve key into a Chord ring;
/// queries find nodes close to a target coordinate by looking up the
/// target's key and walking the curve neighborhood in both ring directions.
///
/// Because the Hilbert curve preserves locality only approximately, the
/// walk examines `probe_width` members on each side and re-ranks them by
/// true coordinate distance; widening the walk trades DHT traffic for
/// mapping accuracy (measured by `bench/fig3_placement_mapping`).
///
/// Published coordinates live in a structure-of-arrays `CoordBlock`, so the
/// distance scans (`KNearestExactInto`'s full sweep, the probed walk's
/// candidate ranking) run as unit-stride batched kernels over (distance,
/// node) pairs, materializing `IndexMatch` coordinates only for the final
/// k results. Results are bit-identical to the per-`Vec` scan: the batched
/// kernels keep each candidate's accumulation order, and selection uses the
/// same (distance, node) total order.
///
/// Queries reuse per-index scratch buffers instead of allocating per call
/// (they sit on the Submit hot path), so concurrent queries against the
/// same index are not safe; the library is single-threaded throughout.
class CoordinateIndex {
 public:
  /// `quantizer` fixes the indexed box/dimensionality.
  explicit CoordinateIndex(HilbertQuantizer quantizer);

  const HilbertQuantizer& quantizer() const { return quantizer_; }

  /// Publishes (or republishes) a node's coordinate: PublishAll of one.
  void Publish(NodeId node, const Vec& coord);
  /// Publishes (or republishes) coords[i] for nodes[i], in order, as one
  /// ring Rejoin batch: a mass republish (bring-up, index refresh) costs
  /// one ring rewrite instead of an O(published) splice per node, and
  /// builds the ring a node-by-node Publish would have built.
  void PublishAll(const std::vector<NodeId>& nodes,
                  const std::vector<Vec>& coords) {
    assert(nodes.size() == coords.size());
    PublishAll(nodes.data(), coords.data(), nodes.size());
  }
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

  /// Returns up to `k` published nodes closest to `target` (by true
  /// distance in the indexed space), examining `probe_width` ring members
  /// on each side of the target key. `cost` (optional) accumulates DHT
  /// traffic. Nodes listed in `exclude` are skipped. The walk steps ring
  /// indices (no modulo per member), and the top k of the walked members
  /// are selected with `partial_sort` under the strict (distance, node)
  /// order, so ties resolve exactly as a full sort would.
  StatusOr<std::vector<IndexMatch>> KNearest(
      const Vec& target, size_t k, size_t probe_width = 16,
      IndexQueryCost* cost = nullptr,
      const std::vector<NodeId>& exclude = {}) const;

  /// KNearest into a caller-owned buffer (`out` is cleared first). Reusing
  /// `out` across queries makes the whole call heap-free in steady state.
  Status KNearestInto(const Vec& target, size_t k, size_t probe_width,
                      IndexQueryCost* cost,
                      const std::vector<NodeId>& exclude,
                      std::vector<IndexMatch>* out) const;

  /// KNearestInto without exclusions, returning only the node ids (`out` is
  /// cleared first): the same walk, ranking and `cost`, and the same nodes
  /// in the same order, with no coordinate copied. The form the mapping
  /// loop uses; callers read coordinates from `published_coords()`.
  Status KNearestNodesInto(const Vec& target, size_t k, size_t probe_width,
                           IndexQueryCost* cost,
                           std::vector<NodeId>* out) const;

  /// Single nearest node (convenience wrapper over KNearest).
  StatusOr<IndexMatch> Nearest(const Vec& target, size_t probe_width = 16,
                               IndexQueryCost* cost = nullptr) const;

  /// All probed nodes within `radius` of `target`, nearest first — the
  /// hyper-sphere search the paper's multi-query pruning uses (Sec. 3.4).
  /// The probe widens adaptively until the curve walk has moved past the
  /// radius on both sides or the whole ring was examined. Hits are ranked
  /// as (distance, node) pairs; coordinates are copied only for the result.
  StatusOr<std::vector<IndexMatch>> WithinRadius(
      const Vec& target, double radius, IndexQueryCost* cost = nullptr) const;

  /// Exact linear-scan answer (the oracle a centralized index would give);
  /// used by tests and by accuracy measurements.
  std::vector<IndexMatch> KNearestExact(const Vec& target, size_t k) const;

  /// KNearestExact into a caller-owned buffer (`out` is cleared first);
  /// sweeps all published coordinates with the batched distance kernel and
  /// selects the top k with nth_element instead of sorting all N members.
  void KNearestExactInto(const Vec& target, size_t k,
                         std::vector<IndexMatch>* out) const;

 private:
  /// A (distance, node) pair — the 16-byte selection currency of the scan
  /// kernels; `IndexMatch` (with its coordinate payload) is materialized
  /// only for final results.
  struct DistNode {
    double distance;
    NodeId node;
    /// Strict total order: by distance, node id breaking ties, so every
    /// query path (probed, exact, radius) ranks candidates identically and
    /// any top-k selection equals the prefix of a full sort.
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
  // PublishAll scratch: the ring moves of the batch in flight.
  std::vector<ChordRing::Member> moves_;

  // Reusable query scratch (see class comment). `seen_stamp_[node] ==
  // query_epoch_` marks a node examined by the current WithinRadius walk —
  // bumping the epoch clears all marks without touching memory.
  mutable std::vector<NodeId> exclude_scratch_;
  mutable std::vector<IndexMatch> nearest_scratch_;
  mutable std::vector<uint32_t> seen_stamp_;
  mutable uint32_t query_epoch_ = 0;
  // Batched-scan scratch: distances and (distance, node) pairs.
  mutable std::vector<double> dist_scratch_;
  mutable std::vector<DistNode> pair_scratch_;
  mutable std::vector<NodeId> walk_scratch_;

  /// The probed walk both k-nearest queries share: walks the ring around
  /// `target`'s key, bills `cost`, and ranks the walked members minus
  /// `exclude`, leaving the top k as the first pairs of `pair_scratch_`.
  /// Returns how many pairs it ranked (at most k).
  StatusOr<size_t> RankNearest(const Vec& target, size_t k,
                               size_t probe_width, IndexQueryCost* cost,
                               const std::vector<NodeId>& exclude) const;
  /// PublishAll over `count` contiguous (node, coordinate) pairs.
  void PublishAll(const NodeId* nodes, const Vec* coords, size_t count);
  double DistanceTo(NodeId n, const Vec& target) const;
  /// Appends `IndexMatch`es for the first `count` ranked pairs of
  /// `pair_scratch_` to `out`, copying their published coordinates.
  void EmitMatches(size_t count, std::vector<IndexMatch>* out) const;
  /// Starts a WithinRadius walk: bumps the epoch and sizes the stamps.
  void BeginSeenEpoch() const;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_COORD_INDEX_H_
