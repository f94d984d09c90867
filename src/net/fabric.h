#ifndef SBON_NET_FABRIC_H_
#define SBON_NET_FABRIC_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/dynamics.h"
#include "net/shortest_path.h"
#include "net/topology.h"

namespace sbon::net {

/// The physical-network latency substrate of the overlay: pristine and live
/// pairwise-latency views, the per-epoch congestion tick, the soft-partition
/// overlay that inflates cross-cut latency during connectivity faults, and
/// the dead-endpoint rule. One of the three substrates `overlay::Sbon`
/// composes (alongside coords::CoordinateManager and overlay::ServiceLedger);
/// it owns latency state only.
///
/// Everything on top of base latency is derived at read time, so no epoch
/// transition ever rewrites pairwise state:
///
///  - jitter: `TickNetwork` stores one epoch seed; a live read of (a, b)
///    multiplies the base latency of (min, max) by
///    `JitterFactorAt(seed, sigma, JitterPairIndex(min, max))`;
///  - partition: cross-cut pairs are scaled by the penalty factor;
///  - down endpoints: every live read involving one — the self-pair
///    included — returns +infinity.
///
/// `TickNetwork` is therefore an O(1) seed swap and SetEndpointDown /
/// BeginPartition / EndPartition are flag flips. The only thing that varies
/// is how *base* latency is resolved (`BaseMode`, turned into a provider by
/// `Resolve`):
///
///  - dense: a materialized n x n matrix (all-pairs Dijkstra at
///    construction). One load per read, O(n^2) memory — the right choice up
///    to a few thousand nodes.
///  - exact: on-demand single-source Dijkstra rows behind an LRU — the same
///    rows the dense matrix is built from, read through the same source row
///    the matrix stores for each entry, so fixed-seed live latencies are
///    bit-identical to dense mode.
///  - sketch: `num_landmarks` landmarks chosen by deterministic
///    farthest-point traversal, each contributing one exact Dijkstra row; a
///    pair's base latency is min over landmarks of d(l,a) + d(l,b).
///    Symmetric, exact for pairs whose shortest path crosses a landmark, an
///    upper bound (triangle inequality) otherwise. O((landmarks + slots) * n)
///    memory, which is what lets the overlay reach 100k+ nodes.
///
/// The two non-dense modes memoize through a bounded per-node neighbor cache
/// (`neighbor_cache_slots` slots per node, direct-mapped by peer id — the
/// fixed-size-bucket idiom of up4w's DhtSpace) and, in exact mode, an LRU of
/// whole Dijkstra rows. Both are pure memoization of epoch-invariant base
/// values: cache contents never change a returned value and never need
/// invalidation. Dense reads bypass both.
///
/// Rng contract: construction consumes exactly one draw iff
/// jitter_sigma > 0, and `TickNetwork` exactly one draw iff jitter is
/// attached — in every base mode, so fixed-seed overlays stay
/// stream-aligned whichever mode is selected.
///
/// Reads bump the read counters (and, outside dense mode, the caches);
/// concurrent reads therefore require external ordering. The epoch pipeline
/// only reads live latencies from serial stages, so no locking is needed or
/// taken.
class NetworkFabric {
 public:
  /// The base-latency provider to use. kAuto and kSparse pick one by node
  /// count (see Resolve); the other three name it.
  enum class BaseMode {
    kAuto,    ///< dense while the n x n matrix is small, else as kSparse
    kDense,   ///< materialized n x n base matrix
    kSparse,  ///< on-demand: exact rows while small, else the sketch
    kExact,   ///< force on-demand Dijkstra rows (tests, equivalence pins)
    kSketch,  ///< force the landmark sketch (tests at small n)
  };

  /// The provider `mode` selects for an `n`-node topology: kDense, kExact
  /// or kSketch. The one place the size bounds of kAuto and kSparse live.
  static BaseMode Resolve(BaseMode mode, size_t n);

  struct Options {
    BaseMode base_mode = BaseMode::kAuto;
    /// Landmarks of the sketch mode (each costs one n-vector of doubles).
    size_t num_landmarks = 32;
    /// Per-node direct-mapped base-latency cache slots (0 disables).
    size_t neighbor_cache_slots = 16;
    /// Exact-mode LRU capacity in whole Dijkstra rows (min 1).
    size_t row_cache_rows = 32;
  };

  /// Cumulative read counters (bench + test observability). Exact, not
  /// sampled: CI pins how many live latencies an epoch reads.
  struct ReadStats {
    size_t live_reads = 0;     ///< live-view reads, every base mode
    /// On-demand base resolutions (cache hits included); dense reads go
    /// straight to the matrix and are not counted here.
    size_t base_reads = 0;
    size_t neighbor_hits = 0;  ///< served from the per-node slot cache
    size_t row_hits = 0;       ///< served from an already-built row
    size_t row_builds = 0;     ///< on-demand Dijkstra row computations
  };

  /// Builds the substrate over `topo` (copied outside dense mode: the
  /// on-demand modes answer reads for the fabric's whole lifetime).
  /// Consumes exactly one draw from `rng` iff `jitter_sigma > 0`.
  NetworkFabric(const Topology& topo, double jitter_sigma, Rng* rng,
                Options options);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// The live view: jitter times base, partition penalty on top, +inf for
  /// down endpoints.
  const LatencyView& live() const { return live_view_; }
  /// The pristine latencies (before jitter/partition), for drift
  /// measurement. Unaffected by down endpoints: it answers "what would the
  /// healed network look like", which is what rejoin placement needs.
  const LatencyView& base() const {
    if (matrix_ != nullptr) return *matrix_;
    return base_view_;
  }
  bool has_jitter() const { return sigma_ > 0.0; }
  size_t NumNodes() const { return n_; }
  /// Backend name for logs/bench JSON: "dense" for the materialized base
  /// matrix, "sparse" for the on-demand modes.
  const char* name() const { return matrix_ != nullptr ? "dense" : "sparse"; }
  /// The resolved base mode: kDense, kExact or kSketch.
  BaseMode base_mode() const { return mode_; }
  /// Landmarks actually placed (0 outside sketch mode).
  size_t num_landmarks() const { return landmarks_.size(); }
  const ReadStats& read_stats() const { return stats_; }

  /// Starts a new congestion epoch: one draw from `rng` becomes the seed
  /// every jitter factor is derived from on read. No-op (and no draw)
  /// without jitter.
  void TickNetwork(Rng* rng);

  /// Soft link partition: the live latency of every pair that crosses the
  /// cut (`group` vs. the rest) is scaled by `factor` until EndPartition.
  /// One partition may be active at a time.
  Status BeginPartition(const std::vector<NodeId>& group, double factor);
  /// Heals the active partition, restoring jittered (or base) latencies.
  Status EndPartition();
  bool partition_active() const { return partition_active_; }

  /// Marks an endpoint down (crashed) or back up. While a node is down,
  /// every live read involving it — the self-pair included — returns
  /// +infinity: a crashed node is unreachable, never "as fast as before the
  /// crash" and never NaN (the penalty composes multiplicatively with
  /// finite, positive jitter and partition factors).
  void SetEndpointDown(NodeId n, bool down) { down_[n] = down ? 1 : 0; }
  bool EndpointDown(NodeId n) const { return static_cast<bool>(down_[n]); }
  /// True when an active partition separates `a` and `b` (the pair crosses
  /// the cut); always false without an active partition. This is the drop
  /// predicate message delivery tests before paying cross-cut latency.
  bool CrossesPartition(NodeId a, NodeId b) const {
    return partition_active_ && static_cast<bool>(partitioned_[a]) !=
                                    static_cast<bool>(partitioned_[b]);
  }

 private:
  /// On-demand view over the parent fabric; `live` selects the read-time
  /// composition, otherwise pristine base resolution.
  class View final : public LatencyView {
   public:
    View(const NetworkFabric* fabric, bool live)
        : fabric_(fabric), live_(live) {}
    size_t NumNodes() const override { return fabric_->n_; }
    double Latency(NodeId a, NodeId b) const override {
      return live_ ? fabric_->LiveLatency(a, b) : fabric_->BaseLatency(a, b);
    }

   private:
    const NetworkFabric* fabric_;
    bool live_;
  };

  /// Resolves through row `a`: the dense matrix stores Dijkstra(a)[b] at
  /// entry (a, b), and Dijkstra(a)[b] can differ from Dijkstra(b)[a] in the
  /// last ulp (reversed fp accumulation order along the path), so the
  /// resolving source must match the dense layout, not min(a, b).
  double BaseLatency(NodeId a, NodeId b) const {
    return a == b ? 0.0 : Base(a, b);
  }
  /// Inline (below): the dense hot path is a few flag tests and one load.
  double LiveLatency(NodeId a, NodeId b) const;
  /// Base latency of entry (row, col): the matrix entry in dense mode,
  /// otherwise a neighbor-cached on-demand resolution.
  double Base(NodeId row, NodeId col) const {
    if (matrix_ != nullptr) return matrix_->Latency(row, col);
    return ResolveBase(row, col);
  }
  /// On-demand base resolution. Exact mode reads Dijkstra(row)[col],
  /// matching which source row the dense matrix stores for the entry —
  /// bit-identity across modes depends on it.
  double ResolveBase(NodeId row, NodeId col) const;
  double SketchBase(NodeId a, NodeId b) const;
  /// Exact Dijkstra row of `row`, LRU-cached.
  const std::vector<double>& RowFor(NodeId row) const;
  void PlaceLandmarks();

  size_t n_;
  double sigma_;
  Options options_;
  BaseMode mode_;
  Topology topo_;                          ///< empty in dense mode
  std::unique_ptr<LatencyMatrix> matrix_;  ///< dense mode only

  // Congestion epoch. `jitter_applied_` stays false until the first
  // TickNetwork (or a jittered EndPartition): until then the live view is
  // base itself, read through row `a` exactly as base(a, b) is.
  uint64_t epoch_seed_ = 0;
  bool jitter_applied_ = false;

  bool partition_active_ = false;
  double partition_factor_ = 1.0;
  std::vector<bool> partitioned_;  ///< by node id; one side of the cut
  std::vector<uint8_t> down_;      ///< by node id; endpoint marked down

  std::vector<NodeId> landmarks_;
  std::vector<std::vector<double>> landmark_rows_;  ///< per landmark: n dists

  struct NeighborSlot {
    NodeId peer = kInvalidNode;
    double value = 0.0;
  };
  mutable std::vector<NeighborSlot> neighbor_cache_;  ///< n * slots
  struct CachedRow {
    NodeId row = kInvalidNode;
    uint64_t stamp = 0;
    std::vector<double> dist;
  };
  mutable std::vector<CachedRow> row_cache_;
  mutable uint64_t row_stamp_ = 0;
  mutable ReadStats stats_;

  View live_view_;
  View base_view_;
};

inline double NetworkFabric::LiveLatency(NodeId a, NodeId b) const {
  ++stats_.live_reads;
  // Dead endpoints read as unreachable — the self-pair included.
  if (down_[a] || down_[b]) return std::numeric_limits<double>::infinity();
  if (a == b) return 0.0;
  double v;
  if (jitter_applied_) {
    // Both argument orders of a pair share one product: the upper-triangle
    // base entry times the symmetric factor, so a jittered live view is
    // bitwise symmetric even where the base mirrors differ by an ulp.
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    v = Base(lo, hi) *
        JitterFactorAt(epoch_seed_, sigma_, JitterPairIndex(lo, hi, n_));
  } else {
    v = Base(a, b);
  }
  if (CrossesPartition(a, b)) v *= partition_factor_;
  return v;
}

}  // namespace sbon::net

#endif  // SBON_NET_FABRIC_H_
