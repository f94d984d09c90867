#ifndef SBON_OVERLAY_SBON_H_
#define SBON_OVERLAY_SBON_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "coords/cost_space.h"
#include "coords/manager.h"
#include "dht/coord_index.h"
#include "net/dynamics.h"
#include "net/fabric.h"
#include "net/shortest_path.h"
#include "net/topology.h"
#include "overlay/circuit.h"
#include "overlay/metrics.h"
#include "overlay/service.h"
#include "overlay/service_ledger.h"

namespace sbon::overlay {

/// The stream-based overlay network: the runtime that optimizers operate
/// against. A thin composition root wiring three independently ownable
/// substrates behind one facade:
///
///  - a net::NetworkFabric — pristine + live latency views, per-epoch
///    congestion jitter, soft-partition overlay (the TickNetwork path).
///    Options::fabric_mode picks its base-latency provider;
///  - coords::CoordinateManager — Vivaldi/MDS embedding, cost space,
///    coordinate index, dirty-coordinate tracking, epsilon-gated refresh;
///  - overlay::ServiceLedger — circuits, service instances, reuse catalog,
///    and the per-node service load book (with the FailNode eviction path).
///
/// The Sbon itself keeps only what genuinely spans substrates: the
/// topology, the shared Rng, node liveness, the ambient LoadModel, and the
/// scalar-metric bridge (total load -> cost space) that must run after
/// every load-changing operation.
class Sbon {
 public:
  struct Options {
    /// At most 9 total dimensions: each takes
    /// CoordinateManager::kHilbertBits of a U128 ring key, above a 32-bit
    /// node id (validated at Create).
    coords::CostSpaceSpec space_spec = coords::CostSpaceSpec::LatencyAndLoad();
    coords::CoordMode coord_mode = coords::CoordMode::kVivaldi;
    net::LoadModel::Params load_params;
    /// Sigma of the multiplicative (approximately LogNormal; see
    /// net::JitterFactorAt) latency jitter applied per pair on every
    /// `TickNetwork` epoch (0 = static latencies). Must be >= 0 (validated
    /// at Create).
    double latency_jitter_sigma = 0.0;
    /// The fabric's base-latency provider (net::NetworkFabric::Resolve).
    /// kAuto keeps the dense matrix (O(1) reads) while it is small and
    /// switches to the on-demand sparse providers above. The sparse
    /// providers require Vivaldi coordinates (validated at Create): the
    /// MDS / true-coordinate ablations are centralized O(n^2) solves that
    /// need a dense matrix anyway.
    net::NetworkFabric::BaseMode fabric_mode =
        net::NetworkFabric::BaseMode::kAuto;
    uint64_t seed = 1;
  };

  /// Load a service adds to its host per (byte/s) of input it processes.
  static constexpr double kLoadPerBytePerS = 2e-6;

  /// Builds the overlay: latency matrix, coordinates, cost space, index.
  /// Rejects malformed topologies and out-of-range Options with
  /// InvalidArgument instead of silently misbehaving.
  static StatusOr<std::unique_ptr<Sbon>> Create(net::Topology topo,
                                                Options options);

  Sbon(const Sbon&) = delete;
  Sbon& operator=(const Sbon&) = delete;

  // --- substrate accessors ---
  const net::Topology& topology() const { return topo_; }
  const net::NetworkFabric& fabric() const { return *fabric_; }
  const coords::CoordinateManager& coords() const { return *coords_; }
  /// Mutable coordinate substrate, for the message-mode runtime
  /// (msg::Runtime) whose agents drive Vivaldi updates and ring publishes
  /// through explicit traffic instead of the oracle sweeps.
  coords::CoordinateManager& mutable_coords() { return *coords_; }
  /// Deployed circuits, service instances, the reuse catalog and the
  /// per-node service load. Mutations go through Sbon (InstallCircuit,
  /// RemoveCircuit, MigrateService, FailNode), which re-derives the
  /// cost-space scalar of every host the ledger call touched.
  const ServiceLedger& ledger() const { return *ledger_; }
  const net::LatencyView& latency() const { return fabric_->live(); }
  const coords::CostSpace& cost_space() const { return coords_->space(); }
  const dht::CoordinateIndex& index() const { return coords_->index(); }
  Rng& rng() { return rng_; }
  /// Overlay-eligible nodes currently *alive* (failed nodes drop out until
  /// they rejoin). Sorted ascending.
  const std::vector<NodeId>& overlay_nodes() const { return overlay_nodes_; }
  const Options& options() const { return options_; }

  // --- membership churn (crash / rejoin / partition) ---
  /// False while the node is crashed. Non-overlay nodes are always alive.
  bool IsAlive(NodeId n) const { return alive_[n]; }
  /// Crashes an overlay node: evicts every service instance it hosts
  /// (reversing their load deltas), withdraws it from the coordinate index
  /// (ring Leave), and reports the circuits the failure orphaned. The
  /// circuits themselves stay registered — callers (the engine's repair
  /// plan) decide whether to re-place or drop them.
  /// Refuses to crash the last alive overlay node.
  StatusOr<FailureReport> FailNode(NodeId n);
  /// Brings a crashed node back: re-publishes its full coordinate into the
  /// index (ring Join) with zero service load. The node keeps its last
  /// known vector coordinate until online Vivaldi samples refresh it —
  /// exactly how a real rejoin would start from stale state.
  Status RejoinNode(NodeId n);
  /// Physical crash without the membership transition: the node's fabric
  /// endpoint goes dark (its traffic drops, its latencies read +inf) but
  /// it stays alive in the overlay and the ring. Message mode's failure
  /// detector uses this — the overlay only learns of the crash when the
  /// detector confirms it and FailNode runs. Safe to follow with FailNode
  /// (SetEndpointDown is idempotent).
  Status CrashEndpoint(NodeId n);
  /// Undoes CrashEndpoint before detection confirmed (the node came back
  /// while nobody had noticed it was gone — no rejoin needed).
  Status RestoreEndpoint(NodeId n);
  /// Soft link partition: multiplies the live latency of every pair that
  /// crosses the cut (`group` vs. the rest) by `factor` until EndPartition.
  /// One partition may be active at a time; the penalty re-applies on every
  /// TickNetwork on top of fresh jitter.
  Status BeginPartition(const std::vector<NodeId>& group, double factor);
  /// Heals the active partition, restoring jittered (or base) latencies.
  Status EndPartition();
  bool partition_active() const { return fabric_->partition_active(); }

  // --- load state ---
  double BaseLoad(NodeId n) const { return load_model_->load(n); }
  /// Total CPU load in [0, 1]: ambient + service-induced.
  double TotalLoad(NodeId n) const;
  /// Scripted load override for tests/scenarios (sets the ambient part).
  void SetBaseLoad(NodeId n, double load);

  // --- circuits & services ---
  /// Deploys a fully placed circuit: creates (or attaches to) service
  /// instances, adds load, and registers the circuit. Returns its id.
  /// Failure-atomic: if any mid-install step fails (missing reused
  /// instance, broken dependency chain), every service instance and load
  /// delta created so far is released and the overlay is left exactly as
  /// it was before the call.
  StatusOr<CircuitId> InstallCircuit(Circuit circuit);
  /// Tears a circuit down, releasing service instances with no users left.
  Status RemoveCircuit(CircuitId id);

  /// Moves a service instance to a new host, updating load accounting and
  /// the vertices of every circuit bound to it.
  Status MigrateService(ServiceInstanceId id, NodeId new_host);

  // --- dynamics (the engine's epoch-pipeline stages) ---
  /// Advances ambient load by `dt` and refreshes cost-space scalar metrics.
  void Tick(double dt);
  /// Starts a new latency epoch: one Rng draw becomes the seed every
  /// pairwise jitter factor is derived from on read (when
  /// `latency_jitter_sigma > 0`). O(1). Everything downstream — circuit
  /// costs, reopt, Vivaldi samples — sees the new latencies immediately.
  void TickNetwork();
  /// Online coordinate maintenance: every node takes `samples_per_node`
  /// RTT measurements against the *current* (jittered) latencies and runs
  /// Vivaldi updates, then the cost space is refreshed. No-op when the
  /// overlay was built with MDS coordinates.
  void UpdateCoordinatesOnline(size_t samples_per_node);
  /// The pristine latency view (before jitter), for measuring how far
  /// the current epoch has drifted.
  const net::LatencyView& base_latency() const { return fabric_->base(); }
  /// Dirty-driven index refresh: republishes the full coordinate of every
  /// overlay node that moved more than `epsilon` (cost-space units) since
  /// its last publish; when nothing moved the ring is left entirely
  /// untouched (no Leave/Join). `epsilon = 0` republishes any node whose
  /// coordinate changed at all, which is query-for-query identical to
  /// republishing everything. Call after load changes when index queries
  /// should see fresh scalars.
  void RefreshIndex(double epsilon = 0.0);

  // --- metrics ---
  /// Cost of one deployed circuit against true latencies (marginal: only
  /// physically flowing edges and newly deployed hosts are charged).
  StatusOr<CircuitCost> CircuitCostOf(CircuitId id) const;
  /// Sum of network usage over all deployed circuits (physical edges only —
  /// shared subtrees counted once).
  double TotalNetworkUsage() const;
  /// Maximum total load over overlay nodes.
  double MaxLoad() const;

 private:
  Sbon(net::Topology topo, Options options);

  Status Initialize();
  /// The checks every churn call makes first: OutOfRange for a node past
  /// the topology, InvalidArgument for one that is not overlay-eligible.
  Status CheckChurnTarget(NodeId n) const;
  /// Re-derives every node's cost-space scalar metrics from total (ambient
  /// + service) load. Runs after anything that can change the ambient part
  /// (Tick, SetBaseLoad), liveness (FailNode, RejoinNode) and at bring-up.
  void UpdateScalarMetrics();
  /// The same for only the hosts the last ledger mutation touched
  /// (ServiceLedger::touched_hosts()): after Install, Remove and Migrate,
  /// which change no other node's load. Every other load writer sweeps all
  /// nodes, so an untouched node's scalar is never stale.
  void UpdateTouchedScalarMetrics();

  net::Topology topo_;
  Options options_;
  Rng rng_;
  std::unique_ptr<net::NetworkFabric> fabric_;
  std::unique_ptr<coords::CoordinateManager> coords_;
  std::unique_ptr<ServiceLedger> ledger_;
  std::unique_ptr<net::LoadModel> load_model_;
  std::vector<NodeId> overlay_nodes_;
  /// Per-node liveness (by node id); failed overlay nodes also leave
  /// overlay_nodes_ until they rejoin.
  std::vector<bool> alive_;
};

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_SBON_H_
