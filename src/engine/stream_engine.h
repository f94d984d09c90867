#ifndef SBON_ENGINE_STREAM_ENGINE_H_
#define SBON_ENGINE_STREAM_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "core/reopt.h"
#include "engine/registry.h"
#include "msg/agents.h"
#include "net/churn.h"
#include "net/topology.h"
#include "overlay/metrics.h"
#include "overlay/sbon.h"
#include "query/catalog.h"
#include "query/query_spec.h"

namespace sbon::engine {

/// Opaque reference to a query submitted to a StreamEngine. Handles stay
/// valid across re-optimization: a full re-plan swaps the underlying
/// circuit, not the handle.
struct QueryHandle {
  uint64_t id = 0;

  explicit operator bool() const { return id != 0; }
  friend bool operator==(QueryHandle a, QueryHandle b) { return a.id == b.id; }
  friend bool operator!=(QueryHandle a, QueryHandle b) { return a.id != b.id; }
  friend bool operator<(QueryHandle a, QueryHandle b) { return a.id < b.id; }
};

/// Per-call strategy override. Empty/absent fields fall back to the
/// engine-wide defaults from EngineOptions, so the common case is
/// `Submit(spec)` and an ablation is `Submit(spec, {.optimizer = "two-step"})`.
/// The engine records each query's strategy with every field resolved, and
/// re-optimizes and repairs the query with it.
struct StrategySpec {
  std::string optimizer;  ///< registry name; empty = engine default
  std::string placer;     ///< registry name; empty = engine default
  std::optional<core::OptimizerConfig> config;

  bool operator==(const StrategySpec&) const = default;
};

/// Everything needed to bring up a StreamEngine: the physical topology, the
/// overlay substrate options, and the default optimization strategy.
struct EngineOptions {
  net::Topology topology;
  overlay::Sbon::Options sbon;
  /// Default strategies, resolved through the built-in registries.
  std::string optimizer = "integrated";
  std::string placer = "relaxation";
  core::OptimizerConfig config;
  /// Republish every node's coordinate (with fresh load scalars) into the
  /// index after each successful Submit/Remove. Costs one index refresh per
  /// deployment; without it, mapping queries see load as of the last
  /// AdvanceEpoch.
  bool refresh_index_on_install = false;
};

/// One stage of an AdvanceEpoch run, as executed.
struct EpochStageTrace {
  const char* name = "";  ///< stage name (stable across epochs)
  bool ran = false;       ///< stage was enabled this epoch
  double ns = 0.0;        ///< wall time spent in the stage
};

/// How AdvanceEpoch executes the coordinate/ring maintenance stages.
enum class ExecMode {
  /// God's-eye maintenance: global Vivaldi sweep against the live latency
  /// oracle, direct index refresh. Zero control traffic; bit-identical to
  /// the engine before message mode existed.
  kOracle,
  /// Decentralized message passing: node-local agents exchange explicit
  /// ping/pong, publish/stabilize, and placement-probe traffic over a
  /// deterministic discrete-event bus (msg::MessageBus) whose deliveries
  /// pay live fabric latency and drop across partitions / to dead nodes.
  /// Surfaces per-epoch TrafficStats through EngineSnapshot::decentralized.
  kMessage,
};

/// One engine epoch: what AdvanceEpoch should advance. Replaces the manual
/// `TickNetwork` / `Tick` / `UpdateCoordinatesOnline` / `RefreshIndex`
/// sequence every client used to hand-wire.
struct EpochOptions {
  /// Ambient-load time step (0 = leave node load untouched).
  double dt = 1.0;
  /// Start a new latency epoch (resamples pairwise jitter when the overlay
  /// was built with `latency_jitter_sigma > 0`).
  bool tick_network = true;
  /// Online Vivaldi measurements per node against the new latencies.
  size_t vivaldi_samples = 0;
  /// Republish displaced coordinates into the index at the end.
  bool refresh_index = true;
  /// Displacement threshold (cost-space units) for the refresh: only nodes
  /// whose full coordinate moved more than this since their last publish
  /// are re-published. 0 republishes anything that changed at all; a quiet
  /// epoch (nothing beyond epsilon) leaves the ring untouched.
  double refresh_epsilon = 0.0;
  /// Membership churn driver: each AdvanceEpoch consumes one
  /// `churn->Step()` worth of events — crashes evict services and trigger
  /// the handle-stable repair plan, rejoins re-publish the node, partition
  /// events inflate cross-cut latency — after network/load/coordinate
  /// updates and before the index refresh. nullptr (the default) runs
  /// a bit-identical epoch to the pre-churn engine. Not owned.
  net::ChurnModel* churn = nullptr;
  /// The epoch pipeline is serial; only 0 and 1 are accepted, and
  /// AdvanceEpoch rejects anything larger with InvalidArgument. The field
  /// remains only because the benchmark suite's driver
  /// (bench/suite/sbon_bench.cc) assigns it; the next change to
  /// bench/suite/ deletes it together with that assignment.
  size_t threads = 1;
  /// Coordinate/ring maintenance execution (see ExecMode). The first
  /// kMessage epoch creates the engine's msg::Runtime from `msg`; later
  /// epochs keep that runtime (its params are pinned at creation, so agents
  /// and counters stay continuous across epochs).
  ExecMode exec_mode = ExecMode::kOracle;
  msg::RuntimeParams msg;
};

/// How Reoptimize should treat a query.
struct ReoptPolicy {
  enum class Mode {
    kLocal,  ///< migrate services of the existing circuit (cheap)
    kFull,   ///< re-run the optimizer; redeploy if the gain clears the bar
  };
  Mode mode = Mode::kLocal;
  /// The improvement bars. The optimizer, lambda and the mapping options
  /// are the query's own: the strategy it was submitted with.
  core::ReoptConfig config;
};

/// Outcome of a full re-optimization attempt.
struct FullReoptReport {
  bool redeployed = false;
  CircuitId new_circuit = kInvalidCircuit;
  /// The running circuit priced at the query's lambda, the weight its
  /// optimizer ranks candidates by.
  double estimated_cost_before = 0.0;
  double estimated_cost_candidate = 0.0;
  /// Accounting of the candidate optimization run (plans/placements/reuse/
  /// mapping work). Its `circuit` member is left empty: on redeploy the
  /// installed circuit is the authoritative copy, otherwise the candidate
  /// was discarded.
  core::OptimizeResult candidate;
};

/// What one Reoptimize call did. `local` is meaningful in kLocal mode,
/// `full` in kFull mode.
struct ReoptOutcome {
  ReoptPolicy::Mode mode = ReoptPolicy::Mode::kLocal;
  core::LocalReoptReport local;
  FullReoptReport full;
};

/// Per-query statistics, combining submit-time optimizer accounting with
/// the current deployed state.
struct QueryStats {
  QueryHandle handle;
  CircuitId circuit = kInvalidCircuit;
  std::string optimizer;  ///< registry name the query was optimized with
  double estimated_cost = 0.0;  ///< optimizer estimate at (re)deployment
  size_t plans_considered = 0;
  size_t placements_evaluated = 0;
  size_t reuse_candidates_considered = 0;
  size_t services_reused = 0;
  placement::MappingReport mapping;
  /// Current cost against true latencies (filled by Snapshot/StatsOf).
  overlay::CircuitCost true_cost;
};

/// Cumulative failure/repair accounting since engine creation (surfaced in
/// EngineSnapshot; what a deployment's churn dashboard would plot).
struct RepairStats {
  size_t crashes = 0;            ///< nodes failed via churn events
  size_t rejoins = 0;            ///< nodes brought back
  size_t partitions = 0;         ///< partition starts applied
  size_t heals = 0;              ///< partitions healed
  size_t services_evicted = 0;   ///< instances lost to dead hosts
  size_t circuits_orphaned = 0;  ///< circuits broken by failures
  size_t queries_repaired = 0;   ///< re-placed under their original handle
  size_t queries_dropped = 0;    ///< unrepairable (pinned endpoint down or
                                 ///< re-placement failed); handle released
};

/// Engine-wide view of the deployment.
struct EngineSnapshot {
  size_t num_queries = 0;
  size_t num_services = 0;
  size_t shared_services = 0;  ///< instances serving more than one circuit
  double total_network_usage = 0.0;
  double max_load = 0.0;
  RepairStats repair;               ///< cumulative churn/repair accounting
  std::vector<QueryStats> queries;  ///< in submission (handle) order
  /// Control-traffic summary of message-mode execution (absent until the
  /// engine has run a kMessage epoch): msgs/bytes by protocol, bytes per
  /// node per epoch, convergence epochs after churn, placement staleness.
  std::optional<msg::TrafficSummary> decentralized;
};

/// The SBON as a service (paper Sec. 4): clients submit continuous queries
/// and the engine optimizes, deploys, measures, and re-optimizes them —
/// no client ever touches placers, optimizers, or the DHT index directly.
///
/// Owns the overlay runtime (`overlay::Sbon`) and the stream catalog, and
/// resolves optimization strategies by name through the global registries.
///
/// `Submit` is atomic: optimization plus installation either fully succeed
/// (returning a live QueryHandle) or leave the overlay untouched.
class StreamEngine {
 public:
  static StatusOr<std::unique_ptr<StreamEngine>> Create(EngineOptions options);

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// RAII scope that coalesces install-triggered index refreshes
  /// (`EngineOptions::refresh_index_on_install`): while at least one scope
  /// is open, Submit/Remove/Reoptimize skip their per-call
  /// `RefreshIndex()` and the outermost scope's destructor performs one
  /// refresh iff any deployment changed underneath it. SubmitAll opens one
  /// internally (a Q-query batch pays one refresh, not Q); WorkloadEngine
  /// wraps each departure burst and each arrival batch the same way. A
  /// no-op on engines built without refresh_index_on_install — there the
  /// AdvanceEpoch refresh stage is the only publisher. Scopes nest.
  class DeferRefresh {
   public:
    explicit DeferRefresh(StreamEngine* engine) : engine_(engine) {
      ++engine_->defer_refresh_depth_;
    }
    ~DeferRefresh() {
      if (--engine_->defer_refresh_depth_ == 0 &&
          engine_->deferred_refresh_pending_) {
        engine_->deferred_refresh_pending_ = false;
        engine_->sbon_->RefreshIndex();
      }
    }
    DeferRefresh(const DeferRefresh&) = delete;
    DeferRefresh& operator=(const DeferRefresh&) = delete;

   private:
    StreamEngine* engine_;
  };

  // --- stream catalog ---
  const query::Catalog& catalog() const { return catalog_; }
  /// Replaces the catalog wholesale (e.g. a pre-built workload). Running
  /// queries keep their circuits; re-optimization uses the new catalog.
  void SetCatalog(query::Catalog catalog) { catalog_ = std::move(catalog); }
  /// Registers a stream pinned at `producer` and returns its id.
  StreamId AddStream(std::string name, double tuple_rate_per_s,
                     double tuple_size_bytes, NodeId producer);

  // --- query lifecycle ---
  /// Optimizes `spec` and deploys the winning circuit as one atomic step:
  /// if installation fails, no service instance or load delta survives.
  StatusOr<QueryHandle> Submit(const query::QuerySpec& spec,
                               const StrategySpec& strategy = {});
  /// Submits a batch; element i of the result corresponds to specs[i].
  /// Queries are deployed in order, so later ones can reuse the services of
  /// earlier ones (under a reuse-capable optimizer).
  std::vector<StatusOr<QueryHandle>> SubmitAll(
      const std::vector<query::QuerySpec>& specs,
      const StrategySpec& strategy = {});
  /// Tears the query down, releasing service instances (and their load)
  /// that no other circuit uses.
  Status Remove(QueryHandle handle);
  /// Local (service-migration) or full (re-plan + parallel redeploy)
  /// re-optimization of an intact circuit, gated by the policy's
  /// improvement bars. The handle remains valid either way. Circuits that
  /// lost a host are repaired by AdvanceEpoch's churn stage, which tears
  /// every orphaned remnant down before re-planning any of them.
  StatusOr<ReoptOutcome> Reoptimize(QueryHandle handle,
                                    const ReoptPolicy& policy);
  /// Advances simulated time one epoch through a fixed sequence of named
  /// stages: jitter -> load -> coords -> churn+repair -> refresh (message
  /// mode runs msg-coords and msg-refresh in place of coords and refresh,
  /// and appends a detect+repair stage that consumes failure-detector
  /// verdicts). Stage order is the determinism backbone: each stage sees
  /// exactly the state the previous stages produced. Returns
  /// InvalidArgument (without running any stage or touching the trace)
  /// when `threads` exceeds 1 or the first kMessage epoch carries
  /// out-of-range msg::RuntimeParams.
  Status AdvanceEpoch(const EpochOptions& epoch = EpochOptions());
  /// Per-stage trace of the most recent AdvanceEpoch (empty before the
  /// first call): one entry per stage, in order, disabled ones included.
  const std::vector<EpochStageTrace>& last_epoch_trace() const {
    return last_epoch_trace_;
  }

  /// Optimizes without deploying (compare-only flows, ablations).
  StatusOr<core::OptimizeResult> Optimize(const query::QuerySpec& spec,
                                          const StrategySpec& strategy = {});

  // --- introspection ---
  EngineSnapshot Snapshot() const;
  StatusOr<QueryStats> StatsOf(QueryHandle handle) const;
  /// Circuit currently serving the query (kInvalidCircuit if unknown).
  CircuitId CircuitOf(QueryHandle handle) const;
  /// Handle of the query a circuit serves ({} if unknown).
  QueryHandle HandleOf(CircuitId circuit) const;
  /// Spec the query was submitted with (nullptr if unknown).
  const query::QuerySpec* SpecOf(QueryHandle handle) const;
  /// Submit-time optimizer accounting of the query's last (re)deployment —
  /// reuse counters, plans considered — without the cost-space evaluation
  /// StatsOf pays per call. nullptr if unknown. The embedded circuit is
  /// empty by contract (the installed copy is authoritative).
  const core::OptimizeResult* ResultOf(QueryHandle handle) const;
  /// The optimizer's cost metric for the query's circuit against the
  /// *current* cost space (drifts as the network churns).
  StatusOr<double> CurrentEstimatedCost(QueryHandle handle) const;
  size_t NumQueries() const { return queries_.size(); }
  /// Cumulative churn/repair accounting (also embedded in Snapshot()).
  const RepairStats& repair_stats() const { return repair_stats_; }

  /// The overlay runtime. Mutating its load/coordinate state directly
  /// (e.g. SetBaseLoad in tests) is fine, but circuits deployed through the
  /// engine are tracked by id — prefer Remove()/Reoptimize() over direct
  /// RemoveCircuit calls. Remove() tolerates a circuit that already
  /// disappeared out-of-band (it just releases the query record).
  overlay::Sbon& sbon() { return *sbon_; }
  const overlay::Sbon& sbon() const { return *sbon_; }

  /// The message-mode runtime (nullptr until the first kMessage epoch).
  /// Once created, every subsequent placement (Submit/repair/full reopt) is
  /// billed as kPlacement traffic and staleness-stamped, whichever exec
  /// mode later epochs use.
  const msg::Runtime* msg_runtime() const { return msg_runtime_.get(); }

 private:
  /// Everything the engine remembers about a submitted query.
  struct QueryRecord {
    query::QuerySpec spec;
    CircuitId circuit = kInvalidCircuit;
    StrategySpec strategy;  ///< resolved: every field set
    core::OptimizeResult result;  ///< accounting of the winning run
  };

  /// An optimizer built for one resolved strategy.
  struct BuiltOptimizer {
    StrategySpec strategy;
    std::unique_ptr<core::Optimizer> optimizer;
  };

  explicit StreamEngine(EngineOptions options);

  /// The engine's optimizer for a resolved strategy: the one built for an
  /// equal strategy before, else a new one, kept unless building fails.
  StatusOr<BuiltOptimizer*> OptimizerFor(const StrategySpec& strategy);

  /// The one step that gives a query a circuit; Submit, the repair
  /// re-plan and a full re-optimization all run it. Optimizes
  /// `record->spec` with the recorded strategy. When the record holds a
  /// running circuit, prices it and keeps it unless the candidate is
  /// cheaper by more than `replan_threshold` (NotFound when the circuit was
  /// torn down out-of-band). Otherwise installs the candidate, bills it to
  /// message mode, removes the running circuit, points `handle` at the new
  /// circuit (a record not yet in queries_ is moved there) with the
  /// candidate's accounting, and refreshes the index. A failure before the
  /// install leaves the overlay and the record as they were.
  StatusOr<FullReoptReport> Deploy(QueryHandle handle, QueryRecord* record,
                                   double replan_threshold);
  /// Removes the record's circuit from the overlay (one already gone counts
  /// as removed) and clears it from the record and by_circuit_.
  Status Teardown(QueryRecord* record);

  void FillCurrentCost(QueryStats* stats) const;

  /// Applies one epoch's churn events: crashes run FailNode plus the repair
  /// plan over every orphaned circuit, rejoins run RejoinNode, partition
  /// events start/heal the latency cut. Events the overlay rejects (e.g. a
  /// crash that would take down the last alive node) are skipped.
  ///
  /// Repair is two-phase per crash: every orphaned remnant is torn down
  /// (unrepairable queries dropped) before any re-plan runs, so instances
  /// of a broken reuse chain are fully released — never left in the
  /// signature index for a re-plan to reuse without their feeders.
  void ApplyChurn(const std::vector<net::ChurnEvent>& events);
  /// FailNode + the two-phase repair plan over the orphaned circuits, with
  /// the crash reported to message mode first (carrying its detection
  /// latency when the detector confirmed it). Does nothing when the overlay
  /// refuses the failure (e.g. last alive node).
  void FailAndRepair(NodeId n);
  /// True when message mode runs with the decentralized failure detector:
  /// crashes defer membership transitions until the detector confirms.
  bool DetectorMode() const {
    return msg_runtime_ != nullptr && msg_runtime_->detector_enabled();
  }
  /// The install-time refresh gate shared by every deployment mutation:
  /// refreshes immediately when the engine was built with
  /// refresh_index_on_install and no DeferRefresh scope is open, otherwise
  /// leaves the refresh pending for the outermost scope to flush.
  void MaybeRefreshIndex();

  StrategySpec defaults_;  ///< from EngineOptions; every field set
  /// One per distinct resolved strategy run, the default's first; never
  /// evicted (an engine sees a handful). Each owns its Submit scratch.
  std::deque<BuiltOptimizer> optimizers_;
  bool refresh_index_on_install_ = false;
  /// Open DeferRefresh scopes; > 0 redirects install-time refreshes into
  /// deferred_refresh_pending_ for the outermost scope to flush.
  size_t defer_refresh_depth_ = 0;
  bool deferred_refresh_pending_ = false;

  std::unique_ptr<overlay::Sbon> sbon_;
  query::Catalog catalog_;
  std::map<QueryHandle, QueryRecord> queries_;
  /// Inverse of QueryRecord::circuit, kept in sync by Deploy and Teardown
  /// so HandleOf stays cheap at many-query scale.
  std::map<CircuitId, QueryHandle> by_circuit_;
  uint64_t next_handle_ = 1;
  RepairStats repair_stats_;
  std::vector<EpochStageTrace> last_epoch_trace_;
  /// Created lazily by the first kMessage AdvanceEpoch; never torn down
  /// (traffic accounting is cumulative, like repair_stats_).
  std::unique_ptr<msg::Runtime> msg_runtime_;
  /// Detector mode: physically crashed nodes (endpoint dark) whose
  /// membership transition awaits detector confirmation, with the bus
  /// epoch the crash happened at (detection latency = confirmation epoch
  /// minus this).
  std::map<NodeId, size_t> pending_crashes_;
};

}  // namespace sbon::engine

#endif  // SBON_ENGINE_STREAM_ENGINE_H_
