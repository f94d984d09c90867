#ifndef SBON_ENGINE_WORKLOAD_ENGINE_H_
#define SBON_ENGINE_WORKLOAD_ENGINE_H_

#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/summary.h"
#include "engine/stream_engine.h"
#include "query/workload.h"

namespace sbon::engine {

/// One scripted overload window: while active, the arrival rate is
/// multiplied and new arrivals are delivered to a small "hotspot" subset of
/// the consumer sites (a crowd converging on one corner of the overlay),
/// instead of spreading uniformly.
struct FlashCrowd {
  size_t start_epoch = 0;
  size_t duration_epochs = 0;
  /// Multiplies the (diurnally modulated) base rate while the window is
  /// active. > 1 for a crowd; exactly 1.0 is a no-op window.
  double rate_multiplier = 4.0;
  /// Fraction of the consumer sites the crowd converges on (ceil'd to at
  /// least one site), drawn as a seeded fixed subset at Create.
  double hotspot_site_frac = 0.05;
};

/// The open-loop arrival side of the workload: queries arrive whether or
/// not the system keeps up (that is the point — a closed loop can never
/// overload itself), live for an exponential number of epochs, then leave.
struct ArrivalProcess {
  /// Poisson mean arrivals per epoch before modulation.
  double base_rate_per_epoch = 8.0;
  /// Diurnal modulation: rate(t) = base * (1 + amplitude * sin(2*pi*t/T)).
  /// amplitude in [0, 1); 0 (or period 0) disables the cycle.
  double diurnal_amplitude = 0.0;
  size_t diurnal_period_epochs = 0;
  /// Mean exponential query lifetime in epochs (> 0); a query admitted at
  /// epoch t departs at t + 1 + floor(Exp(1/mean)).
  double mean_lifetime_epochs = 16.0;
  std::vector<FlashCrowd> flash_crowds;
};

/// Load shedding policy: arrivals beyond what the overlay can absorb are
/// counted and dropped *before* any optimizer work, instead of thrashing
/// the placement machinery into pathological deployments.
struct AdmissionControl {
  /// Hard cap on concurrently running engine queries (0 = unbounded).
  size_t max_running_queries = 0;
  /// A node is "saturated" when its total load reaches this value.
  double node_saturation_load = 0.95;
  /// Shed all arrivals of an epoch while the saturated fraction of alive
  /// overlay nodes is at or above this watermark (1.0 effectively disables
  /// the load-book gate; the query cap still applies).
  double saturated_node_watermark = 0.25;
};

struct WorkloadEngineOptions {
  /// Generator shape for the catalog built at Create and every arrival.
  query::WorkloadParams workload;
  ArrivalProcess arrivals;
  AdmissionControl admission;
  /// Template for the AdvanceEpoch each Step runs first. `epoch.churn` may
  /// point at a ChurnModel to compose failures with the arrival process.
  EpochOptions epoch;
  /// Strategy forwarded to every Submit (empty = engine defaults).
  StrategySpec strategy;
  /// Seeds the engine-independent private Rng: all arrival-count, spec,
  /// and lifetime draws come from it in a fixed order, so a fixed seed
  /// replays bit-identically.
  uint64_t seed = 1;
};

/// Counters and latency samples for one measurement phase (the bench cuts
/// the soak into steady / flash-crowd / recovery) and for the whole run.
struct WorkloadPhaseStats {
  std::string name;
  size_t epochs = 0;
  size_t arrivals = 0;    ///< open-loop offered queries
  size_t shed = 0;        ///< dropped by admission control (counted!)
  size_t admitted = 0;    ///< arrivals - shed (reached the optimizer)
  size_t submitted = 0;   ///< deployments that succeeded
  size_t submit_failures = 0;
  size_t departures = 0;  ///< lifetime-expired queries removed
  size_t reuse_hits = 0;  ///< submitted queries that reused >= 1 instance
  size_t services_reused = 0;
  /// Per-query submit latency: each Submit timed on its own — what a
  /// client waits for its handle. One sample per admitted query; the
  /// batch's single deferred index refresh is not billed to any query.
  Summary placement_ns;
  /// Per-repaired-query repair latency (repairing epochs only). Stays
  /// amortized: the churn+repair plus detect+repair stage time (the latter
  /// runs only in message mode with the failure detector, where the
  /// repairs happen) divided by the queries repaired, added once per
  /// repaired query.
  Summary repair_ns;

  double shed_rate() const {
    return arrivals == 0 ? 0.0
                         : static_cast<double>(shed) /
                               static_cast<double>(arrivals);
  }
  double reuse_hit_rate() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(reuse_hits) /
                                static_cast<double>(submitted);
  }
};

/// Open-loop workload driver over a StreamEngine (the ROADMAP's "heavy
/// traffic from millions of users" made measurable): each Step advances one
/// engine epoch, retires lifetime-expired queries under a single deferred
/// index refresh, draws this epoch's Poisson arrival count from the
/// composed rate curve (base x diurnal x flash-crowd), sheds what admission
/// control refuses, and submits the rest under one deferred index refresh,
/// timing each Submit. Latency samples are stored (8 bytes each, in the
/// phase row and in the totals row), so SLO percentiles are exact order
/// statistics and monotone in the quantile.
///
/// Deterministic replay: every random draw comes from the engine's seeded
/// substrate Rngs or this driver's private Rng, in stage order, so a fixed
/// (seed, options) pair yields bit-identical overlay state and counters —
/// the property the 5-seed replay test pins.
class WorkloadEngine {
 public:
  /// Validates options, seeds the generator, builds a fresh catalog over
  /// the currently alive overlay nodes, and installs it on `engine` (which
  /// must outlive the WorkloadEngine and have no prior catalog dependents).
  static StatusOr<std::unique_ptr<WorkloadEngine>> Create(
      StreamEngine* engine, WorkloadEngineOptions options);

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  /// Runs one epoch: AdvanceEpoch -> departures -> arrivals (admission,
  /// generation, batched submit). Fails only if AdvanceEpoch does.
  Status Step();
  /// Convenience soak: `n` Steps, stopping at the first failure.
  Status Run(size_t n);

  /// Starts a new named accounting phase; subsequent Steps bill into it.
  /// Phases are contiguous spans — the previous phase is closed for good.
  void BeginPhase(std::string name);

  size_t epoch() const { return epoch_index_; }
  /// Queries alive right now (arrivals minus departures/churn drops).
  size_t running() const { return engine_->NumQueries(); }
  /// The deterministic composed rate curve (before admission), exposed so
  /// tests and benches can introspect the schedule without re-deriving it.
  double ArrivalRateAt(size_t epoch) const;
  /// True while `epoch` falls inside any flash-crowd window.
  bool InFlashCrowd(size_t epoch) const;

  /// Whole-run accounting (name "total").
  const WorkloadPhaseStats& totals() const { return totals_; }
  /// Per-phase accounting in BeginPhase order (one implicit "steady" phase
  /// when BeginPhase was never called).
  const std::vector<WorkloadPhaseStats>& phases() const { return phases_; }

  const StreamEngine& engine() const { return *engine_; }

 private:
  WorkloadEngine(StreamEngine* engine, WorkloadEngineOptions options);

  /// A query's scheduled exit: min-heap keyed on (epoch, submission seq) so
  /// departure order is deterministic and FIFO within an epoch.
  struct Departure {
    size_t epoch = 0;
    uint64_t seq = 0;
    QueryHandle handle;
    bool operator>(const Departure& o) const {
      return epoch != o.epoch ? epoch > o.epoch : seq > o.seq;
    }
  };

  /// Retires every departure due at `epoch_index_` under one DeferRefresh
  /// scope (a burst of removals republishes the index once).
  void ProcessDepartures();
  /// Both accounting rows a Step updates (current phase + totals).
  void Bill(const std::function<void(WorkloadPhaseStats&)>& fn);
  WorkloadPhaseStats& current_phase() { return phases_.back(); }

  StreamEngine* engine_;
  WorkloadEngineOptions options_;
  Rng rng_;
  size_t epoch_index_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<NodeId> consumer_sites_;  ///< alive overlay nodes at Create
  /// Seeded shuffled copy of consumer_sites_; a flash window's hotspot is
  /// the ceil(hotspot_site_frac * size) prefix of this ordering.
  std::vector<NodeId> shuffled_sites_;
  std::priority_queue<Departure, std::vector<Departure>,
                      std::greater<Departure>>
      departures_;
  WorkloadPhaseStats totals_;
  std::vector<WorkloadPhaseStats> phases_;
  std::vector<double> submit_ns_;  ///< Step scratch: this epoch's latencies
};

}  // namespace sbon::engine

#endif  // SBON_ENGINE_WORKLOAD_ENGINE_H_
