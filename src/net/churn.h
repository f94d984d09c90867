#ifndef SBON_NET_CHURN_H_
#define SBON_NET_CHURN_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace sbon::net {

/// What one churn event does to the network.
enum class ChurnEventType {
  kCrash,           ///< node fails (services evicted, leaves the ring)
  kRejoin,          ///< previously crashed node comes back
  kPartitionStart,  ///< a node group is cut off: cross-group latency inflates
  kPartitionHeal,   ///< the active partition heals
};

/// One membership/connectivity event emitted by a ChurnModel step.
struct ChurnEvent {
  ChurnEventType type = ChurnEventType::kCrash;
  /// Crash/rejoin target (unused for partition events).
  NodeId node = kInvalidNode;
  /// Partition start: the nodes on the minority side of the cut.
  std::vector<NodeId> group;
  /// Partition start: multiplicative latency penalty on cross-cut pairs.
  double severity = 1.0;
};

/// Membership churn and connectivity faults, alongside LoadModel (ambient
/// load drift) and latency jitter (transient congestion): seeded schedules of
/// node crashes, rejoins, and link partitions. The paper's adaptive
/// re-optimization story (Sec. 1, Fig. 2) assumes "the network and node
/// characteristics change" — this is the hard half of that change.
///
/// Two modes, freely mixed:
///  - Poisson: per-epoch crash/partition arrivals with sampled downtimes,
///    drawn from the model's *own* Rng (seeded by `Params::seed`), so churn
///    never perturbs the overlay's RNG stream — a zero-rate model attached
///    to an engine is bit-identical to no model at all.
///  - Scripted: `ScheduleAt(epoch, event)` fires exact events at exact
///    epochs (deterministic fault-injection for tests).
///
/// The model tracks which nodes it has taken down and never crashes a node
/// twice, never rejoins an up node, and keeps at least one eligible node up
/// (plus the `max_down_frac` cap). Consumers (engine::StreamEngine) apply
/// the returned events to the overlay.
class ChurnModel {
 public:
  struct Params {
    /// Expected node crashes per epoch (Poisson arrivals; 0 = none).
    double crash_rate = 0.0;
    /// Mean downtime in epochs before a crashed node rejoins (>= 1;
    /// sampled as 1 + Exponential truncated to whole epochs).
    double mean_downtime_epochs = 4.0;
    /// Ceiling on the fraction of eligible nodes simultaneously down.
    double max_down_frac = 0.5;
    /// Probability per epoch that a partition starts when none is active.
    double partition_rate = 0.0;
    /// Epochs until an automatic partition heals.
    size_t partition_duration_epochs = 3;
    /// Fraction of eligible nodes on the cut-off side of a partition.
    double partition_frac = 0.25;
    /// Multiplicative latency penalty across the cut while partitioned.
    double partition_factor = 8.0;
    /// Seed of the model's private Rng.
    uint64_t seed = 1;
  };

  /// `eligible` is the node population churn may act on (typically the
  /// overlay nodes alive at construction).
  ChurnModel(std::vector<NodeId> eligible, const Params& params);

  /// Scripted mode: fire `event` during the `epoch`-th Step call (0-based).
  /// Multiple events at one epoch fire in scheduling order, before any
  /// Poisson-generated events of that epoch.
  void ScheduleAt(size_t epoch, ChurnEvent event);

  /// Advances one epoch and returns its events: scripted first, then due
  /// rejoins, then Poisson crashes, then partition dynamics. Draws from the
  /// caller-visible Rng only when the corresponding rate is positive.
  std::vector<ChurnEvent> Step();

  size_t epoch() const { return epoch_; }
  size_t NumDown() const { return down_count_; }
  bool IsDown(NodeId node) const;
  bool PartitionActive() const { return partition_active_; }
  const Params& params() const { return params_; }
  const std::vector<NodeId>& eligible() const { return eligible_; }

 private:
  /// Max nodes that may be down at once (>= 0, <= eligible-1).
  size_t MaxDown() const;
  /// Whole-epoch downtime >= 1 with approximately the configured mean.
  size_t SampleDowntime();
  /// Index into eligible_ of `node`, or eligible_.size() if not eligible.
  size_t EligibleIndex(NodeId node) const;
  void MarkDown(size_t idx, size_t rejoin_epoch);
  void MarkUp(size_t idx);

  Params params_;
  std::vector<NodeId> eligible_;
  Rng rng_;
  size_t epoch_ = 0;
  /// Parallel to eligible_: epoch at which the node rejoins automatically;
  /// kUpMark = node is up, SIZE_MAX = down until a scripted rejoin.
  std::vector<size_t> rejoin_epoch_;
  size_t down_count_ = 0;
  bool partition_active_ = false;
  size_t partition_heal_epoch_ = 0;
  std::multimap<size_t, ChurnEvent> scripted_;

  static constexpr size_t kUpMark = 0;  // sentinel: epoch 0 rejoin = "up"
};

}  // namespace sbon::net

#endif  // SBON_NET_CHURN_H_
