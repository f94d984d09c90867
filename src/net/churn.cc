#include "net/churn.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sbon::net {

ChurnModel::ChurnModel(std::vector<NodeId> eligible, const Params& params)
    : params_(params), eligible_(std::move(eligible)), rng_(params.seed),
      rejoin_epoch_(eligible_.size(), kUpMark) {}

void ChurnModel::ScheduleAt(size_t epoch, ChurnEvent event) {
  scripted_.emplace(epoch, std::move(event));
}

bool ChurnModel::IsDown(NodeId node) const {
  const size_t idx = EligibleIndex(node);
  return idx < eligible_.size() && rejoin_epoch_[idx] != kUpMark;
}

size_t ChurnModel::MaxDown() const {
  if (eligible_.empty()) return 0;
  const double frac = std::clamp(params_.max_down_frac, 0.0, 1.0);
  const size_t cap =
      static_cast<size_t>(frac * static_cast<double>(eligible_.size()));
  // Never all nodes at once: something must stay up to host services.
  return std::min(cap, eligible_.size() - 1);
}

size_t ChurnModel::SampleDowntime() {
  const double mean = std::max(1.0, params_.mean_downtime_epochs);
  // 1 + floor(Exponential(mean - 1)) keeps whole-epoch downtimes >= 1 with
  // mean approximately `mean` (exact for mean -> 1; the floor shaves ~0.5
  // off large means, close enough for a churn knob).
  return 1 + static_cast<size_t>(rng_.Exponential(1.0 / std::max(
                                     1e-9, mean - 1.0 + 1e-9)));
}

size_t ChurnModel::EligibleIndex(NodeId node) const {
  for (size_t i = 0; i < eligible_.size(); ++i) {
    if (eligible_[i] == node) return i;
  }
  return eligible_.size();
}

void ChurnModel::MarkDown(size_t idx, size_t rejoin_epoch) {
  rejoin_epoch_[idx] = rejoin_epoch;
  ++down_count_;
}

void ChurnModel::MarkUp(size_t idx) {
  rejoin_epoch_[idx] = kUpMark;
  --down_count_;
}

std::vector<ChurnEvent> ChurnModel::Step() {
  std::vector<ChurnEvent> events;

  // 1) Scripted events, in scheduling order. Events that contradict the
  //    tracked state (crashing a down node, rejoining an up one, starting a
  //    partition over an active one) are dropped rather than emitted, so
  //    consumers never see an invalid sequence.
  auto range = scripted_.equal_range(epoch_);
  for (auto it = range.first; it != range.second; ++it) {
    const ChurnEvent& ev = it->second;
    switch (ev.type) {
      case ChurnEventType::kCrash: {
        const size_t idx = EligibleIndex(ev.node);
        if (idx >= eligible_.size() || rejoin_epoch_[idx] != kUpMark) break;
        if (down_count_ >= MaxDown()) break;
        MarkDown(idx, SIZE_MAX);  // down until a scripted rejoin
        events.push_back(ev);
        break;
      }
      case ChurnEventType::kRejoin: {
        const size_t idx = EligibleIndex(ev.node);
        if (idx >= eligible_.size() || rejoin_epoch_[idx] == kUpMark) break;
        MarkUp(idx);
        events.push_back(ev);
        break;
      }
      case ChurnEventType::kPartitionStart: {
        if (partition_active_ || ev.group.empty()) break;
        partition_active_ = true;
        partition_heal_epoch_ = SIZE_MAX;  // heals only via scripted heal
        events.push_back(ev);
        break;
      }
      case ChurnEventType::kPartitionHeal: {
        if (!partition_active_) break;
        partition_active_ = false;
        events.push_back(ev);
        break;
      }
    }
  }
  scripted_.erase(range.first, range.second);

  // 2) Automatic rejoins due this epoch (ascending node order: the rejoin
  //    schedule is a deterministic function of past crash draws).
  for (size_t i = 0; i < eligible_.size(); ++i) {
    if (rejoin_epoch_[i] != kUpMark && rejoin_epoch_[i] <= epoch_) {
      MarkUp(i);
      ChurnEvent ev;
      ev.type = ChurnEventType::kRejoin;
      ev.node = eligible_[i];
      events.push_back(ev);
    }
  }

  // 3) Poisson crash arrivals.
  const size_t arrivals = rng_.Poisson(params_.crash_rate);
  for (size_t a = 0; a < arrivals && down_count_ < MaxDown(); ++a) {
    // Rejection-sample an up node; terminates because down_count_ < MaxDown
    // guarantees at least one up node, and stays deterministic per seed.
    size_t idx;
    do {
      idx = static_cast<size_t>(rng_.UniformInt(eligible_.size()));
    } while (rejoin_epoch_[idx] != kUpMark);
    MarkDown(idx, epoch_ + SampleDowntime());
    ChurnEvent ev;
    ev.type = ChurnEventType::kCrash;
    ev.node = eligible_[idx];
    events.push_back(ev);
  }

  // 4) Partition dynamics: heal first (a heal and a new start may share an
  //    epoch), then possibly start a new cut.
  if (partition_active_ && partition_heal_epoch_ <= epoch_) {
    partition_active_ = false;
    ChurnEvent ev;
    ev.type = ChurnEventType::kPartitionHeal;
    events.push_back(ev);
  }
  if (!partition_active_ && params_.partition_rate > 0.0 &&
      eligible_.size() >= 2 &&
      rng_.Bernoulli(std::min(1.0, params_.partition_rate))) {
    const size_t group_size = std::clamp<size_t>(
        static_cast<size_t>(std::llround(params_.partition_frac *
                                         static_cast<double>(
                                             eligible_.size()))),
        1, eligible_.size() - 1);
    ChurnEvent ev;
    ev.type = ChurnEventType::kPartitionStart;
    ev.severity = params_.partition_factor;
    ev.group.reserve(group_size);
    for (size_t i : rng_.SampleWithoutReplacement(eligible_.size(),
                                                  group_size)) {
      ev.group.push_back(eligible_[i]);
    }
    std::sort(ev.group.begin(), ev.group.end());
    partition_active_ = true;
    partition_heal_epoch_ =
        epoch_ + std::max<size_t>(1, params_.partition_duration_epochs);
    events.push_back(std::move(ev));
  }

  ++epoch_;
  return events;
}

}  // namespace sbon::net
