#include "engine/workload_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <utility>

namespace sbon::engine {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Fraction of alive overlay nodes whose total load is at or above
/// `load_threshold`: one O(alive) sweep over cached load scalars, cheap
/// enough for admission control to evaluate every epoch.
double SaturatedFraction(const overlay::Sbon& sbon, double load_threshold) {
  const std::vector<NodeId>& nodes = sbon.overlay_nodes();
  if (nodes.empty()) return 0.0;
  size_t saturated = 0;
  for (NodeId n : nodes) {
    if (sbon.TotalLoad(n) >= load_threshold) ++saturated;
  }
  return static_cast<double>(saturated) / static_cast<double>(nodes.size());
}

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Status ValidateOptions(const WorkloadEngineOptions& o) {
  Status st = query::ValidateWorkloadParams(o.workload);
  if (!st.ok()) return st;
  const ArrivalProcess& a = o.arrivals;
  if (!(a.base_rate_per_epoch >= 0.0)) {
    return Status::InvalidArgument("base_rate_per_epoch must be >= 0");
  }
  if (a.diurnal_amplitude < 0.0 || a.diurnal_amplitude >= 1.0) {
    // Amplitude 1 would zero the rate at the trough; beyond it the "rate"
    // goes negative. Keep the modulated curve strictly positive.
    return Status::InvalidArgument("diurnal_amplitude must be in [0, 1)");
  }
  if (!(a.mean_lifetime_epochs > 0.0)) {
    return Status::InvalidArgument("mean_lifetime_epochs must be > 0");
  }
  for (const FlashCrowd& w : a.flash_crowds) {
    if (!(w.rate_multiplier >= 0.0)) {
      return Status::InvalidArgument("flash rate_multiplier must be >= 0");
    }
    if (!(w.hotspot_site_frac > 0.0) || w.hotspot_site_frac > 1.0) {
      return Status::InvalidArgument(
          "flash hotspot_site_frac must be in (0, 1]");
    }
  }
  const AdmissionControl& c = o.admission;
  if (!(c.node_saturation_load > 0.0) || c.node_saturation_load > 1.0) {
    return Status::InvalidArgument(
        "node_saturation_load must be in (0, 1]");
  }
  if (c.saturated_node_watermark < 0.0 || c.saturated_node_watermark > 1.0) {
    return Status::InvalidArgument(
        "saturated_node_watermark must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace

WorkloadEngine::WorkloadEngine(StreamEngine* engine,
                               WorkloadEngineOptions options)
    : engine_(engine), options_(std::move(options)), rng_(options_.seed) {
  totals_.name = "total";
  phases_.push_back(WorkloadPhaseStats{});
  phases_.back().name = "steady";
}

StatusOr<std::unique_ptr<WorkloadEngine>> WorkloadEngine::Create(
    StreamEngine* engine, WorkloadEngineOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  Status st = ValidateOptions(options);
  if (!st.ok()) return st;
  if (engine->sbon().overlay_nodes().empty()) {
    return Status::FailedPrecondition("overlay has no alive nodes");
  }
  std::unique_ptr<WorkloadEngine> wl(
      new WorkloadEngine(engine, std::move(options)));
  wl->consumer_sites_ = engine->sbon().overlay_nodes();
  // Catalog and hotspot ordering come from the same private Rng that later
  // drives arrivals — draw order is part of the replay contract.
  auto catalog = query::MakeRandomCatalog(wl->options_.workload,
                                          wl->consumer_sites_, &wl->rng_);
  if (!catalog.ok()) return catalog.status();
  engine->SetCatalog(std::move(catalog.value()));
  wl->shuffled_sites_ = wl->consumer_sites_;
  wl->rng_.Shuffle(&wl->shuffled_sites_);
  return wl;
}

void WorkloadEngine::BeginPhase(std::string name) {
  WorkloadPhaseStats& cur = current_phase();
  if (cur.epochs == 0 && cur.arrivals == 0) {
    // Nothing billed yet: rename in place instead of leaving an empty row.
    cur.name = std::move(name);
    return;
  }
  phases_.push_back(WorkloadPhaseStats{});
  phases_.back().name = std::move(name);
}

double WorkloadEngine::ArrivalRateAt(size_t epoch) const {
  const ArrivalProcess& a = options_.arrivals;
  double rate = a.base_rate_per_epoch;
  if (a.diurnal_amplitude > 0.0 && a.diurnal_period_epochs > 0) {
    const double t = static_cast<double>(epoch) /
                     static_cast<double>(a.diurnal_period_epochs);
    rate *= 1.0 + a.diurnal_amplitude * std::sin(2.0 * kPi * t);
  }
  for (const FlashCrowd& w : a.flash_crowds) {
    if (epoch >= w.start_epoch && epoch < w.start_epoch + w.duration_epochs) {
      rate *= w.rate_multiplier;
    }
  }
  return std::max(rate, 0.0);
}

bool WorkloadEngine::InFlashCrowd(size_t epoch) const {
  for (const FlashCrowd& w : options_.arrivals.flash_crowds) {
    if (epoch >= w.start_epoch && epoch < w.start_epoch + w.duration_epochs) {
      return true;
    }
  }
  return false;
}

void WorkloadEngine::Bill(
    const std::function<void(WorkloadPhaseStats&)>& fn) {
  fn(current_phase());
  fn(totals_);
}

void WorkloadEngine::ProcessDepartures() {
  if (departures_.empty() || departures_.top().epoch > epoch_index_) return;
  // One deferred refresh for the whole burst: a departure wave on a
  // refresh_index_on_install engine republishes the index once, not once
  // per removed query.
  StreamEngine::DeferRefresh defer(engine_);
  size_t removed = 0;
  while (!departures_.empty() && departures_.top().epoch <= epoch_index_) {
    const Departure due = departures_.top();
    departures_.pop();
    // NotFound = churn already dropped the query; its exit was billed as a
    // drop (repair_stats), not a departure.
    if (engine_->Remove(due.handle).ok()) ++removed;
  }
  Bill([&](WorkloadPhaseStats& s) { s.departures += removed; });
}

Status WorkloadEngine::Step() {
  const size_t t = epoch_index_;

  // Stage 1: the engine epoch (network/load/coords/churn/refresh). Repair
  // latency is billed per repaired query from the pipeline's own stage
  // clocks: oracle mode repairs in churn+repair, detector mode defers the
  // repairs to detect+repair, so both stages are billed.
  const RepairStats repairs_before = engine_->repair_stats();
  Status st = engine_->AdvanceEpoch(options_.epoch);
  if (!st.ok()) return st;
  const size_t repaired =
      engine_->repair_stats().queries_repaired - repairs_before.queries_repaired;
  if (repaired > 0) {
    double repair_stage_ns = 0.0;
    for (const EpochStageTrace& stage : engine_->last_epoch_trace()) {
      const std::string_view name(stage.name);
      if (name == "churn+repair" || name == "detect+repair") {
        repair_stage_ns += stage.ns;
      }
    }
    const double per_query =
        repair_stage_ns / static_cast<double>(repaired);
    Bill([&](WorkloadPhaseStats& s) {
      for (size_t i = 0; i < repaired; ++i) s.repair_ns.Add(per_query);
    });
  }

  // Stage 2: lifetime-expired queries leave.
  ProcessDepartures();

  // Stage 3: open-loop arrivals. The offered count never depends on system
  // state (that is what makes overload reachable); what gets *admitted*
  // does, via the load-book watermark and the running-query cap.
  const size_t offered = rng_.Poisson(ArrivalRateAt(t));
  Bill([&](WorkloadPhaseStats& s) {
    ++s.epochs;
    s.arrivals += offered;
  });
  if (offered > 0) {
    const AdmissionControl& adm = options_.admission;
    const bool saturated =
        SaturatedFraction(engine_->sbon(), adm.node_saturation_load) >=
        adm.saturated_node_watermark;
    size_t capacity = offered;
    if (saturated) {
      capacity = 0;
    } else if (adm.max_running_queries > 0) {
      const size_t running_now = running();
      capacity = adm.max_running_queries > running_now
                     ? std::min(offered,
                                adm.max_running_queries - running_now)
                     : 0;
    }
    const size_t shed = offered - capacity;

    // Flash-crowd arrivals converge on the window's hotspot prefix.
    const std::vector<NodeId>* sites = &consumer_sites_;
    std::vector<NodeId> hotspot;
    for (const FlashCrowd& w : options_.arrivals.flash_crowds) {
      if (t >= w.start_epoch && t < w.start_epoch + w.duration_epochs) {
        const size_t k = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(
                   w.hotspot_site_frac *
                   static_cast<double>(shuffled_sites_.size()))));
        hotspot.assign(shuffled_sites_.begin(),
                       shuffled_sites_.begin() +
                           std::min(k, shuffled_sites_.size()));
        sites = &hotspot;
        break;
      }
    }

    // Generate the admitted batch; each spec's lifetime is drawn right
    // after the spec itself, keeping the Rng stream a pure function of the
    // admitted count.
    std::vector<query::QuerySpec> batch;
    std::vector<size_t> depart_epochs;
    batch.reserve(capacity);
    depart_epochs.reserve(capacity);
    size_t generation_failures = 0;
    for (size_t i = 0; i < capacity; ++i) {
      auto spec = query::MakeRandomQuery(options_.workload,
                                         engine_->catalog(), *sites, &rng_);
      const double lifetime =
          rng_.Exponential(1.0 / options_.arrivals.mean_lifetime_epochs);
      if (!spec.ok()) {
        // Unreachable after Create's validation, but never silent.
        ++generation_failures;
        continue;
      }
      batch.push_back(std::move(spec.value()));
      depart_epochs.push_back(t + 1 + static_cast<size_t>(lifetime));
    }

    size_t submitted = 0, reuse_hits = 0, services_reused = 0;
    submit_ns_.clear();
    if (!batch.empty()) {
      // One deferred refresh for the batch, as SubmitAll would open, with
      // each Submit timed on its own.
      StreamEngine::DeferRefresh defer(engine_);
      for (size_t i = 0; i < batch.size(); ++i) {
        const auto start = std::chrono::steady_clock::now();
        const StatusOr<QueryHandle> handle =
            engine_->Submit(batch[i], options_.strategy);
        submit_ns_.push_back(NsSince(start));
        if (!handle.ok()) continue;
        ++submitted;
        departures_.push(
            Departure{depart_epochs[i], next_seq_++, handle.value()});
        const core::OptimizeResult* result = engine_->ResultOf(handle.value());
        if (result != nullptr && result->services_reused > 0) {
          ++reuse_hits;
          services_reused += result->services_reused;
        }
      }
    }
    const size_t failures =
        generation_failures + (batch.size() - submitted);
    Bill([&](WorkloadPhaseStats& s) {
      s.shed += shed;
      s.admitted += capacity;
      s.submitted += submitted;
      s.submit_failures += failures;
      s.reuse_hits += reuse_hits;
      s.services_reused += services_reused;
      s.placement_ns.AddAll(submit_ns_);
    });
  }

  ++epoch_index_;
  return Status::OK();
}

Status WorkloadEngine::Run(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Status st = Step();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace sbon::engine
