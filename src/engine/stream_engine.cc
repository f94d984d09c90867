#include "engine/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

namespace sbon::engine {
namespace {

// `strategy` with every empty field taken from `base`, a resolved spec.
StrategySpec Resolve(StrategySpec strategy, const StrategySpec& base) {
  if (strategy.optimizer.empty()) strategy.optimizer = base.optimizer;
  if (strategy.placer.empty()) strategy.placer = base.placer;
  if (!strategy.config) strategy.config = base.config;
  return strategy;
}

}  // namespace

StreamEngine::StreamEngine(EngineOptions options)
    : defaults_{options.optimizer, options.placer, options.config},
      refresh_index_on_install_(options.refresh_index_on_install) {}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    EngineOptions options) {
  auto sbon = overlay::Sbon::Create(std::move(options.topology), options.sbon);
  if (!sbon.ok()) return sbon.status();
  std::unique_ptr<StreamEngine> engine(new StreamEngine(std::move(options)));
  engine->sbon_ = std::move(sbon.value());
  // Build the default strategy's optimizer now, so a typo in its names
  // fails engine creation instead of the first Submit.
  auto built = engine->OptimizerFor(engine->defaults_);
  if (!built.ok()) return built.status();
  return engine;
}

StatusOr<StreamEngine::BuiltOptimizer*> StreamEngine::OptimizerFor(
    const StrategySpec& strategy) {
  // Entries are found by value, and a NaN equals nothing: a strategy with
  // one would add an entry per call.
  if (std::isnan(strategy.config->lambda) ||
      std::isnan(strategy.config->reuse_radius)) {
    return Status::InvalidArgument("strategy parameters must not be NaN");
  }
  for (BuiltOptimizer& built : optimizers_) {
    if (built.strategy == strategy) return &built;
  }
  auto placer = PlacerRegistry::Global().Create(strategy.placer);
  if (!placer.ok()) return placer.status();
  auto optimizer = OptimizerRegistry::Global().Create(
      strategy.optimizer, *strategy.config, *placer);
  if (!optimizer.ok()) return optimizer.status();
  optimizers_.push_back(BuiltOptimizer{strategy, std::move(*optimizer)});
  return &optimizers_.back();
}

StreamId StreamEngine::AddStream(std::string name, double tuple_rate_per_s,
                                 double tuple_size_bytes, NodeId producer) {
  return catalog_.AddStream(std::move(name), tuple_rate_per_s,
                            tuple_size_bytes, producer);
}

StatusOr<core::OptimizeResult> StreamEngine::Optimize(
    const query::QuerySpec& spec, const StrategySpec& strategy) {
  auto built = OptimizerFor(Resolve(strategy, defaults_));
  if (!built.ok()) return built.status();
  return (*built)->optimizer->Optimize(spec, catalog_, sbon_.get());
}

StatusOr<FullReoptReport> StreamEngine::Deploy(QueryHandle handle,
                                               QueryRecord* record,
                                               double replan_threshold) {
  auto built = OptimizerFor(record->strategy);
  if (!built.ok()) return built.status();
  FullReoptReport report;
  const CircuitId running = record->circuit;
  if (running != kInvalidCircuit) {
    const overlay::Circuit* live = sbon_->ledger().FindCircuit(running);
    if (live == nullptr) return Status::NotFound("no such circuit");
    auto before =
        core::EstimateCost(*live, *sbon_, record->strategy.config->lambda);
    if (!before.ok()) return before.status();
    report.estimated_cost_before = *before;
  }
  auto result =
      (*built)->optimizer->Optimize(record->spec, catalog_, sbon_.get());
  if (!result.ok()) return result.status();
  report.estimated_cost_candidate = result->estimated_cost;
  overlay::Circuit circuit = std::move(result->circuit);
  report.candidate = std::move(*result);
  report.candidate.circuit = overlay::Circuit();
  // The paper's stronger re-optimization: deploy a parallel circuit and
  // cancel the original, but only for a gain that clears the bar.
  report.redeployed =
      running == kInvalidCircuit ||
      report.estimated_cost_candidate <
          report.estimated_cost_before * (1.0 - replan_threshold);

  const overlay::Circuit* installed = nullptr;
  if (report.redeployed) {
    // InstallCircuit is failure-atomic, so a failure here leaves the
    // overlay exactly as it was before the call.
    auto new_id = sbon_->InstallCircuit(std::move(circuit));
    if (!new_id.ok()) return new_id.status();
    report.new_circuit = *new_id;
    installed = sbon_->ledger().FindCircuit(*new_id);
  }
  if (msg_runtime_ != nullptr) {
    // Message mode bills the run's DHT traffic (the mapping stage's index
    // lookups/hops/probes) as kPlacement messages whether or not the
    // candidate was deployed, and stamps each placed vertex of a deployed
    // one with its host's coordinate staleness.
    msg_runtime_->BillPlacement(report.candidate.mapping.dht_cost, installed);
  }
  if (!report.redeployed) return report;
  if (running != kInvalidCircuit) {
    Status rm = sbon_->RemoveCircuit(running);
    if (!rm.ok()) return rm;
    by_circuit_.erase(running);
  }
  by_circuit_.emplace(report.new_circuit, handle);
  record->circuit = report.new_circuit;
  // The record keeps only the run's accounting; the installed circuit is
  // the authoritative copy.
  record->result = report.candidate;
  // A new query's record joins queries_; a stored one is already there
  // (try_emplace then leaves it untouched).
  queries_.try_emplace(handle, std::move(*record));
  MaybeRefreshIndex();
  return report;
}

Status StreamEngine::Teardown(QueryRecord* record) {
  Status st = sbon_->RemoveCircuit(record->circuit);
  // A circuit torn down out-of-band (directly on the Sbon) counts as
  // already removed.
  if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
  by_circuit_.erase(record->circuit);
  record->circuit = kInvalidCircuit;
  return Status::OK();
}

StatusOr<QueryHandle> StreamEngine::Submit(const query::QuerySpec& spec,
                                           const StrategySpec& strategy) {
  QueryRecord record{spec, kInvalidCircuit, Resolve(strategy, defaults_), {}};
  const QueryHandle handle{next_handle_};
  // No running circuit, so no bar: the candidate is always deployed.
  auto deployed = Deploy(handle, &record, /*replan_threshold=*/0.0);
  if (!deployed.ok()) return deployed.status();
  ++next_handle_;
  return handle;
}

std::vector<StatusOr<QueryHandle>> StreamEngine::SubmitAll(
    const std::vector<query::QuerySpec>& specs, const StrategySpec& strategy) {
  // One deferred refresh for the whole batch: each Submit stays atomic and
  // failure-isolated (a bad spec costs only its own slot), but the index
  // republish that refresh_index_on_install engines pay per deployment is
  // coalesced into a single pass when the scope closes.
  DeferRefresh defer(this);
  std::vector<StatusOr<QueryHandle>> handles;
  handles.reserve(specs.size());
  for (const query::QuerySpec& spec : specs) {
    handles.push_back(Submit(spec, strategy));
  }
  return handles;
}

Status StreamEngine::Remove(QueryHandle handle) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::NotFound("no such query");
  // The query record is releasable even when its circuit was torn down
  // out-of-band.
  Status st = Teardown(&it->second);
  if (!st.ok()) return st;
  queries_.erase(it);
  MaybeRefreshIndex();
  return Status::OK();
}

StatusOr<ReoptOutcome> StreamEngine::Reoptimize(QueryHandle handle,
                                                const ReoptPolicy& policy) {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::NotFound("no such query");
  QueryRecord& record = it->second;

  ReoptOutcome outcome;
  outcome.mode = policy.mode;
  if (policy.mode == ReoptPolicy::Mode::kFull) {
    auto report = Deploy(handle, &record, policy.config.replan_threshold);
    if (!report.ok()) return report.status();
    outcome.full = std::move(*report);
    return outcome;
  }

  auto built = OptimizerFor(record.strategy);
  if (!built.ok()) return built.status();
  auto report = core::LocalReoptimize(
      sbon_.get(), record.circuit, (*built)->optimizer->placer(),
      *record.strategy.config, policy.config);
  if (!report.ok()) return report.status();
  if (msg_runtime_ != nullptr) {
    // The re-mapping's index traffic is paid whether or not anything
    // moved; staleness is stamped only on a placement that was adopted.
    msg_runtime_->BillPlacement(
        report->mapping.dht_cost,
        report->migrations > 0 ? sbon_->ledger().FindCircuit(record.circuit)
                               : nullptr);
  }
  outcome.local = *report;
  return outcome;
}

void StreamEngine::FailAndRepair(NodeId n) {
  auto report = sbon_->FailNode(n);
  // The overlay may refuse (e.g. last alive node): no repair needed.
  if (!report.ok()) return;
  ++repair_stats_.crashes;
  if (msg_runtime_ != nullptr) {
    // Message mode: the crash produces leaf-set kLeave fan-out and
    // restarts the convergence clock. A crash the detector confirmed also
    // records how many epochs detection took. Repairs send no bus message,
    // so reporting before them changes no delivery.
    std::optional<size_t> detection_latency;
    auto pc = pending_crashes_.find(n);
    if (pc != pending_crashes_.end()) {
      const size_t completed = msg_runtime_->bus_epoch() - 1;
      detection_latency = completed - pc->second;
      pending_crashes_.erase(pc);
    }
    net::ChurnEvent ev;
    ev.type = net::ChurnEventType::kCrash;
    ev.node = n;
    msg_runtime_->NotifyChurn(ev, detection_latency);
  }
  repair_stats_.services_evicted += report->services_evicted;
  repair_stats_.circuits_orphaned += report->orphaned.size();
  // Phase 1: tear down every orphaned remnant (dropping unrepairable
  // queries) before re-planning anything. Every circuit that depends
  // on a broken reuse chain is in the orphan set (AttachDependencyChain
  // guarantees it), so after this loop no instance missing its feeder
  // is left in the signature index for a re-plan to pick up.
  std::vector<QueryHandle> replan;
  for (CircuitId cid : report->orphaned) {
    const QueryHandle handle = HandleOf(cid);
    if (!handle) {
      // Not engine-managed (installed directly on the Sbon): release
      // the broken remnant so no orphaned instances linger.
      (void)sbon_->RemoveCircuit(cid);
      continue;
    }
    // A dead pinned endpoint (producer or consumer) is unrepairable by
    // re-placement: the spec demands that exact node.
    const overlay::Circuit* remnant = sbon_->ledger().FindCircuit(cid);
    const bool pinned_down =
        remnant != nullptr &&
        std::any_of(remnant->vertices().begin(), remnant->vertices().end(),
                    [&](const overlay::CircuitVertex& v) {
                      return v.pinned && !sbon_->IsAlive(v.host);
                    });
    // Tearing the remnant down releases its surviving instances (and any
    // shared ones), so the re-plan gets a clean view of load and reuse
    // candidates.
    if (!pinned_down && Teardown(&queries_.find(handle)->second).ok()) {
      replan.push_back(handle);
    } else {
      // Drop the query; its handle is released.
      (void)Remove(handle);
      ++repair_stats_.queries_dropped;
    }
  }
  // Phase 2: re-plan the survivors in orphan (circuit-id) order, under
  // their handles and with no improvement bar (nothing is running).
  for (QueryHandle handle : replan) {
    if (Deploy(handle, &queries_.find(handle)->second,
               /*replan_threshold=*/0.0)
            .ok()) {
      ++repair_stats_.queries_repaired;
    } else {
      (void)Remove(handle);
      ++repair_stats_.queries_dropped;
    }
  }
}

void StreamEngine::ApplyChurn(const std::vector<net::ChurnEvent>& events) {
  for (const net::ChurnEvent& ev : events) {
    switch (ev.type) {
      case net::ChurnEventType::kCrash: {
        if (DetectorMode()) {
          // Deferred crash: the endpoint goes dark now, silently — the
          // membership transition (FailNode + repair) waits for the
          // failure detector's confirmation. Refuse crashes that could
          // leave no alive node once every pending crash confirms.
          if (pending_crashes_.size() + 1 >= sbon_->overlay_nodes().size()) {
            break;
          }
          if (sbon_->CrashEndpoint(ev.node).ok()) {
            pending_crashes_.emplace(ev.node, msg_runtime_->bus_epoch());
          }
          break;
        }
        FailAndRepair(ev.node);
        break;
      }
      case net::ChurnEventType::kRejoin: {
        auto pc = pending_crashes_.find(ev.node);
        if (pc != pending_crashes_.end()) {
          // Back before anyone noticed: the overlay never saw the crash,
          // so restoring the endpoint is the whole rejoin.
          if (sbon_->RestoreEndpoint(ev.node).ok()) pending_crashes_.erase(pc);
          break;
        }
        if (sbon_->RejoinNode(ev.node).ok()) {
          ++repair_stats_.rejoins;
          if (msg_runtime_ != nullptr) msg_runtime_->NotifyChurn(ev);
        }
        break;
      }
      case net::ChurnEventType::kPartitionStart:
        if (sbon_->BeginPartition(ev.group, ev.severity).ok()) {
          ++repair_stats_.partitions;
          if (msg_runtime_ != nullptr) msg_runtime_->NotifyChurn(ev);
        }
        break;
      case net::ChurnEventType::kPartitionHeal:
        if (sbon_->EndPartition().ok()) {
          ++repair_stats_.heals;
          if (msg_runtime_ != nullptr) msg_runtime_->NotifyChurn(ev);
        }
        break;
    }
  }
}

void StreamEngine::MaybeRefreshIndex() {
  if (!refresh_index_on_install_) return;
  if (defer_refresh_depth_ > 0) {
    deferred_refresh_pending_ = true;
    return;
  }
  sbon_->RefreshIndex();
}

Status StreamEngine::AdvanceEpoch(const EpochOptions& epoch) {
  if (epoch.threads > 1) {
    return Status::InvalidArgument("the epoch pipeline is serial: threads " +
                                   std::to_string(epoch.threads) + " > 1");
  }

  const bool message = epoch.exec_mode == ExecMode::kMessage;
  if (message && msg_runtime_ == nullptr) {
    // Validate once, at the construction that pins them (mirrors
    // Sbon::Options validation at Create). Later epochs keep the runtime,
    // so their (ignored) msg params aren't re-checked.
    Status st = msg::ValidateRuntimeParams(epoch.msg);
    if (!st.ok()) return st;
    msg_runtime_ = std::make_unique<msg::Runtime>(sbon_.get(), epoch.msg);
  }

  // Runs `fn()` as the next stage when `enabled` and records its trace
  // entry either way (a disabled stage records ran=false with zero time).
  // The trace is rewritten in place, keeping its capacity across epochs.
  last_epoch_trace_.clear();
  const auto stage = [this](const char* name, bool enabled, auto&& fn) {
    EpochStageTrace entry;
    entry.name = name;
    if (enabled) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      entry.ran = true;
      entry.ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    }
    last_epoch_trace_.push_back(entry);
  };

  // Stage order is the epoch's semantics: each stage sees exactly what the
  // previous stages produced.
  stage("jitter", epoch.tick_network, [&] { sbon_->TickNetwork(); });
  stage("load", epoch.dt > 0.0, [&] { sbon_->Tick(epoch.dt); });
  if (message) {
    // Message-mode coordinate maintenance: advance the bus clock and fan
    // out this epoch's pings. Pongs (and their spring updates) land in the
    // msg-refresh stage's drain.
    stage("msg-coords", /*enabled=*/true, [&] {
      msg_runtime_->BeginEpoch();
      if (epoch.vivaldi_samples > 0) {
        msg_runtime_->StepVivaldi(epoch.vivaldi_samples);
      }
    });
  } else {
    stage("coords", epoch.vivaldi_samples > 0, [&] {
      sbon_->UpdateCoordinatesOnline(epoch.vivaldi_samples);
    });
  }
  // Churn lands after the network/load/coordinate updates (repairs place
  // against this epoch's state) and before the refresh (so the refresh
  // publishes post-repair load for every surviving node). Repairs stay
  // ordered: each re-plan may legitimately reuse instances the previous
  // repair just deployed.
  stage("churn+repair", epoch.churn != nullptr,
               [&] { ApplyChurn(epoch.churn->Step()); });
  if (message) {
    // Message-mode refresh: displacement publishes + ring heartbeats, the
    // epoch drain (delivering pongs and publishes in latency order), the
    // drain's publishes as one ring batch and the coordinate sync.
    stage("msg-refresh", /*enabled=*/true, [&] {
      msg_runtime_->FinishEpoch(epoch.refresh_index, epoch.refresh_epsilon);
    });
  } else {
    stage("refresh", epoch.refresh_index,
                 [&] { sbon_->RefreshIndex(epoch.refresh_epsilon); });
  }
  if (message && msg_runtime_->detector_enabled()) {
    // Detector verdicts from this epoch's heartbeat sweep turn into the
    // membership transitions oracle mode applied instantly at the crash:
    // FailNode + the two-phase repair plan, with detection latency now a
    // measured quantity instead of zero by construction.
    stage("detect+repair", /*enabled=*/true, [&] {
      for (NodeId n : msg_runtime_->TakeConfirmedCrashes()) {
        if (!pending_crashes_.contains(n)) {
          // The node never physically crashed — the detector was
          // starved of its heartbeats (e.g. by a partition cut).
          msg_runtime_->NoteSpuriousConfirm(n);
          continue;
        }
        // Clears the pending record. If FailNode refuses (e.g. last alive
        // node) the record stays; suspicion rebuilds from silence and
        // re-confirms.
        FailAndRepair(n);
      }
    });
  }
  return Status::OK();
}

void StreamEngine::FillCurrentCost(QueryStats* stats) const {
  auto cost = sbon_->CircuitCostOf(stats->circuit);
  if (cost.ok()) stats->true_cost = *cost;
}

StatusOr<QueryStats> StreamEngine::StatsOf(QueryHandle handle) const {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::NotFound("no such query");
  const QueryRecord& record = it->second;
  QueryStats stats;
  stats.handle = handle;
  stats.circuit = record.circuit;
  stats.optimizer = record.strategy.optimizer;
  stats.estimated_cost = record.result.estimated_cost;
  stats.plans_considered = record.result.plans_considered;
  stats.placements_evaluated = record.result.placements_evaluated;
  stats.reuse_candidates_considered =
      record.result.reuse_candidates_considered;
  stats.services_reused = record.result.services_reused;
  stats.mapping = record.result.mapping;
  FillCurrentCost(&stats);
  return stats;
}

EngineSnapshot StreamEngine::Snapshot() const {
  EngineSnapshot snapshot;
  snapshot.num_queries = queries_.size();
  snapshot.num_services = sbon_->ledger().NumServices();
  for (const auto& [id, inst] : sbon_->ledger().services()) {
    if (inst.Shared()) ++snapshot.shared_services;
  }
  snapshot.total_network_usage = sbon_->TotalNetworkUsage();
  snapshot.max_load = sbon_->MaxLoad();
  snapshot.repair = repair_stats_;
  if (msg_runtime_ != nullptr) snapshot.decentralized = msg_runtime_->Summary();
  snapshot.queries.reserve(queries_.size());
  for (const auto& [handle, record] : queries_) {
    auto stats = StatsOf(handle);
    if (stats.ok()) snapshot.queries.push_back(std::move(stats.value()));
  }
  return snapshot;
}

CircuitId StreamEngine::CircuitOf(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it == queries_.end() ? kInvalidCircuit : it->second.circuit;
}

QueryHandle StreamEngine::HandleOf(CircuitId circuit) const {
  auto it = by_circuit_.find(circuit);
  return it == by_circuit_.end() ? QueryHandle{} : it->second;
}

const query::QuerySpec* StreamEngine::SpecOf(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it == queries_.end() ? nullptr : &it->second.spec;
}

const core::OptimizeResult* StreamEngine::ResultOf(QueryHandle handle) const {
  auto it = queries_.find(handle);
  return it == queries_.end() ? nullptr : &it->second.result;
}

StatusOr<double> StreamEngine::CurrentEstimatedCost(QueryHandle handle) const {
  auto it = queries_.find(handle);
  if (it == queries_.end()) return Status::NotFound("no such query");
  const overlay::Circuit* circuit =
      sbon_->ledger().FindCircuit(it->second.circuit);
  if (circuit == nullptr) return Status::NotFound("circuit not deployed");
  return core::EstimateCost(*circuit, *sbon_,
                            it->second.strategy.config->lambda);
}

}  // namespace sbon::engine
