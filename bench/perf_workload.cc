// perf_workload: the open-loop workload soak (README "Workload engine").
//
// Drives engine::WorkloadEngine over a transit-stub StreamEngine through a
// multi-thousand-epoch soak — a Poisson arrival process with diurnal
// modulation and a scripted flash-crowd overload window, exponential query
// lifetimes, light membership churn — and reports SLO percentiles (exact
// p50/p95/p99 of per-query placement latency and of amortized per-repair
// latency), shed rates, and reuse-catalog hit rates per phase (steady /
// flash-crowd / recovery) into BENCH_workload.json.
//
// The run self-gates (nonzero exit) when:
//  - the flash-crowd phase sheds nothing (admission control regression:
//    overload must be a *measured* scenario, not an accident), or
//  - the cumulative offered-query count misses the configured floor, or
//  - two runs of the same fixed-seed replay soak diverge.
//
// Full run (~minutes, Release): ≥ 1M cumulative offered queries.
//   ./perf_workload --json=BENCH_workload.json
// CI smoke run (seconds, same code paths, scaled down):
//   ./perf_workload --smoke --json=BENCH_workload.json

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/workload_engine.h"
#include "net/churn.h"

namespace {

/// Everything one soak run produces (the JSON body, and the replay gate's
/// comparison record).
struct SoakConfig {
  size_t nodes = 256;
  size_t epochs = 4000;
  double base_rate = 260.0;
  double mean_lifetime = 4.0;
  double diurnal_amplitude = 0.35;
  size_t diurnal_period = 1000;
  size_t flash_start = 1800;
  size_t flash_duration = 400;
  double flash_multiplier = 6.0;
  double hotspot_site_frac = 0.05;
  size_t max_running = 1600;
  double churn_crash_rate = 0.02;
  uint64_t seed = 42;
};

struct SoakResult {
  sbon::engine::WorkloadPhaseStats totals;
  std::vector<sbon::engine::WorkloadPhaseStats> phases;
  sbon::JsonWriter timeline;  // cumulative rates, sampled 16 times
  uint64_t fingerprint = 0;
  double wall_ns = 0.0;
  size_t final_running = 0;
  sbon::engine::RepairStats repair;
};

SoakResult RunSoak(const SoakConfig& cfg) {
  sbon::engine::EngineOptions eng_opts;
  // The soak runs with install-time refreshes on: every arrival batch and
  // departure burst republishes the index once (the SubmitAll/DeferRefresh
  // batching this PR pinned) so placements always see current load.
  eng_opts.refresh_index_on_install = true;
  auto engine = sbon::bench::MakeTransitStubEngine(cfg.nodes, cfg.seed,
                                                   std::move(eng_opts));

  sbon::net::ChurnModel::Params churn_params;
  churn_params.crash_rate = cfg.churn_crash_rate;
  churn_params.mean_downtime_epochs = 6.0;
  churn_params.seed = cfg.seed * 1000003 + 17;
  sbon::net::ChurnModel churn(engine->sbon().overlay_nodes(), churn_params);

  sbon::engine::WorkloadEngineOptions wl_opts;
  wl_opts.seed = cfg.seed * 131 + 7;
  // A shareable mix (popular streams, coarse selectivity grid, no
  // per-query filter noise — fig4's "heavy stream sharing" shape) so the
  // reuse-catalog hit rate measures something: fully heterogeneous random
  // queries never collide on a reuse signature.
  wl_opts.workload.num_streams = 16;
  wl_opts.workload.min_streams_per_query = 2;
  wl_opts.workload.max_streams_per_query = 4;
  wl_opts.workload.join_sel_log10_min = -3.0;
  wl_opts.workload.join_sel_log10_max = -3.0;
  wl_opts.workload.filter_prob = 0.0;
  wl_opts.workload.aggregate_prob = 0.0;
  wl_opts.arrivals.base_rate_per_epoch = cfg.base_rate;
  wl_opts.arrivals.mean_lifetime_epochs = cfg.mean_lifetime;
  wl_opts.arrivals.diurnal_amplitude = cfg.diurnal_amplitude;
  wl_opts.arrivals.diurnal_period_epochs = cfg.diurnal_period;
  sbon::engine::FlashCrowd flash;
  flash.start_epoch = cfg.flash_start;
  flash.duration_epochs = cfg.flash_duration;
  flash.rate_multiplier = cfg.flash_multiplier;
  flash.hotspot_site_frac = cfg.hotspot_site_frac;
  wl_opts.arrivals.flash_crowds.push_back(flash);
  wl_opts.admission.max_running_queries = cfg.max_running;
  wl_opts.epoch.dt = 0.25;
  wl_opts.epoch.vivaldi_samples = 1;
  wl_opts.epoch.refresh_epsilon = 0.05;
  wl_opts.epoch.churn = cfg.churn_crash_rate > 0.0 ? &churn : nullptr;
  wl_opts.epoch.exec_mode = sbon::bench::ExecMode();
  // Reuse-capable optimization is the point of tracking catalog hit rates;
  // --optimizer= still overrides for ablations.
  wl_opts.strategy.optimizer = sbon::bench::OptimizerFlag() == "integrated"
                                   ? "multi-query"
                                   : sbon::bench::OptimizerFlag();

  auto wl = sbon::engine::WorkloadEngine::Create(engine.get(), wl_opts);
  if (!wl.ok()) {
    std::fprintf(stderr, "WorkloadEngine creation failed: %s\n",
                 wl.status().ToString().c_str());
    std::exit(1);
  }
  sbon::engine::WorkloadEngine& w = **wl;

  SoakResult out;
  const size_t flash_end = cfg.flash_start + cfg.flash_duration;
  const size_t sample_every = std::max<size_t>(1, cfg.epochs / 16);
  const auto start = std::chrono::steady_clock::now();
  w.BeginPhase("steady");
  out.timeline.BeginArray();
  for (size_t t = 0; t < cfg.epochs; ++t) {
    if (t == cfg.flash_start) w.BeginPhase("flash-crowd");
    if (t == flash_end) w.BeginPhase("recovery");
    const sbon::Status st = w.Step();
    if (!st.ok()) {
      std::fprintf(stderr, "Step failed at epoch %zu: %s\n", t,
                   st.ToString().c_str());
      std::exit(1);
    }
    if ((t + 1) % sample_every == 0 || t + 1 == cfg.epochs) {
      out.timeline.BeginObject();
      out.timeline.Key("epoch").Int(t + 1);
      out.timeline.Key("running").Int(w.running());
      out.timeline.Key("reuse_hit_rate").Double(w.totals().reuse_hit_rate(), 6);
      out.timeline.Key("shed_rate").Double(w.totals().shed_rate(), 6);
      out.timeline.EndObject();
    }
  }
  out.timeline.EndArray();
  out.wall_ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.totals = w.totals();
  out.phases = w.phases();
  out.final_running = w.running();
  out.fingerprint = sbon::bench::StateFingerprint(engine->sbon());
  out.repair = engine->repair_stats();
  return out;
}

// The admission counters the totals and every phase report.
void WriteCounts(sbon::JsonWriter& w,
                 const sbon::engine::WorkloadPhaseStats& p) {
  w.Key("arrivals").Int(p.arrivals);
  w.Key("shed").Int(p.shed);
  w.Key("shed_rate").Double(p.shed_rate(), 6);
  w.Key("admitted").Int(p.admitted);
  w.Key("submitted").Int(p.submitted);
  w.Key("submit_failures").Int(p.submit_failures);
  w.Key("departures").Int(p.departures);
  w.Key("reuse_hit_rate").Double(p.reuse_hit_rate(), 6);
}

// One phase's row of the "phases" array.
void WritePhase(sbon::JsonWriter& w,
                const sbon::engine::WorkloadPhaseStats& p) {
  w.BeginObject();
  w.Key("name").String(p.name);
  w.Key("epochs").Int(p.epochs);
  WriteCounts(w, p);
  w.Key("services_reused").Int(p.services_reused);
  const auto latency = [&w](const char* key, const sbon::Summary& ns) {
    w.Key(key).BeginObject();
    w.Key("count").Int(ns.count());
    w.Key("mean").Double(ns.Mean(), 1);
    w.Key("p50").Double(ns.Percentile(50), 1);
    w.Key("p95").Double(ns.Percentile(95), 1);
    w.Key("p99").Double(ns.Percentile(99), 1);
    w.Key("max").Double(ns.Max(), 1);
    w.EndObject();
  };
  latency("placement_ns", p.placement_ns);
  latency("repair_ns", p.repair_ns);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);

  SoakConfig cfg;
  if (sbon::bench::SmokeMode()) {
    // Same code paths and phase structure, seconds instead of minutes.
    cfg.nodes = 120;
    cfg.epochs = 60;
    cfg.base_rate = 8.0;
    cfg.mean_lifetime = 6.0;
    cfg.diurnal_period = 30;
    cfg.flash_start = 24;
    cfg.flash_duration = 14;
    cfg.flash_multiplier = 10.0;
    cfg.max_running = 64;
    cfg.churn_crash_rate = 0.15;
  }
  cfg.nodes = sbon::bench::FlagOr(argc, argv, "nodes", cfg.nodes);
  cfg.epochs = sbon::bench::FlagOr(argc, argv, "epochs", cfg.epochs);
  cfg.base_rate = sbon::bench::DoubleFlagOr(argc, argv, "rate", cfg.base_rate);
  cfg.seed = sbon::bench::FlagOr(argc, argv, "seed", cfg.seed);
  const size_t min_cumulative = sbon::bench::FlagOr(
      argc, argv, "min-cumulative", sbon::bench::SmokeMode() ? 0 : 1000000);

  // Each section is written once, into `doc`: stdout shows it when it
  // completes, and --json writes the whole document at the end.
  sbon::JsonWriter doc;
  size_t printed = 0;
  sbon::bench::Section("open-loop workload soak");
  doc.BeginObject();
  doc.Key("bench").String("perf_workload");
  doc.Key("smoke").Bool(sbon::bench::SmokeMode());
  doc.Key("config").BeginObject();
  doc.Key("nodes").Int(cfg.nodes);
  doc.Key("epochs").Int(cfg.epochs);
  doc.Key("base_rate_per_epoch").Double(cfg.base_rate, 1);
  doc.Key("mean_lifetime_epochs").Double(cfg.mean_lifetime, 1);
  doc.Key("diurnal_amplitude").Double(cfg.diurnal_amplitude, 2);
  doc.Key("diurnal_period_epochs").Int(cfg.diurnal_period);
  doc.Key("flash_start").Int(cfg.flash_start);
  doc.Key("flash_duration").Int(cfg.flash_duration);
  doc.Key("flash_multiplier").Double(cfg.flash_multiplier, 1);
  doc.Key("hotspot_site_frac").Double(cfg.hotspot_site_frac, 2);
  doc.Key("max_running_queries").Int(cfg.max_running);
  doc.Key("churn_crash_rate").Double(cfg.churn_crash_rate, 2);
  doc.Key("seed").Int(cfg.seed);
  doc.EndObject();
  sbon::bench::PrintSection(doc, &printed);

  const SoakResult run = RunSoak(cfg);
  doc.Key("totals").BeginObject();
  WriteCounts(doc, run.totals);
  doc.Key("final_running").Int(run.final_running);
  doc.Key("wall_seconds").Double(run.wall_ns / 1e9, 1);
  doc.EndObject();
  doc.Key("repair").BeginObject();
  doc.Key("crashes").Int(run.repair.crashes);
  doc.Key("rejoins").Int(run.repair.rejoins);
  doc.Key("queries_repaired").Int(run.repair.queries_repaired);
  doc.Key("queries_dropped").Int(run.repair.queries_dropped);
  doc.EndObject();
  doc.Key("phases").BeginArray();
  for (const auto& p : run.phases) WritePhase(doc, p);
  doc.EndArray();
  doc.Key("timeline").Embed(run.timeline);
  sbon::bench::PrintSection(doc, &printed);

  // Replay gate: a pinned small soak run twice in one process must end
  // bit-identical — the workload driver's draws all come from its own Rng,
  // and no state may leak from one run into the next.
  sbon::bench::Section("replay gate (two runs, same configuration)");
  SoakConfig replay_cfg;
  replay_cfg.nodes = 96;
  replay_cfg.epochs = 30;
  replay_cfg.base_rate = 6.0;
  replay_cfg.mean_lifetime = 5.0;
  replay_cfg.diurnal_period = 15;
  replay_cfg.flash_start = 12;
  replay_cfg.flash_duration = 8;
  replay_cfg.flash_multiplier = 8.0;
  replay_cfg.max_running = 40;
  replay_cfg.churn_crash_rate = 0.3;
  replay_cfg.seed = cfg.seed;
  const SoakResult r1 = RunSoak(replay_cfg);
  const SoakResult r2 = RunSoak(replay_cfg);
  const bool replay_ok = r1.fingerprint == r2.fingerprint &&
                         r1.totals.arrivals == r2.totals.arrivals &&
                         r1.totals.shed == r2.totals.shed &&
                         r1.totals.submitted == r2.totals.submitted &&
                         r1.totals.departures == r2.totals.departures;
  const auto hex = [](uint64_t fingerprint) {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return std::string(text);
  };
  doc.Key("replay").BeginObject();
  doc.Key("fingerprint_run1").String(hex(r1.fingerprint));
  doc.Key("fingerprint_run2").String(hex(r2.fingerprint));
  doc.Key("identical").Bool(replay_ok);
  doc.EndObject();
  doc.EndObject();
  sbon::bench::PrintSection(doc, &printed);

  // Gates.
  const sbon::engine::WorkloadPhaseStats* flash_phase = nullptr;
  for (const auto& p : run.phases) {
    if (p.name == "flash-crowd") flash_phase = &p;
  }
  bool failed = false;
  if (!replay_ok) {
    std::fprintf(stderr, "GATE: two-run replay diverged\n");
    failed = true;
  }
  if (flash_phase == nullptr || flash_phase->shed == 0) {
    std::fprintf(stderr,
                 "GATE: flash-crowd phase shed nothing — admission control "
                 "never engaged under overload\n");
    failed = true;
  }
  if (run.totals.arrivals < min_cumulative) {
    std::fprintf(stderr,
                 "GATE: cumulative offered queries %zu below the %zu floor\n",
                 run.totals.arrivals, min_cumulative);
    failed = true;
  }
  if (!sbon::bench::WriteJson(doc)) return 1;
  return failed ? 1 : 0;
}
