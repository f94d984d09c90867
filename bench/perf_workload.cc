// perf_workload: the open-loop workload soak (README "Workload engine").
//
// Drives query::WorkloadEngine over a transit-stub StreamEngine through a
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
#include "net/churn.h"
#include "query/workload_engine.h"

namespace {

double NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

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

struct TimelinePoint {
  size_t epoch = 0;
  size_t running = 0;
  double reuse_hit_rate = 0.0;  // cumulative
  double shed_rate = 0.0;       // cumulative
};

struct SoakResult {
  sbon::query::WorkloadPhaseStats totals;
  std::vector<sbon::query::WorkloadPhaseStats> phases;
  std::vector<TimelinePoint> timeline;
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

  sbon::query::WorkloadEngineOptions wl_opts;
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
  sbon::query::FlashCrowd flash;
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

  auto wl = sbon::query::WorkloadEngine::Create(engine.get(), wl_opts);
  if (!wl.ok()) {
    std::fprintf(stderr, "WorkloadEngine creation failed: %s\n",
                 wl.status().ToString().c_str());
    std::exit(1);
  }
  sbon::query::WorkloadEngine& w = **wl;

  SoakResult out;
  const size_t flash_end = cfg.flash_start + cfg.flash_duration;
  const size_t sample_every = std::max<size_t>(1, cfg.epochs / 16);
  const auto start = std::chrono::steady_clock::now();
  w.BeginPhase("steady");
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
      TimelinePoint p;
      p.epoch = t + 1;
      p.running = w.running();
      p.reuse_hit_rate = w.totals().reuse_hit_rate();
      p.shed_rate = w.totals().shed_rate();
      out.timeline.push_back(p);
    }
  }
  out.wall_ns = NsSince(start);
  out.totals = w.totals();
  out.phases = w.phases();
  out.final_running = w.running();
  out.fingerprint = sbon::bench::StateFingerprint(engine->sbon());
  out.repair = engine->repair_stats();
  return out;
}

void PrintPhase(const sbon::query::WorkloadPhaseStats& p) {
  std::printf(
      "  %-11s epochs=%-5zu arrivals=%-8zu shed=%-7zu (%.1f%%) "
      "submitted=%-8zu reuse=%.1f%%\n",
      p.name.c_str(), p.epochs, p.arrivals, p.shed, 100.0 * p.shed_rate(),
      p.submitted, 100.0 * p.reuse_hit_rate());
  std::printf(
      "              placement p50=%.0f p95=%.0f p99=%.0f ns  "
      "repair p50=%.0f p95=%.0f p99=%.0f ns (%zu repairs)\n",
      p.placement_ns.Percentile(50), p.placement_ns.Percentile(95), p.placement_ns.Percentile(99),
      p.repair_ns.Percentile(50), p.repair_ns.Percentile(95), p.repair_ns.Percentile(99),
      p.repair_ns.count());
}

void JsonPhase(std::FILE* f, const sbon::query::WorkloadPhaseStats& p,
               bool last) {
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"epochs\": %zu, \"arrivals\": %zu, "
      "\"shed\": %zu, \"shed_rate\": %.6f, \"admitted\": %zu, "
      "\"submitted\": %zu, \"submit_failures\": %zu, \"departures\": %zu, "
      "\"reuse_hit_rate\": %.6f, \"services_reused\": %zu,\n"
      "     \"placement_ns\": {\"count\": %zu, \"mean\": %.1f, "
      "\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f},\n"
      "     \"repair_ns\": {\"count\": %zu, \"mean\": %.1f, "
      "\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f, \"max\": %.1f}}%s\n",
      p.name.c_str(), p.epochs, p.arrivals, p.shed, p.shed_rate(),
      p.admitted, p.submitted, p.submit_failures, p.departures,
      p.reuse_hit_rate(), p.services_reused, p.placement_ns.count(),
      p.placement_ns.Mean(), p.placement_ns.Percentile(50), p.placement_ns.Percentile(95),
      p.placement_ns.Percentile(99), p.placement_ns.Max(), p.repair_ns.count(),
      p.repair_ns.Mean(), p.repair_ns.Percentile(50), p.repair_ns.Percentile(95),
      p.repair_ns.Percentile(99), p.repair_ns.Max(), last ? "" : ",");
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

  sbon::bench::Section("open-loop workload soak");
  std::printf(
      "nodes=%zu epochs=%zu base_rate=%.1f lifetime=%.1f flash=[%zu,%zu)x%.1f "
      "cap=%zu crash_rate=%.2f seed=%llu\n",
      cfg.nodes, cfg.epochs, cfg.base_rate, cfg.mean_lifetime,
      cfg.flash_start, cfg.flash_start + cfg.flash_duration,
      cfg.flash_multiplier, cfg.max_running, cfg.churn_crash_rate,
      static_cast<unsigned long long>(cfg.seed));

  const SoakResult run = RunSoak(cfg);
  std::printf(
      "soak: %.1fs wall, %zu offered / %zu submitted / %zu shed (%.1f%%), "
      "%zu departures, %zu running at end\n",
      run.wall_ns / 1e9, run.totals.arrivals, run.totals.submitted,
      run.totals.shed, 100.0 * run.totals.shed_rate(),
      run.totals.departures, run.final_running);
  std::printf("repair: %zu crashes, %zu repaired, %zu dropped\n",
              run.repair.crashes, run.repair.queries_repaired,
              run.repair.queries_dropped);
  for (const auto& p : run.phases) PrintPhase(p);

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
  std::printf("fingerprint run1=%016llx run2=%016llx -> %s\n",
              static_cast<unsigned long long>(r1.fingerprint),
              static_cast<unsigned long long>(r2.fingerprint),
              replay_ok ? "identical" : "DIVERGED");

  // Gates.
  const sbon::query::WorkloadPhaseStats* flash_phase = nullptr;
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

  if (!sbon::bench::JsonFlag().empty()) {
    std::FILE* f = std::fopen(sbon::bench::JsonFlag().c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   sbon::bench::JsonFlag().c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"perf_workload\",\n"
        "  \"smoke\": %s,\n"
        "  \"config\": {\"nodes\": %zu, \"epochs\": %zu, "
        "\"base_rate_per_epoch\": %.1f, \"mean_lifetime_epochs\": %.1f, "
        "\"diurnal_amplitude\": %.2f, \"diurnal_period_epochs\": %zu, "
        "\"flash_start\": %zu, \"flash_duration\": %zu, "
        "\"flash_multiplier\": %.1f, \"hotspot_site_frac\": %.2f, "
        "\"max_running_queries\": %zu, \"churn_crash_rate\": %.2f, "
        "\"seed\": %llu},\n",
        sbon::bench::SmokeMode() ? "true" : "false", cfg.nodes, cfg.epochs,
        cfg.base_rate, cfg.mean_lifetime, cfg.diurnal_amplitude,
        cfg.diurnal_period, cfg.flash_start, cfg.flash_duration,
        cfg.flash_multiplier, cfg.hotspot_site_frac, cfg.max_running,
        cfg.churn_crash_rate, static_cast<unsigned long long>(cfg.seed));
    std::fprintf(
        f,
        "  \"totals\": {\"arrivals\": %zu, \"shed\": %zu, "
        "\"shed_rate\": %.6f, \"admitted\": %zu, \"submitted\": %zu, "
        "\"submit_failures\": %zu, \"departures\": %zu, "
        "\"reuse_hit_rate\": %.6f, \"final_running\": %zu, "
        "\"wall_seconds\": %.1f},\n",
        run.totals.arrivals, run.totals.shed, run.totals.shed_rate(),
        run.totals.admitted, run.totals.submitted,
        run.totals.submit_failures, run.totals.departures,
        run.totals.reuse_hit_rate(), run.final_running, run.wall_ns / 1e9);
    std::fprintf(
        f,
        "  \"repair\": {\"crashes\": %zu, \"rejoins\": %zu, "
        "\"queries_repaired\": %zu, \"queries_dropped\": %zu},\n",
        run.repair.crashes, run.repair.rejoins, run.repair.queries_repaired,
        run.repair.queries_dropped);
    std::fprintf(f, "  \"phases\": [\n");
    for (size_t i = 0; i < run.phases.size(); ++i) {
      JsonPhase(f, run.phases[i], i + 1 == run.phases.size());
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"timeline\": [\n");
    for (size_t i = 0; i < run.timeline.size(); ++i) {
      const TimelinePoint& p = run.timeline[i];
      std::fprintf(f,
                   "    {\"epoch\": %zu, \"running\": %zu, "
                   "\"reuse_hit_rate\": %.6f, \"shed_rate\": %.6f}%s\n",
                   p.epoch, p.running, p.reuse_hit_rate, p.shed_rate,
                   i + 1 == run.timeline.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(
        f,
        "  \"replay\": {\"fingerprint_run1\": \"%016llx\", "
        "\"fingerprint_run2\": \"%016llx\", \"identical\": %s}\n}\n",
        static_cast<unsigned long long>(r1.fingerprint),
        static_cast<unsigned long long>(r2.fingerprint),
        replay_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", sbon::bench::JsonFlag().c_str());
  }

  return failed ? 1 : 0;
}
