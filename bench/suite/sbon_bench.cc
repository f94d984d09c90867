// sbon_bench: the SBON benchmark (see bench/suite/README.md).
//
// One workload per invocation, in one process, with engine threads=1:
//
//   sbon_bench --workload=NAME --seed=S --json=PATH
//              [--seconds=T] [--trace=PATH] [--smoke]
//
// Workloads: maintain, place, soak, chaos. Each has a fixed scenario
// (topology, stream catalog, installed queries, churn schedule, the
// overlay's and the message bus's seeds); --seed draws its traffic (later
// query specs, arrivals and lifetimes, message faults). Nothing is drawn
// from the overlay's own Rng, so a change to the system's draw order cannot
// change the workload.
//
// Each public call the benchmark makes (AdvanceEpoch, Submit, Remove) is
// timed with steady_clock and every sample is kept, so percentiles are exact.
// A run brings the engine up untimed for 2 s, then 7 timed times (setup_s is
// their median), keeps the last bring-up, and runs the workload once. While
// less than --seconds have passed it brings up again and repeats; every
// repeat must end in the same state fingerprint.
//
// Between the timed calls the run times a fixed calibration burst that
// uses no library code, and reports every time rescaled to the reference
// host by the bursts around it (see Calibration and Rescale).
//
// --trace=PATH runs the workload once untraced, then once more with spans
// recorded around the calls into each layer, checks that both end in the
// same fingerprint, and writes the spans to PATH as CSV.
//
// Every metric is printed as `name value unit`; the exit status is non-zero
// when any correctness check fails.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/optimizer.h"
#include "engine/registry.h"
#include "engine/stream_engine.h"
#include "net/churn.h"
#include "net/generators.h"
#include "placement/mapping.h"
#include "query/enumerate.h"
#include "query/workload.h"

// ---------------------------------------------------------------------------
// Every operator new bumps this counter, so the delta across a call counts
// the heap allocations that call made (alloc.per_epoch, alloc.per_submit).
namespace {
uint64_t g_allocs = 0;
}  // namespace

// gcc pairs the malloc/free inside these replacements with the inlined
// callers' new/delete and reports a spurious mismatch; the replacement set
// is complete and consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sbon::suite {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Exact nearest-rank percentile: the smallest sample with at least a
/// fraction `q` of all samples at or below it.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Quality samples per pass.
constexpr size_t kSamples = 100;

/// Every kShadowStride-th traced Submit is shadowed (see Shadow). Coprime
/// with the 4-long stream-count cycle, so every query size is shadowed
/// equally often; a multiple of 4 would shadow one size only.
constexpr size_t kShadowStride = 7;

/// Untimed bring-ups before the timed ones (see Main).
constexpr double kWarmupSeconds = 2.0;

/// Seed of every workload's fixed scenario (see Inputs).
constexpr uint64_t kScenarioSeed = 20050405;

// -------------------------------------------------------------- calibration

/// A fixed burst of work that calls no library code: a unit-stride
/// multiply-add stream, a dependent walk around a random cycle, Box-Muller
/// math and small heap allocations, the kinds of work the workloads' hot
/// paths do. The benchmark times one burst every kCalibrationPeriod,
/// between the measured calls; how long bursts take says how fast the host
/// runs this process at that time. The working set (~0.6 MiB) fits in L2:
/// bursts over 4 MiB or 64 MiB followed the workloads' slow spells less
/// closely (see README).
///
/// Each burst makes an untimed pass first, so the timed pass starts from
/// the same cache state whatever the measured code left behind.
class Calibration {
 public:
  Calibration()
      : x_(kWords, 1.0), y_(kWords, 0.5), next_(kCycle), blocks_(kAllocs) {
    // Sattolo's shuffle: a single cycle through every entry.
    for (uint32_t i = 0; i < kCycle; ++i) next_[i] = i;
    Rng rng(kScenarioSeed);
    for (size_t i = kCycle - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.UniformInt(i)]);
    }
  }

  /// Runs one burst; returns the timed pass's duration in seconds.
  double Burst() {
    Pass();
    const Clock::time_point start = Clock::now();
    Pass();
    return Seconds(start, Clock::now());
  }

 private:
  static constexpr size_t kWords = 1 << 14;  ///< 128 KiB per stream array
  static constexpr size_t kSweeps = 4;
  static constexpr uint32_t kCycle = 1 << 16;  ///< 256 KiB walk
  static constexpr size_t kSteps = 1 << 15;
  static constexpr size_t kMath = 1 << 12;
  static constexpr size_t kAllocs = 1 << 10;

  void Pass() {
    for (size_t s = 0; s < kSweeps; ++s) {
      for (size_t i = 0; i < kWords; ++i) y_[i] = 0.5 * y_[i] + x_[i];
    }
    uint32_t at = 0;
    for (size_t i = 0; i < kSteps; ++i) at = next_[at];
    double acc = 0.0;
    for (size_t i = 1; i <= kMath; ++i) {
      const double u = static_cast<double>(i) / (kMath + 1);
      acc += std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * u);
    }
    for (size_t i = 0; i < kAllocs; ++i) {
      blocks_[i].reset(new uint32_t[8 + (i * 7 + at) % 57]);
      blocks_[i][0] = at;
    }
    sink_ = sink_ + acc + y_[at % kWords] + blocks_[at % kAllocs][0];
  }

  std::vector<double> x_, y_;
  std::vector<uint32_t> next_;
  std::vector<std::unique_ptr<uint32_t[]>> blocks_;
  volatile double sink_ = 0.0;
};

/// How often the measured loop stops for a calibration burst.
constexpr std::chrono::milliseconds kCalibrationPeriod(40);

/// A timed call is rescaled by the kWindow bursts before it and the
/// kWindow after it; there are kWindow bursts before each timed bring-up
/// and after the last.
constexpr size_t kWindow = 8;

/// The median burst time on the reference host (see README). Every timing
/// is reported as it would read on the reference host at its usual speed.
constexpr double kReferenceBurstS = 270e-6;

/// The host's speed over some bursts: the reference burst time over their
/// median. Multiplying a time measured among the bursts by it rescales the
/// time to the reference host.
double Speed(const std::vector<double>& bursts) {
  return Ratio(kReferenceBurstS, Percentile(bursts, 0.5));
}

/// Rescales timed calls to the reference host. Call i came after
/// `bursts_before[i]` of the `bursts`, and is multiplied by the speed over
/// the kWindow bursts on either side of it. The host's speed moves within a
/// run (one-second medians of bursts and of Submits rose 1.3-1.7x together
/// for a second or two), so it is taken locally rather than once per run.
void Rescale(const std::vector<double>& bursts,
             const std::vector<size_t>& bursts_before,
             std::vector<double>* samples) {
  std::vector<double> speed(bursts.size() + 1);
  for (size_t k = 0; k < speed.size(); ++k) {
    speed[k] = Speed(std::vector<double>(
        bursts.begin() + static_cast<ptrdiff_t>(k < kWindow ? 0 : k - kWindow),
        bursts.begin() +
            static_cast<ptrdiff_t>(std::min(bursts.size(), k + kWindow))));
  }
  for (size_t i = 0; i < samples->size(); ++i) {
    (*samples)[i] *= speed[bursts_before[i]];
  }
}

// ---------------------------------------------------------------- workloads

/// One benchmark workload. The closed-loop workloads (maintain, place,
/// chaos) run `cycles` cycles of `epochs_per_cycle` AdvanceEpoch calls
/// followed by `replaces_per_cycle` Remove-oldest + Submit-new steps, with
/// one client. The open-loop soak runs `cycles` epochs, each followed by
/// that epoch's departures and its Poisson arrivals.
struct Workload {
  std::string name;
  size_t nodes = 512;
  double jitter_sigma = 0.0;
  query::WorkloadParams params;
  size_t initial_queries = 0;
  std::string optimizer = "integrated";
  bool refresh_on_install = false;
  engine::EpochOptions epoch;
  double crash_rate = 0.0;
  double mean_downtime = 4.0;
  size_t cycles = 0;
  size_t epochs_per_cycle = 1;
  size_t replaces_per_cycle = 0;
  // soak
  bool open_loop = false;
  double arrivals_per_epoch = 0.0;
  double mean_lifetime = 8.0;
  size_t flash_start = 0;
  size_t flash_end = 0;
  double flash_multiplier = 1.0;
  double hotspot_frac = 0.05;
  // chaos
  size_t partition_start = 0;
  size_t partition_epochs = 0;
};

std::optional<Workload> MakeWorkload(std::string_view name, bool smoke) {
  Workload w;
  w.name = std::string(name);
  w.epoch.threads = 1;
  w.params.num_streams = 48;
  if (name == "maintain") {
    // Epoch-dominated: jitter and refresh are the epoch here. One query is
    // replaced every 4 epochs so the submit metrics exist on every workload.
    w.nodes = smoke ? 128 : 512;
    w.jitter_sigma = 0.1;
    w.initial_queries = smoke ? 16 : 64;
    w.epoch.dt = 1.0;
    w.epoch.vivaldi_samples = 1;
    w.epoch.refresh_epsilon = 1.0;
    w.cycles = smoke ? 40 : 1000;
    w.epochs_per_cycle = 4;
    w.replaces_per_cycle = 1;
  } else if (name == "place") {
    // Submit-dominated on a frozen network: no jitter, no load drift, no
    // Vivaldi. One refresh-only epoch per 60 replacements republishes the
    // load the installs moved.
    w.nodes = smoke ? 128 : 512;
    w.initial_queries = smoke ? 32 : 256;
    w.epoch.dt = 0.0;
    w.epoch.tick_network = false;
    w.epoch.refresh_epsilon = 0.0;
    w.cycles = smoke ? 20 : 1000;
    w.epochs_per_cycle = 1;
    w.replaces_per_cycle = smoke ? 10 : 60;
  } else if (name == "soak") {
    // Open loop over a shareable mix: reuse, repair and per-operation index
    // refreshes all run here.
    w.nodes = smoke ? 128 : 256;
    w.params.num_streams = 16;
    w.params.join_sel_log10_min = -3.0;
    w.params.join_sel_log10_max = -3.0;
    w.params.filter_prob = 0.0;
    w.params.aggregate_prob = 0.0;
    w.optimizer = "multi-query";
    w.refresh_on_install = true;
    w.epoch.dt = 0.25;
    w.epoch.vivaldi_samples = 1;
    w.epoch.refresh_epsilon = 0.05;
    w.crash_rate = 0.02;
    w.mean_downtime = 6.0;
    w.open_loop = true;
    w.cycles = smoke ? 40 : 400;
    w.arrivals_per_epoch = smoke ? 6.0 : 60.0;
    w.mean_lifetime = 8.0;
    w.flash_start = smoke ? 20 : 200;
    w.flash_end = smoke ? 24 : 240;
    w.flash_multiplier = 4.0;
  } else if (name == "chaos") {
    // Message mode under loss, duplication, crashes and a partition: the
    // fabric is read per message and msg does the maintenance.
    w.nodes = smoke ? 128 : 256;
    w.jitter_sigma = 0.1;
    w.initial_queries = smoke ? 8 : 32;
    w.epoch.dt = 1.0;
    w.epoch.vivaldi_samples = 1;
    w.epoch.refresh_epsilon = 1.0;
    w.epoch.exec_mode = engine::ExecMode::kMessage;
    for (msg::FaultRates& r : w.epoch.msg.bus.faults.protocol) {
      r.loss = 0.10;
      r.duplicate = 0.05;
    }
    w.epoch.msg.reliability.enabled = true;
    w.epoch.msg.reliability.retry_after_epochs = 1;
    w.epoch.msg.reliability.max_backoff_epochs = 2;
    w.epoch.msg.reliability.max_retries = 3;
    w.epoch.msg.detector.enabled = true;
    w.crash_rate = 0.05;
    w.mean_downtime = 4.0;
    w.cycles = smoke ? 30 : 3000;
    w.epochs_per_cycle = 1;
    w.replaces_per_cycle = 1;
    w.partition_start = smoke ? 10 : 1500;
    w.partition_epochs = smoke ? 3 : 20;
  } else {
    return std::nullopt;
  }
  return w;
}

/// Transit-stub parameters for roughly `target` nodes: the sizing rule the
/// figure benches use below 10k nodes (512 -> 496 nodes with 480 overlay
/// nodes, 256 -> 248 with 240).
net::TransitStubParams TransitStubFor(size_t target) {
  net::TransitStubParams p;
  p.transit_domains = target >= 400 ? 4 : 2;
  p.transit_nodes_per_domain = target >= 200 ? 4 : 2;
  p.stub_domains_per_transit_node = 3;
  const size_t transit = p.transit_domains * p.transit_nodes_per_domain;
  p.nodes_per_stub_domain = std::max<size_t>(
      2, (target - transit) / (transit * p.stub_domains_per_transit_node));
  return p;
}

/// Everything the workload feeds the system. The scenario is fixed per
/// workload: topology, stream catalog, the initially installed queries,
/// hotspot and partition sites, the churn schedule, and the seeds of the
/// system's own randomness (the overlay's, which draws ambient load and
/// Vivaldi samples, and the message bus's peer sampling). --seed draws the
/// traffic: every later query spec, arrivals and lifetimes, and the message
/// faults. Network usage per query spreads (quartile gap over median,
/// 10 seeds) 17-128% with the whole scenario drawn from --seed, which is
/// too wide for any bound; up to 6% (soak, chaos) with only the overlay,
/// bus and churn seeds drawn from it; and up to 4% with them fixed.
struct Inputs {
  net::Topology topology;
  query::Catalog catalog;
  std::vector<query::QuerySpec> initial;
  std::vector<NodeId> sites;      ///< overlay-eligible nodes
  std::vector<NodeId> hotspot;    ///< soak: flash-crowd consumer sites
  std::vector<NodeId> partition;  ///< chaos: the quarter that is cut off
  uint64_t sbon_seed = 0;
  uint64_t bus_seed = 0;  ///< message mode: the bus's peer sampling
  uint64_t churn_seed = 0;
  uint64_t spec_seed = 0;
  uint64_t arrival_seed = 0;
  uint64_t fault_seed = 0;  ///< message mode: the fault injector
};

/// The `index`-th query of a stream of specs. Its stream count cycles
/// through the generator's range (2, 3, 4, 5 by default), the exact mix
/// MakeRandomQuery draws uniformly: submit cost grows steeply with the
/// stream count, and a sampled mix moved submit_us_p50 by 10-20% between
/// seeds.
StatusOr<query::QuerySpec> DrawSpec(const Workload& w, size_t index,
                                    const query::Catalog& catalog,
                                    const std::vector<NodeId>& sites,
                                    Rng* rng) {
  query::WorkloadParams params = w.params;
  const size_t range =
      params.max_streams_per_query - params.min_streams_per_query + 1;
  params.min_streams_per_query += index % range;
  params.max_streams_per_query = params.min_streams_per_query;
  return query::MakeRandomQuery(params, catalog, sites, rng);
}

StatusOr<Inputs> MakeInputs(const Workload& w, uint64_t seed) {
  Rng scenario(kScenarioSeed);
  Rng master(seed);
  Inputs in;
  Rng topo_rng(scenario.Next());
  auto topo = net::GenerateTransitStub(TransitStubFor(w.nodes), &topo_rng);
  if (!topo.ok()) return topo.status();
  in.topology = std::move(topo.value());
  in.sites = in.topology.OverlayNodes();
  Rng catalog_rng(scenario.Next());
  auto catalog = query::MakeRandomCatalog(w.params, in.sites, &catalog_rng);
  if (!catalog.ok()) return catalog.status();
  in.catalog = std::move(catalog.value());
  std::vector<NodeId> shuffled = in.sites;
  Rng site_rng(scenario.Next());
  site_rng.Shuffle(&shuffled);
  const size_t hot = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(w.hotspot_frac * static_cast<double>(shuffled.size()))));
  in.hotspot.assign(shuffled.begin(), shuffled.begin() + hot);
  in.partition.assign(shuffled.begin(),
                      shuffled.begin() + shuffled.size() / 4);
  Rng initial_rng(scenario.Next());
  for (size_t i = 0; i < w.initial_queries; ++i) {
    auto spec = DrawSpec(w, i, in.catalog, in.sites, &initial_rng);
    if (!spec.ok()) return spec.status();
    in.initial.push_back(std::move(spec.value()));
  }

  in.sbon_seed = scenario.Next();
  in.bus_seed = scenario.Next();
  in.churn_seed = scenario.Next();

  in.spec_seed = master.Next();
  in.arrival_seed = master.Next();
  in.fault_seed = master.Next();
  return in;
}

// ------------------------------------------------------------------ tracing

/// One recorded span. Spans of one operation share `op`; `parent` indexes
/// the enclosing span (-1 for a root).
struct Span {
  const char* name;
  uint64_t op;
  int64_t parent;
  int64_t start_ns;
  int64_t dur_ns;
};

/// Spans kept in memory during the traced run and written out at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }

  int64_t Add(const char* name, uint64_t op, int64_t parent,
              Clock::time_point start, Clock::time_point end) {
    return AddNs(name, op, parent, Ns(start), Ns(end) - Ns(start));
  }
  int64_t AddNs(const char* name, uint64_t op, int64_t parent,
                int64_t start_ns, int64_t dur_ns) {
    spans_.push_back(Span{name, op, parent, start_ns, dur_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose duration End() fills in (children may be added in
  /// between).
  int64_t Begin(const char* name, uint64_t op, int64_t parent,
                Clock::time_point start) {
    return AddNs(name, op, parent, Ns(start), 0);
  }
  void End(int64_t span, Clock::time_point end) {
    spans_[span].dur_ns = Ns(end) - spans_[span].start_ns;
  }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span,op,parent,name,start_ns,dur_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%llu,%lld,%s,%lld,%lld\n", i,
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.dur_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The layer each engine pipeline stage belongs to (span names).
const char* StageSpanName(std::string_view stage) {
  if (stage == "jitter") return "net.jitter";
  if (stage == "load") return "overlay.load";
  if (stage == "coords") return "coords.vivaldi";
  if (stage == "refresh") return "coords.refresh";
  if (stage == "churn+repair") return "engine.churn_repair";
  if (stage == "msg-coords") return "msg.coords";
  if (stage == "msg-refresh") return "msg.refresh";
  if (stage == "detect+repair") return "engine.detect_repair";
  return "engine.other_stage";
}

// -------------------------------------------------------------------- runs

/// What one pass of a workload measured. Timing samples are per call;
/// every other field is a function of the seed and repeats exactly.
struct PassResult {
  /// Per-call times, rescaled to the reference host at the end of the pass
  /// (see Rescale).
  std::vector<double> epoch_ms;
  std::vector<double> submit_us;
  std::vector<double> remove_us;
  /// The number of calibration bursts before each call.
  std::vector<size_t> epoch_at, submit_at, remove_at;
  std::vector<double> burst_s;  ///< calibration bursts during the loop
  double loop_s = 0.0;  ///< measured loop, minus sampling and calibration
  size_t attempted = 0;
  size_t failed = 0;
  size_t offered = 0;  ///< Submit calls
  size_t submitted = 0;
  size_t dropped = 0;  ///< held queries the engine's repair dropped
  size_t reuse_hits = 0;
  std::vector<double> usage_samples;  ///< KB*ms/s per running query
  std::vector<double> load_samples;
  uint64_t epoch_allocs = 0;
  uint64_t submit_allocs = 0;
  size_t epoch_republished = 0;
  size_t submit_refreshes = 0;
  size_t plans = 0;
  size_t placements = 0;
  size_t load_overrides = 0;
  size_t lookups = 0;
  size_t hops = 0;
  size_t probes = 0;
  size_t reuse_candidates = 0;
  engine::RepairStats repair;
  std::optional<msg::TrafficSummary> traffic;
  uint64_t fingerprint = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
};

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void Mix(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

class Runner {
 public:
  Runner(Workload w, Inputs in, Calibration* calibration)
      : w_(std::move(w)), in_(std::move(in)), calibration_(calibration) {}

  /// Builds a fresh engine from the inputs: engine, catalog, and the
  /// initial queries (message mode first runs one epoch, which creates the
  /// message runtime that bills every later placement). Returns the
  /// bring-up time in seconds.
  StatusOr<double> BringUp() {
    engine_.reset();
    engine::EngineOptions options;
    options.topology = in_.topology;
    options.sbon.latency_jitter_sigma = w_.jitter_sigma;
    options.sbon.seed = in_.sbon_seed;
    options.optimizer = w_.optimizer;
    options.refresh_index_on_install = w_.refresh_on_install;
    query::Catalog catalog = in_.catalog;
    live_.clear();
    epoch_ = w_.epoch;
    epoch_.msg.bus.seed = in_.bus_seed;
    epoch_.msg.bus.faults.seed = in_.fault_seed;

    const Clock::time_point start = Clock::now();
    auto engine = engine::StreamEngine::Create(std::move(options));
    if (!engine.ok()) return engine.status();
    engine_ = std::move(engine.value());
    engine_->SetCatalog(std::move(catalog));
    if (epoch_.exec_mode == engine::ExecMode::kMessage) {
      Status st = engine_->AdvanceEpoch(epoch_);
      if (!st.ok()) return st;
    }
    for (const query::QuerySpec& spec : in_.initial) {
      auto h = engine_->Submit(spec);
      if (!h.ok()) return h.status();
      live_.insert(h->id);
    }
    const double seconds = Seconds(start, Clock::now());

    churn_.reset();
    net::ChurnModel::Params cp;
    cp.crash_rate = w_.crash_rate;
    cp.mean_downtime_epochs = w_.mean_downtime;
    cp.seed = in_.churn_seed;
    churn_.emplace(in_.sites, cp);
    if (w_.partition_epochs > 0) {
      net::ChurnEvent cut;
      cut.type = net::ChurnEventType::kPartitionStart;
      cut.group = in_.partition;
      cut.severity = 8.0;
      churn_->ScheduleAt(w_.partition_start, cut);
      net::ChurnEvent heal;
      heal.type = net::ChurnEventType::kPartitionHeal;
      churn_->ScheduleAt(w_.partition_start + w_.partition_epochs, heal);
    }
    if (w_.crash_rate > 0.0 || w_.partition_epochs > 0) {
      epoch_.churn = &*churn_;
    }
    spec_rng_.Seed(in_.spec_seed);
    arrival_rng_.Seed(in_.arrival_seed);
    next_op_ = 0;
    submits_ = 0;
    specs_drawn_ = 0;
    return seconds;
  }

  /// Runs the workload once on the engine the last BringUp built.
  PassResult Pass(Tracer* tracer) {
    tracer_ = tracer;
    PassResult r;
    if (tracer_ != nullptr) {
      auto placer = engine::PlacerRegistry::Global().Create("relaxation");
      if (placer.ok()) placer_ = placer.value();
    }
    const Clock::time_point start = Clock::now();
    last_burst_ = start - kCalibrationPeriod;  // the first call calibrates
    if (w_.open_loop) {
      OpenLoop(&r);
    } else {
      ClosedLoop(&r);
    }
    r.loop_s += Seconds(start, Clock::now());
    Rescale(r.burst_s, r.epoch_at, &r.epoch_ms);
    Rescale(r.burst_s, r.submit_at, &r.submit_us);
    Rescale(r.burst_s, r.remove_at, &r.remove_us);
    Check(&r);
    r.repair = engine_->repair_stats();
    if (w_.epoch.exec_mode == engine::ExecMode::kMessage) {
      r.traffic = engine_->Snapshot().decentralized;
    }
    r.fingerprint = Fingerprint(r);
    tracer_ = nullptr;
    return r;
  }

 private:
  void ClosedLoop(PassResult* r) {
    const size_t target = w_.initial_queries;
    for (size_t c = 0; c < w_.cycles; ++c) {
      for (size_t e = 0; e < w_.epochs_per_cycle; ++e) Epoch(r);
      for (size_t k = 0; k < w_.replaces_per_cycle; ++k) {
        // Queries the repair dropped are replaced without a Remove.
        if (live_.size() >= target) Remove(r, *live_.begin());
        Submit(r, NextSpec(in_.sites));
      }
      MaybeSample(r, c);
    }
  }

  void OpenLoop(PassResult* r) {
    struct Departure {
      size_t epoch;
      uint64_t seq;
      uint64_t handle;
      bool operator>(const Departure& o) const {
        return epoch != o.epoch ? epoch > o.epoch : seq > o.seq;
      }
    };
    std::priority_queue<Departure, std::vector<Departure>,
                        std::greater<Departure>>
        departures;
    uint64_t seq = 0;
    for (size_t t = 0; t < w_.cycles; ++t) {
      Epoch(r);
      if (!departures.empty() && departures.top().epoch <= t) {
        // One burst per epoch: its index refresh is deferred to the end of
        // the scope, timed here as its own span.
        Clock::time_point flush = Clock::now();
        {
          engine::StreamEngine::DeferRefresh defer(engine_.get());
          while (!departures.empty() && departures.top().epoch <= t) {
            const uint64_t h = departures.top().handle;
            departures.pop();
            if (live_.count(h) != 0) Remove(r, h);
          }
          flush = Clock::now();
        }
        if (tracer_ != nullptr) {
          tracer_->Add("coords.burst_refresh", next_op_++, -1, flush,
                       Clock::now());
        }
      }
      const bool flash = t >= w_.flash_start && t < w_.flash_end;
      const size_t arrivals = Poisson(
          w_.arrivals_per_epoch * (flash ? w_.flash_multiplier : 1.0));
      for (size_t i = 0; i < arrivals; ++i) {
        const query::QuerySpec spec =
            NextSpec(flash ? in_.hotspot : in_.sites);
        const double lifetime =
            arrival_rng_.Exponential(1.0 / w_.mean_lifetime);
        const std::optional<uint64_t> h = Submit(r, spec);
        if (h.has_value()) {
          departures.push(
              Departure{t + 1 + static_cast<size_t>(lifetime), seq++, *h});
        }
      }
      MaybeSample(r, t);
    }
  }

  /// Poisson draw from the arrival Rng by Knuth's product method (exact
  /// for the means used here; exp(-mean) underflows above ~700).
  size_t Poisson(double mean) {
    const double floor = std::exp(-mean);
    double product = arrival_rng_.NextDouble();
    size_t k = 0;
    while (product > floor) {
      ++k;
      product *= arrival_rng_.NextDouble();
    }
    return k;
  }

  /// Draws the next query whose consumer and producers are all up under
  /// the churn schedule: clients on crashed nodes do not submit.
  query::QuerySpec NextSpec(const std::vector<NodeId>& sites) {
    const size_t index = specs_drawn_++;
    query::QuerySpec spec;
    for (int attempt = 0; attempt < 64; ++attempt) {
      auto drawn = DrawSpec(w_, index, in_.catalog, sites, &spec_rng_);
      if (!drawn.ok()) break;  // Fixed inputs; Submit reports the failure.
      spec = std::move(drawn.value());
      bool up = !churn_->IsDown(spec.consumer);
      for (StreamId s : spec.streams) {
        up = up && !churn_->IsDown(engine_->catalog().stream(s).producer);
      }
      if (up) break;
    }
    return spec;
  }

  void Epoch(PassResult* r) {
    const uint64_t op = next_op_++;
    overlay::Sbon& sbon = engine_->sbon();
    const size_t dropped_before = engine_->repair_stats().queries_dropped;
    const size_t republished_before = sbon.coords().refresh_stats().republished;
    const uint64_t allocs_before = g_allocs;
    const Clock::time_point t0 = Clock::now();
    const Status st = engine_->AdvanceEpoch(epoch_);
    const Clock::time_point t1 = Clock::now();
    r->epoch_allocs += g_allocs - allocs_before;
    if (tracer_ != nullptr) {
      // The stages run inside AdvanceEpoch, so their spans come from the
      // engine's own stage clock: durations are exact; starts are laid end
      // to end from the epoch start.
      const int64_t span = tracer_->Add("engine.epoch", op, -1, t0, t1);
      int64_t cursor = tracer_->Ns(t0);
      for (const engine::EpochStageTrace& s : engine_->last_epoch_trace()) {
        if (!s.ran) continue;
        const int64_t ns = static_cast<int64_t>(s.ns);
        tracer_->AddNs(StageSpanName(s.name), op, span, cursor, ns);
        cursor += ns;
      }
    }
    r->epoch_ms.push_back(Seconds(t0, t1) * 1e3);
    r->epoch_at.push_back(r->burst_s.size());
    ++r->attempted;
    if (!st.ok()) {
      ++r->failed;
      Error(r, "AdvanceEpoch: " + st.ToString());
    }
    r->epoch_republished +=
        sbon.coords().refresh_stats().republished - republished_before;
    const size_t dropped =
        engine_->repair_stats().queries_dropped - dropped_before;
    if (dropped > 0) ForgetDropped(r, dropped);
    MaybeCalibrate(r);
  }

  /// Times a calibration burst when kCalibrationPeriod has passed since the
  /// last one; the burst is left out of loop_s.
  void MaybeCalibrate(PassResult* r) {
    const Clock::time_point start = Clock::now();
    if (start - last_burst_ < kCalibrationPeriod) return;
    r->burst_s.push_back(calibration_->Burst());
    last_burst_ = Clock::now();
    r->loop_s -= Seconds(start, last_burst_);
  }

  /// Repair dropped `expected` queries this epoch: their handles must be
  /// exactly the held handles that no longer resolve.
  void ForgetDropped(PassResult* r, size_t expected) {
    size_t gone = 0;
    for (auto it = live_.begin(); it != live_.end();) {
      if (engine_->SpecOf(engine::QueryHandle{*it}) == nullptr) {
        it = live_.erase(it);
        ++gone;
      } else {
        ++it;
      }
    }
    r->dropped += gone;
    if (gone != expected) {
      Error(r, "repair dropped " + std::to_string(expected) +
                   " queries but " + std::to_string(gone) +
                   " held handles stopped resolving");
    }
  }

  std::optional<uint64_t> Submit(PassResult* r, const query::QuerySpec& spec) {
    const uint64_t op = next_op_++;
    // Sampled traced Submits are preceded by a read-only replay of the
    // optimizer on the same spec and state.
    if (tracer_ != nullptr && submits_ % kShadowStride == 0) Shadow(op, spec);
    ++submits_;
    const size_t refreshes_before =
        engine_->sbon().coords().refresh_stats().refreshes;
    const uint64_t allocs_before = g_allocs;
    const Clock::time_point t0 = Clock::now();
    auto h = engine_->Submit(spec);
    const Clock::time_point t1 = Clock::now();
    r->submit_allocs += g_allocs - allocs_before;
    r->submit_refreshes +=
        engine_->sbon().coords().refresh_stats().refreshes - refreshes_before;
    if (tracer_ != nullptr) tracer_->Add("engine.submit", op, -1, t0, t1);
    r->submit_us.push_back(Seconds(t0, t1) * 1e6);
    r->submit_at.push_back(r->burst_s.size());
    ++r->attempted;
    ++r->offered;
    MaybeCalibrate(r);
    if (!h.ok()) {
      // A refusal (no capacity, or a host the placement chose is down)
      // counts in fail_frac; any other failure is a broken run.
      ++r->failed;
      const StatusCode code = h.status().code();
      if (code != StatusCode::kFailedPrecondition &&
          code != StatusCode::kResourceExhausted) {
        Error(r, "Submit: " + h.status().ToString());
      }
      return std::nullopt;
    }
    ++r->submitted;
    live_.insert(h->id);
    const core::OptimizeResult* res = engine_->ResultOf(*h);
    if (res == nullptr) {
      Error(r, "Submit returned a handle that does not resolve");
    } else {
      r->plans += res->plans_considered;
      r->placements += res->placements_evaluated;
      r->load_overrides += res->mapping.load_overrides;
      r->lookups += res->mapping.dht_cost.lookups;
      r->hops += res->mapping.dht_cost.routing_hops;
      r->probes += res->mapping.dht_cost.ring_probes;
      r->reuse_candidates += res->reuse_candidates_considered;
      if (res->services_reused > 0) ++r->reuse_hits;
    }
    return h->id;
  }

  void Remove(PassResult* r, uint64_t handle) {
    const uint64_t op = next_op_++;
    const Clock::time_point t0 = Clock::now();
    const Status st = engine_->Remove(engine::QueryHandle{handle});
    const Clock::time_point t1 = Clock::now();
    if (tracer_ != nullptr) tracer_->Add("overlay.remove", op, -1, t0, t1);
    r->remove_us.push_back(Seconds(t0, t1) * 1e6);
    r->remove_at.push_back(r->burst_s.size());
    ++r->attempted;
    if (!st.ok()) {
      ++r->failed;
      Error(r, "Remove: " + st.ToString());
    }
    live_.erase(handle);
    MaybeCalibrate(r);
  }

  /// The read-only shadow of one Submit: the integrated optimizer's layer
  /// calls replayed one by one (core.replay and its children), then the
  /// engine's optimizer as a whole (core.optimize). The replay runs first,
  /// in the cache state an untraced Submit meets; the whole-optimizer call
  /// runs right before the Submit so both see equally warm caches, which
  /// keeps Submit minus Optimize (overlay.install) unbiased.
  void Shadow(uint64_t op, const query::QuerySpec& spec) {
    Replay(op, spec);
    const Clock::time_point o0 = Clock::now();
    (void)engine_->Optimize(spec);
    tracer_->Add("core.optimize", op, -1, o0, Clock::now());
  }

  void Replay(uint64_t op, const query::QuerySpec& spec) {
    if (placer_ == nullptr) return;
    const overlay::Sbon& sbon = engine_->sbon();
    const query::Catalog& catalog = engine_->catalog();
    const core::OptimizerConfig config;  // the engine's default config
    const int64_t replay = tracer_->Begin("core.replay", op, -1, Clock::now());
    auto timed = [&](const char* name, auto&& fn) {
      const Clock::time_point s0 = Clock::now();
      auto out = fn();
      tracer_->Add(name, op, replay, s0, Clock::now());
      return out;
    };
    auto plans = timed("query.enumerate", [&] {
      return query::EnumeratePlans(spec, catalog, config.enumeration);
    });
    if (plans.ok()) {
      for (const query::LogicalPlan& plan : *plans) {
        auto circuit = timed("overlay.from_plan", [&] {
          return overlay::Circuit::FromPlan(plan, catalog);
        });
        if (!circuit.ok()) break;
        const Status placed = timed("placement.virtual", [&] {
          return placer_->Place(&circuit.value(), sbon.cost_space());
        });
        if (!placed.ok()) break;
        placement::MappingReport report;
        const Status mapped = timed("placement.map", [&] {
          return placement::MapCircuit(&circuit.value(), sbon, config.mapping,
                                       &report);
        });
        if (!mapped.ok()) break;
        (void)timed("core.estimate", [&] {
          return core::EstimateCost(*circuit, sbon, config.lambda);
        });
      }
    }
    tracer_->End(replay, Clock::now());
  }

  /// Quality samples and correctness checks at kSamples evenly spaced
  /// points of the loop, outside every timed span and outside loop_s.
  void MaybeSample(PassResult* r, size_t cycle) {
    if ((cycle + 1) * kSamples / w_.cycles == cycle * kSamples / w_.cycles) {
      return;
    }
    const Clock::time_point start = Clock::now();
    const overlay::Sbon& sbon = engine_->sbon();
    // Mean over reachable circuits: in message mode a circuit on a crashed
    // node reads +inf until the failure detector confirms the crash.
    double usage = 0.0;
    size_t reachable = 0;
    for (const auto& [id, circuit] : sbon.ledger().circuits()) {
      auto cost = sbon.CircuitCostOf(id);
      if (cost.ok() && std::isfinite(cost->network_usage)) {
        usage += cost->network_usage;
        ++reachable;
      }
    }
    r->usage_samples.push_back(
        Ratio(usage / 1e3, static_cast<double>(reachable)));
    // The most loaded node the placements use, ambient plus service load,
    // unclamped: Sbon::MaxLoad() clamps to 1 and reads ~1.0 on most
    // workloads, whatever the placement does.
    double max_load = 0.0;
    for (NodeId n : sbon.overlay_nodes()) {
      const double service = sbon.ledger().service_load(n);
      if (service > 0.0) {
        max_load = std::max(max_load, sbon.BaseLoad(n) + service);
      }
    }
    r->load_samples.push_back(max_load);
    Check(r);
    r->loop_s -= Seconds(start, Clock::now());
  }

  /// Every held handle resolves to an installed circuit whose hosts are
  /// all alive, and the engine runs exactly the queries the run holds.
  void Check(PassResult* r) {
    const overlay::Sbon& sbon = engine_->sbon();
    if (engine_->NumQueries() != live_.size()) {
      Error(r, "NumQueries() is " + std::to_string(engine_->NumQueries()) +
                   " but the run holds " + std::to_string(live_.size()));
    }
    for (uint64_t h : live_) {
      const overlay::Circuit* c =
          sbon.ledger().FindCircuit(engine_->CircuitOf(engine::QueryHandle{h}));
      if (c == nullptr) {
        Error(r, "held handle " + std::to_string(h) + " does not resolve");
        continue;
      }
      for (const overlay::CircuitVertex& v : c->vertices()) {
        if (!sbon.IsAlive(v.host)) {
          Error(r, "query " + std::to_string(h) + " runs on dead node " +
                       std::to_string(v.host));
        }
      }
    }
  }

  /// State fingerprint: coordinates, load penalties, a strided sample of
  /// live latencies, ledger size, network usage and the run's counters.
  uint64_t Fingerprint(const PassResult& r) const {
    const overlay::Sbon& sbon = engine_->sbon();
    Fnv h;
    const coords::CostSpace& space = sbon.cost_space();
    for (NodeId n = 0; n < space.NumNodes(); ++n) {
      const Vec& v = space.VectorCoord(n);
      for (size_t d = 0; d < v.dims(); ++d) h.Mix(v[d]);
      h.Mix(space.ScalarPenalty(n));
    }
    const size_t nn = sbon.topology().NumNodes();
    const size_t pairs = nn * nn;
    const size_t stride = std::max<size_t>(1, pairs / 65536);
    for (size_t i = 0; i < pairs; i += stride) {
      h.Mix(sbon.latency().Latency(static_cast<NodeId>(i / nn),
                                   static_cast<NodeId>(i % nn)));
    }
    h.Mix(static_cast<uint64_t>(sbon.ledger().NumServices()));
    h.Mix(static_cast<uint64_t>(sbon.ledger().circuits().size()));
    h.Mix(sbon.TotalNetworkUsage());
    for (size_t v : {r.offered, r.submitted, r.failed, r.dropped, r.reuse_hits,
                     r.epoch_republished, r.submit_refreshes, r.plans,
                     r.placements, r.load_overrides, r.lookups, r.hops,
                     r.probes, r.reuse_candidates, engine_->NumQueries()}) {
      h.Mix(static_cast<uint64_t>(v));
    }
    const engine::RepairStats& rs = engine_->repair_stats();
    for (size_t v : {rs.crashes, rs.rejoins, rs.partitions, rs.heals,
                     rs.services_evicted, rs.circuits_orphaned,
                     rs.queries_repaired, rs.queries_dropped}) {
      h.Mix(static_cast<uint64_t>(v));
    }
    const coords::IndexRefreshStats& fs = sbon.coords().refresh_stats();
    for (size_t v :
         {fs.refreshes, fs.republished, fs.skipped, fs.quiet_refreshes}) {
      h.Mix(static_cast<uint64_t>(v));
    }
    if (r.traffic.has_value()) {
      const msg::TrafficSummary& t = *r.traffic;
      for (size_t v : {t.msgs_sent, t.msgs_delivered, t.msgs_dropped_dead,
                       t.msgs_dropped_partition, t.msgs_dropped_fault,
                       t.msgs_duplicated, t.bytes_total, t.retries,
                       t.retry_bytes, t.acks, t.dup_suppressed,
                       t.retry_exhausted, t.suspicions, t.false_suspicions,
                       t.crash_confirmations}) {
        h.Mix(static_cast<uint64_t>(v));
      }
    }
    return h.value();
  }

  static void Error(PassResult* r, std::string what) {
    // A broken invariant tends to repeat every epoch; keep the first few.
    if (r->errors.size() < 20) r->errors.push_back(std::move(what));
  }

  const Workload w_;
  const Inputs in_;
  Calibration* const calibration_;
  Clock::time_point last_burst_;
  std::unique_ptr<engine::StreamEngine> engine_;
  // Held by value: a heap ChurnModel trips gcc's -Wmismatched-new-delete
  // against this file's counting operator new.
  std::optional<net::ChurnModel> churn_;
  engine::EpochOptions epoch_;
  Rng spec_rng_;
  Rng arrival_rng_;
  /// Handles the run holds. Handle ids grow with submission order, so
  /// the smallest is the oldest query.
  std::set<uint64_t> live_;
  uint64_t next_op_ = 0;
  size_t submits_ = 0;
  size_t specs_drawn_ = 0;
  Tracer* tracer_ = nullptr;
  std::shared_ptr<const placement::VirtualPlacer> placer_;
};

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool exact;  ///< a function of the seed alone: repeats bit for bit
};

struct CheckResult {
  std::string name;
  bool ok;
  std::string detail;
};

/// Everything one run reports, as `name value unit` lines and as JSON.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool smoke = false;
  bool traced = false;
  size_t passes = 0;
  std::vector<double> setup_s;
  std::vector<double> setup_burst_s;  ///< calibration bursts in set-up
  size_t epochs = 0;
  size_t submits = 0;
  size_t removes = 0;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t fingerprint = 0;
  std::vector<Metric> metrics;  ///< end to end
  std::vector<Metric> layers;   ///< per layer
  std::string span_table;       ///< JSON object body: self time per span
  std::vector<CheckResult> checks;

  /// Records a check; `detail` explains a failure.
  void Check(std::string name, bool ok, std::string detail) {
    checks.push_back(
        CheckResult{std::move(name), ok, ok ? std::string() : detail});
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  void Print() const;
  bool WriteJson(const std::string& path) const;
};

/// End-to-end metrics over the untraced passes. Quality and failure
/// metrics come from the first pass (every pass repeats them exactly).
void AddEndToEnd(const std::vector<PassResult>& passes, Report* out) {
  std::vector<double> epoch_ms, submit_us, burst_s;
  double loop_s = 0.0;
  size_t submitted = 0;
  for (const PassResult& p : passes) {
    epoch_ms.insert(epoch_ms.end(), p.epoch_ms.begin(), p.epoch_ms.end());
    submit_us.insert(submit_us.end(), p.submit_us.begin(), p.submit_us.end());
    burst_s.insert(burst_s.end(), p.burst_s.begin(), p.burst_s.end());
    loop_s += p.loop_s;
    submitted += p.submitted;
  }
  const PassResult& first = passes.front();
  auto add = [&](const char* name, double value, const char* unit,
                 bool exact) {
    out->metrics.push_back(Metric{name, value, unit, exact});
  };
  const double loop_speed = Speed(burst_s);
  add("setup_s", Percentile(out->setup_s, 0.5), "s", false);
  add("epoch_ms_p50", Percentile(epoch_ms, 0.5), "ms", false);
  add("epoch_ms_p99", Percentile(epoch_ms, 0.99), "ms", false);
  add("submit_us_p50", Percentile(submit_us, 0.5), "us", false);
  add("submit_us_p99", Percentile(submit_us, 0.99), "us", false);
  add("queries_per_s",
      Ratio(static_cast<double>(submitted), loop_s * loop_speed), "1/s",
      false);
  // The rescaling factors, to recover the times as measured.
  add("host.setup_speed", Speed(out->setup_burst_s), "ratio", false);
  add("host.loop_speed", loop_speed, "ratio", false);
  add("net_usage_per_query", Mean(first.usage_samples), "KB.ms/s", true);
  // The median sample: one query whose operator lands on a busy node can
  // push the busiest node to several times its usual load for that query's
  // lifetime, a small share of the samples.
  add("max_node_load", Percentile(first.load_samples, 0.5), "load", true);
  add("reuse_hit_rate",
      Ratio(static_cast<double>(first.reuse_hits),
            static_cast<double>(first.submitted)),
      "frac", true);
  add("fail_frac",
      Ratio(static_cast<double>(first.offered - first.submitted +
                                first.dropped),
            static_cast<double>(first.offered)),
      "frac", true);
  if (first.traffic.has_value()) {
    add("bytes_per_node_epoch", first.traffic->bytes_per_node_per_epoch, "B",
        true);
  }
}

/// Per-layer counts; all exact.
void AddCounts(const PassResult& r, Report* out) {
  const double epochs = static_cast<double>(r.epoch_ms.size());
  const double offered = static_cast<double>(r.offered);
  const double submits = static_cast<double>(r.submitted);
  auto add = [&](const char* name, double num, double den, const char* unit) {
    out->layers.push_back(Metric{name, Ratio(num, den), unit, true});
  };
  add("coords.republished_per_epoch", r.epoch_republished, epochs, "count");
  add("coords.refreshes_per_submit", r.submit_refreshes, offered, "count");
  add("engine.repaired", r.repair.queries_repaired, 1.0, "count");
  add("engine.dropped", r.repair.queries_dropped, 1.0, "count");
  add("query.plans_per_submit", r.plans, submits, "count");
  add("placement.placements_per_submit", r.placements, submits, "count");
  add("placement.load_overrides_per_submit", r.load_overrides, submits,
      "count");
  add("dht.lookups_per_submit", r.lookups, submits, "count");
  add("dht.hops_per_submit", r.hops, submits, "count");
  add("dht.probes_per_submit", r.probes, submits, "count");
  add("core.reuse_candidates_per_submit", r.reuse_candidates, submits,
      "count");
  add("alloc.per_epoch", static_cast<double>(r.epoch_allocs), epochs,
      "count");
  add("alloc.per_submit", static_cast<double>(r.submit_allocs), offered,
      "count");
  if (r.traffic.has_value()) {
    const msg::TrafficSummary& t = *r.traffic;
    const double te = static_cast<double>(t.epochs);
    add("msg.vivaldi_msgs_per_epoch", t.protocol_msgs[0], te, "count");
    add("msg.ring_msgs_per_epoch", t.protocol_msgs[1], te, "count");
    add("msg.placement_msgs_per_epoch", t.protocol_msgs[2], te, "count");
    add("msg.retry_byte_frac", t.retry_bytes, t.bytes_total, "frac");
    add("msg.delivery_rate", t.msgs_delivered, t.msgs_sent, "frac");
    add("msg.false_suspicions", t.false_suspicions, 1.0, "count");
  }
}

/// Per-layer self times, rescaled by the traced pass's host `speed`, and
/// trace checks from the traced pass.
void AddSpanMetrics(const Workload& w, const Tracer& tracer, double speed,
                    Report* out) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.dur_ns;
  }
  std::map<std::string, std::vector<double>> self_ns;
  // Per shadowed Submit (keyed by op): the whole-optimizer call, the
  // replayed layer calls, and the Submit itself.
  std::map<uint64_t, double> optimize_ns, replay_ns, submit_ns;
  std::vector<double> coverage;
  double epoch_total = 0.0;
  std::map<std::string, double> stage_total;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = static_cast<double>(s.dur_ns);
    const double children = static_cast<double>(child_ns[i]);
    self_ns[s.name].push_back(dur - children);
    const std::string_view name(s.name);
    if (name == "engine.epoch") {
      epoch_total += dur;
      coverage.push_back(Ratio(children, dur));
    } else if (s.parent >= 0 &&
               std::string_view(spans[s.parent].name) == "engine.epoch") {
      stage_total[s.name] += dur;
    } else if (name == "core.optimize") {
      optimize_ns[s.op] = dur;
    } else if (name == "core.replay") {
      replay_ns[s.op] = children;
    } else if (name == "engine.submit") {
      submit_ns[s.op] = dur;
    }
  }
  std::vector<double> install_ns, replay_share, replay_submit_share;
  for (const auto& [op, optimize] : optimize_ns) {
    replay_share.push_back(Ratio(replay_ns[op], optimize));
    auto submit = submit_ns.find(op);
    if (submit != submit_ns.end()) {
      install_ns.push_back(submit->second - optimize);
      replay_submit_share.push_back(Ratio(replay_ns[op], submit->second));
    }
  }
  self_ns["overlay.install"] = install_ns;

  auto add = [&](const char* metric, const char* span, double q,
                 double scale, const char* unit) {
    auto it = self_ns.find(span);
    if (it == self_ns.end() || it->second.empty()) return;
    out->layers.push_back(Metric{
        metric, Percentile(it->second, q) * scale * speed, unit, false});
  };
  add("net.jitter_ms_p50", "net.jitter", 0.5, 1e-6, "ms");
  add("overlay.load_ms_p50", "overlay.load", 0.5, 1e-6, "ms");
  add("coords.vivaldi_ms_p50", "coords.vivaldi", 0.5, 1e-6, "ms");
  add("coords.refresh_ms_p50", "coords.refresh", 0.5, 1e-6, "ms");
  add("msg.coords_ms_p50", "msg.coords", 0.5, 1e-6, "ms");
  add("msg.refresh_ms_p50", "msg.refresh", 0.5, 1e-6, "ms");
  add("engine.churn_repair_ms_p99", "engine.churn_repair", 0.99, 1e-6, "ms");
  add("engine.detect_repair_ms_p99", "engine.detect_repair", 0.99, 1e-6,
      "ms");
  add("engine.epoch_self_ms_p50", "engine.epoch", 0.5, 1e-6, "ms");
  add("query.enumerate_us_p50", "query.enumerate", 0.5, 1e-3, "us");
  add("placement.virtual_us_p50", "placement.virtual", 0.5, 1e-3, "us");
  add("placement.map_us_p50", "placement.map", 0.5, 1e-3, "us");
  add("core.estimate_us_p50", "core.estimate", 0.5, 1e-3, "us");
  add("core.optimize_us_p50", "core.optimize", 0.5, 1e-3, "us");
  add("overlay.install_us_p50", "overlay.install", 0.5, 1e-3, "us");
  add("overlay.remove_us_p50", "overlay.remove", 0.5, 1e-3, "us");
  for (const auto& [stage, ns] : stage_total) {
    out->layers.push_back(Metric{"trace.epoch_share." + stage,
                                 Ratio(ns, epoch_total), "frac", false});
  }

  // Tracing validity: the spans account for the work they enclose.
  if (!coverage.empty()) {
    const double p50 = Percentile(coverage, 0.5);
    out->layers.push_back(
        Metric{"trace.stage_coverage_p1", Percentile(coverage, 0.01), "frac",
               false});
    out->Check("stage spans cover the epoch span", p50 >= 0.95,
               "median coverage " + std::to_string(p50));
  }
  if (!replay_share.empty()) {
    const double share = Percentile(replay_share, 0.5);
    out->layers.push_back(
        Metric{"trace.replay_share_of_optimize", share, "frac", false});
    out->layers.push_back(Metric{"trace.replay_share_of_submit",
                                 Percentile(replay_submit_share, 0.5), "frac",
                                 false});
    // The multi-query optimizer adds reuse passes the replay does not make.
    if (w.optimizer == "integrated") {
      out->Check("replayed layers cover the optimizer", share >= 0.9,
                 "median share " + std::to_string(share));
    }
  }

  for (const auto& [name, v] : self_ns) {
    if (v.empty()) continue;
    double total = 0.0;
    for (double x : v) total += x;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %zu, \"self_us_p50\": %.3f, "
                  "\"self_us_p99\": %.3f, \"self_ms_total\": %.3f}",
                  out->span_table.empty() ? "" : ", ", name.c_str(), v.size(),
                  Percentile(v, 0.5) * 1e-3, Percentile(v, 0.99) * 1e-3,
                  total * 1e-6);
    out->span_table += buf;
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void Report::Print() const {
  for (const std::vector<Metric>* section : {&metrics, &layers}) {
    for (const Metric& m : *section) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const CheckResult& c : checks) {
    if (!c.ok) {
      std::printf("FAILED check: %s (%s)\n", c.name.c_str(), c.detail.c_str());
    }
  }
  std::printf("fingerprint %s\n", Hex(fingerprint).c_str());
}

bool Report::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"smoke\": %s,\n  \"traced\": %s,\n  \"passes\": %zu,\n"
               "  \"samples\": {\"epoch\": %zu, \"submit\": %zu, "
               "\"remove\": %zu},\n  \"setup_s_samples\": [",
               workload.c_str(), static_cast<unsigned long long>(seed),
               smoke ? "true" : "false", traced ? "true" : "false", passes,
               epochs, submits, removes);
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(f, "%s%.9g", i == 0 ? "" : ", ", setup_s[i]);
  }
  std::fprintf(f,
               "],\n  \"correct\": %s,\n  \"attempted\": %zu,\n"
               "  \"failed\": %zu,\n  \"fingerprint\": \"%s\",\n",
               correct() ? "true" : "false", attempted, failed,
               Hex(fingerprint).c_str());
  for (const auto& [key, section] :
       {std::pair{"metrics", &metrics}, std::pair{"layers", &layers}}) {
    std::fprintf(f, "  \"%s\": {", key);
    for (size_t i = 0; i < section->size(); ++i) {
      const Metric& m = (*section)[i];
      std::fprintf(f,
                   "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                   "\"exact\": %s}",
                   i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                   m.exact ? "true" : "false");
    }
    std::fprintf(f, "\n  },\n");
  }
  std::fprintf(f, "  \"spans\": {%s},\n  \"checks\": [", span_table.c_str());
  for (size_t i = 0; i < checks.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                 i == 0 ? "" : ",", JsonString(checks[i].name).c_str(),
                 checks[i].ok ? "true" : "false",
                 JsonString(checks[i].detail).c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

// -------------------------------------------------------------------- main

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  std::string json;
  std::string trace;
  bool smoke = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (arg.substr(0, key.size()) != key) return std::nullopt;
      return std::string(arg.substr(key.size()));
    };
    if (auto v = value("--workload=")) {
      flags->workload = *v;
    } else if (auto v = value("--seed=")) {
      char* end = nullptr;
      flags->seed = std::strtoull(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0') return false;
    } else if (auto v = value("--seconds=")) {
      char* end = nullptr;
      flags->seconds = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || !(flags->seconds >= 0.0)) {
        return false;
      }
    } else if (auto v = value("--json=")) {
      flags->json = *v;
    } else if (auto v = value("--trace=")) {
      flags->trace = *v;
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else {
      return false;
    }
  }
  return !flags->workload.empty() && !flags->json.empty();
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: sbon_bench --workload=maintain|place|soak|chaos "
                 "--seed=S --json=PATH [--seconds=T] [--trace=PATH] "
                 "[--smoke]\n");
    return 2;
  }
  const std::optional<Workload> workload =
      MakeWorkload(flags.workload, flags.smoke);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  auto inputs = MakeInputs(*workload, flags.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  Calibration calibration;
  Runner runner(*workload, std::move(inputs.value()), &calibration);
  auto bring_up = [&]() -> double {
    auto s = runner.BringUp();
    if (!s.ok()) {
      std::fprintf(stderr, "bring-up failed: %s\n",
                   s.status().ToString().c_str());
      std::exit(1);
    }
    return *s;
  };

  Report report;
  report.workload = workload->name;
  report.seed = flags.seed;
  report.smoke = flags.smoke;
  report.traced = !flags.trace.empty();
  // Untimed bring-ups first: in a fresh process the first second of
  // bring-ups ran up to 1.7x slower than later ones (cold heap and caches),
  // which made setup_s bimodal between runs.
  const double warmup_s = flags.smoke ? 0.0 : kWarmupSeconds;
  for (const Clock::time_point start = Clock::now();
       Seconds(start, Clock::now()) < warmup_s;) {
    bring_up();
  }
  std::vector<size_t> setup_at;
  for (int i = 0; i <= 7; ++i) {
    for (size_t b = 0; b < kWindow; ++b) {
      report.setup_burst_s.push_back(calibration.Burst());
    }
    if (i == 7) break;
    setup_at.push_back(report.setup_burst_s.size());
    report.setup_s.push_back(bring_up());
  }
  Rescale(report.setup_burst_s, setup_at, &report.setup_s);

  // Untraced passes until --seconds have passed: at least one, and exactly
  // one when a traced pass follows.
  std::vector<PassResult> passes;
  const Clock::time_point measure_start = Clock::now();
  for (;;) {
    passes.push_back(runner.Pass(nullptr));
    if (report.traced ||
        Seconds(measure_start, Clock::now()) >= flags.seconds) {
      break;
    }
    bring_up();
  }
  std::optional<Tracer> tracer;
  if (report.traced) {
    bring_up();
    tracer.emplace(Clock::now());
    passes.push_back(runner.Pass(&*tracer));
  }
  const std::vector<PassResult> untraced(
      passes.begin(), passes.end() - (report.traced ? 1 : 0));
  const PassResult& first = passes.front();

  std::vector<std::string> errors;
  bool repeats = true;
  for (const PassResult& p : passes) {
    report.epochs += p.epoch_ms.size();
    report.submits += p.submit_us.size();
    report.removes += p.remove_us.size();
    report.attempted += p.attempted;
    report.failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    repeats = repeats && p.fingerprint == first.fingerprint;
  }
  report.passes = passes.size();
  report.fingerprint = first.fingerprint;
  report.Check("every pass, traced or not, ends in the same state", repeats,
               std::to_string(passes.size()) + " passes disagree");
  report.Check("every call succeeds and every invariant holds",
               errors.empty(), errors.empty() ? "" : errors.front());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "check: %s\n", e.c_str());
  }

  AddEndToEnd(untraced, &report);
  AddCounts(first, &report);
  if (tracer.has_value()) {
    const PassResult& traced = passes.back();
    AddSpanMetrics(*workload, *tracer, Speed(traced.burst_s), &report);
    const double epoch_overhead = Ratio(Percentile(traced.epoch_ms, 0.5),
                                        Percentile(first.epoch_ms, 0.5));
    const double submit_overhead = Ratio(Percentile(traced.submit_us, 0.5),
                                         Percentile(first.submit_us, 0.5));
    report.layers.push_back(Metric{"trace_overhead",
                                   std::max(epoch_overhead, submit_overhead),
                                   "ratio", false});
    report.Check("trace written", tracer->Write(flags.trace),
                 "cannot write " + flags.trace);
  }

  report.Print();
  if (!report.WriteJson(flags.json)) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace sbon::suite

int main(int argc, char** argv) { return sbon::suite::Main(argc, argv); }
