// End-to-end throughput benchmark of the epoch/submit hot path: one engine,
// N nodes, Q continuous queries, E epochs of AdvanceEpoch (latency jitter,
// ambient load, online Vivaldi, dirty-driven index refresh) interleaved with
// steady-state Submit/Remove churn and local re-optimization — the loop the
// paper claims stays cheap enough to run continuously.
//
// Each section is written once, through a JsonWriter: stdout shows it as it
// completes and --json=PATH writes the whole document. The README
// "Performance" section documents the flags and the schema; BENCH_epoch.json
// at the repo root is the recorded baseline from a full run at N=512 / Q=64.
// It exits 2 before any section runs when --baseline is passed to a
// sparse-scaling run, which has no engine-loop sections to gate.
// The run exits non-zero when a gate fails:
//  - a call in the hot-call allocation audit (AuditHotCalls) allocates in
//    steady state, counted by this file's global operator new;
//  - the --baseline=PATH file comes from a run of another shape, a
//    deterministic work counter (kGatedSections: index refresh, churn
//    repair and message-mode traffic) differs from its figure at all,
//    churn-free ns_per_epoch exceeds its figure by more than
//    --baseline-tolerance (default 0.5), or allocs_per_submit or
//    allocs_per_epoch is above its figure (deterministic counts, so a
//    ceiling: any rise fails, a drop passes);
//  - a message-mode section diverges between two same-configuration runs;
//  - the sparse section makes an O(N^2)-sized allocation.
// Standalone kernel timings live in micro_substrates; the kernels'
// bit-identity against the pre-SoA per-Vec references is pinned by
// tests/simd_equivalence_test.cc (ctest label `equivalence`), not here.
//
// The sections: the engine loop at N (churn-free, re-run at epsilon=0, and
// in 15 churn-free/churn pass pairs) with the allocation audit;
// `decentralized` and `chaos`, a message-mode workload at a pinned size
// (RunMessageSection) run twice each for the replay gate; and `sparse`, the
// generative sparse backend at N/5 and N (RunSparsePoint), whose largest
// single allocation must stay far below an N x N matrix. At sizes where the
// auto fabric would not be dense (net::NetworkFabric::Resolve) the engine
// loop is skipped, which lets `--fabric=sparse --nodes=100000 --smoke`
// finish in minutes.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/summary.h"
#include "coords/vivaldi.h"
#include "core/optimizer.h"
#include "engine/stream_engine.h"
#include "msg/agents.h"
#include "msg/message.h"
#include "net/churn.h"
#include "net/shortest_path.h"
#include "net/fabric.h"
#include "overlay/circuit.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"
#include "query/workload.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new bumps it, so a delta across
// a code region counts that region's heap allocations exactly. The max-size
// watermark catches any O(n^2) buffer the sparse sections must never make.
namespace {
uint64_t g_alloc_count = 0;
size_t g_max_alloc_size = 0;
}  // namespace

// gcc pairs the malloc/free inside these replacements with the inlined
// callers' new/delete and reports a spurious mismatch once container
// construction inlines far enough; the replacement set is complete and
// consistent, so the warning is suppressed for these definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (size > g_max_alloc_size) g_max_alloc_size = size;
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

namespace sbon {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

struct EpochLoopResult {
  double ns_per_epoch = 0.0;
  double ns_per_submit = 0.0;  // initial submission, per query
  double allocs_per_submit = 0.0;  // initial submission, per query
  double allocs_per_epoch = 0.0;
  double live_reads_per_epoch = 0.0;  // fabric live reads inside AdvanceEpoch
  coords::IndexRefreshStats refresh;   // cumulative over the loop
  engine::RepairStats repair;          // cumulative (churn_rate > 0 only)
};

// Builds an engine, submits Q queries, then runs E churn epochs. One
// function so the epsilon/churn sweeps measure identical work per
// configuration. `churn_rate > 0` attaches a seeded ChurnModel: every
// epoch additionally pays for node crashes/rejoins and the engine's
// handle-stable repair of orphaned queries.
EpochLoopResult RunEpochLoop(size_t nodes, size_t queries, size_t epochs,
                             double epsilon, uint64_t seed,
                             double churn_rate = 0.0,
                             engine::ExecMode exec = engine::ExecMode::kOracle) {
  engine::EngineOptions opts;
  opts.sbon.latency_jitter_sigma = 0.1;
  auto eng = bench::MakeTransitStubEngine(nodes, seed, std::move(opts));
  overlay::Sbon& sbon = eng->sbon();

  query::WorkloadParams wp;
  wp.num_streams = 48;
  eng->SetCatalog(
      query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng()).value());
  std::vector<query::QuerySpec> specs;
  specs.reserve(queries);
  for (size_t q = 0; q < queries; ++q) {
    specs.push_back(query::MakeRandomQuery(wp, eng->catalog(),
                                           sbon.overlay_nodes(), &sbon.rng())
                        .value());
  }

  EpochLoopResult out;
  std::vector<engine::QueryHandle> handles;
  handles.reserve(specs.size());
  const uint64_t submit_allocs_before = g_alloc_count;
  const Clock::time_point submit_start = Clock::now();
  for (const query::QuerySpec& spec : specs) {
    auto h = eng->Submit(spec);
    if (h.ok()) handles.push_back(*h);
  }
  const double submitted =
      static_cast<double>(std::max<size_t>(1, handles.size()));
  out.ns_per_submit = NsSince(submit_start) / submitted;
  out.allocs_per_submit =
      static_cast<double>(g_alloc_count - submit_allocs_before) / submitted;
  if (handles.empty()) return out;

  engine::EpochOptions epoch;
  epoch.dt = 1.0;
  epoch.tick_network = true;
  epoch.vivaldi_samples = 1;
  epoch.refresh_index = true;
  epoch.refresh_epsilon = epsilon;
  epoch.exec_mode = exec;
  // Stack-constructed (a heap ChurnModel here trips gcc's
  // -Wmismatched-new-delete against this file's counting operator new);
  // only attached when the churn section is measured.
  net::ChurnModel::Params cp;
  cp.crash_rate = churn_rate;
  cp.mean_downtime_epochs = 4.0;
  cp.seed = seed * 9176 + 1;
  net::ChurnModel churn_model(sbon.overlay_nodes(), cp);
  if (churn_rate > 0.0) epoch.churn = &churn_model;
  engine::ReoptPolicy local_reopt;  // defaults: kLocal

  const coords::IndexRefreshStats before = sbon.coords().refresh_stats();
  const uint64_t allocs_before = g_alloc_count;
  size_t epoch_live_reads = 0;
  const Clock::time_point loop_start = Clock::now();
  for (size_t e = 0; e < epochs; ++e) {
    const size_t reads_before = sbon.fabric().read_stats().live_reads;
    eng->AdvanceEpoch(epoch);
    epoch_live_reads += sbon.fabric().read_stats().live_reads - reads_before;
    // Steady-state churn: re-optimize one running query locally and replace
    // another (Remove + Submit), rotating through the set.
    (void)eng->Reoptimize(handles[e % handles.size()], local_reopt);
    const size_t victim = (e * 7 + 3) % handles.size();
    // NotFound = the query was dropped by churn repair; either way the
    // slot is free and the steady-state replacement resubmits it (which
    // can itself fail while the spec's producer is down — retried the
    // next time the slot comes around).
    const Status removed = eng->Remove(handles[victim]);
    if (removed.ok() || removed.code() == StatusCode::kNotFound) {
      auto h = eng->Submit(specs[victim % specs.size()]);
      if (h.ok()) handles[victim] = *h;
    }
  }
  out.ns_per_epoch = NsSince(loop_start) / static_cast<double>(epochs);
  out.allocs_per_epoch =
      static_cast<double>(g_alloc_count - allocs_before) /
      static_cast<double>(epochs);
  out.live_reads_per_epoch =
      static_cast<double>(epoch_live_reads) / static_cast<double>(epochs);
  const coords::IndexRefreshStats after = sbon.coords().refresh_stats();
  out.refresh.refreshes = after.refreshes - before.refreshes;
  out.refresh.republished = after.republished - before.republished;
  out.refresh.skipped = after.skipped - before.skipped;
  out.refresh.quiet_refreshes =
      after.quiet_refreshes - before.quiet_refreshes;
  out.refresh.ring_batches = after.ring_batches - before.ring_batches;
  out.repair = eng->repair_stats();
  return out;
}

// The counters of one message-mode run, in the order both message sections
// report them; the replay fingerprint hashes this rendering too.
void WriteTraffic(JsonWriter& w, const msg::TrafficSummary& t) {
  w.Key("bytes_per_node_per_epoch").Double(t.bytes_per_node_per_epoch, 1);
  w.Key("msgs_sent").Int(t.msgs_sent);
  w.Key("msgs_delivered").Int(t.msgs_delivered);
  w.Key("msgs_dropped_dead").Int(t.msgs_dropped_dead);
  w.Key("msgs_dropped_partition").Int(t.msgs_dropped_partition);
  w.Key("msgs_dropped_fault").Int(t.msgs_dropped_fault);
  w.Key("msgs_duplicated").Int(t.msgs_duplicated);
  const size_t attempted = t.msgs_delivered + t.msgs_dropped_fault;
  w.Key("delivery_rate")
      .Double(attempted > 0 ? static_cast<double>(t.msgs_delivered) /
                                  static_cast<double>(attempted)
                            : 1.0,
              4);
  for (size_t p = 0; p < msg::kNumProtocols; ++p) {
    const std::string name = msg::ProtocolName(static_cast<msg::Protocol>(p));
    w.Key(name + "_msgs").Int(t.protocol_msgs[p]);
    w.Key(name + "_bytes").Int(t.protocol_bytes[p]);
  }
  w.Key("retries").Int(t.retries);
  w.Key("retry_bytes").Int(t.retry_bytes);
  w.Key("retry_byte_overhead")
      .Double(t.bytes_total > t.retry_bytes
                  ? static_cast<double>(t.retry_bytes) /
                        static_cast<double>(t.bytes_total - t.retry_bytes)
                  : 0.0,
              4);
  w.Key("acks").Int(t.acks);
  w.Key("dup_suppressed").Int(t.dup_suppressed);
  w.Key("retry_exhausted").Int(t.retry_exhausted);
  w.Key("retransmit_overflow").Int(t.retransmit_overflow);
  w.Key("retry_pending").Int(t.retry_pending);
  w.Key("suspicions").Int(t.suspicions);
  w.Key("false_suspicions").Int(t.false_suspicions);
  w.Key("suspicions_refuted").Int(t.suspicions_refuted);
  w.Key("confirmations_vetoed").Int(t.confirmations_vetoed);
  w.Key("crash_confirmations").Int(t.crash_confirmations);
  w.Key("detection_p50").Double(t.detection_p50, 1);
  w.Key("detection_p95").Double(t.detection_p95, 1);
  w.Key("detection_samples").Int(t.detection_samples);
  w.Key("convergence_epochs_after_churn").Int(t.convergence_epochs);
  w.Key("converged").Bool(t.converged);
  w.Key("staleness_p50").Double(t.staleness_p50, 1);
  w.Key("staleness_p95").Double(t.staleness_p95, 1);
  w.Key("staleness_samples").Int(t.staleness_samples);
}

// The decentralized-execution workload: pinned size (this section tracks
// per-protocol traffic constants and convergence behavior, not scale), a
// scripted crash burst at epoch 2 and a 5-epoch partition window through
// the middle of the run (healed inside the active window at either size),
// steady-state query replacement so placements keep sampling publish
// staleness — including under the partition — and a sampling-free drain
// at the end. The drain is what makes convergence
// observable: ring publishes are displacement-gated, so they never go
// quiet while Vivaldi keeps sampling; once sampling stops, the epochs
// until the publish stream dries up after the last churn event are the
// reported convergence figure.
//
// The chaos section reruns the same workload with `mp` carrying a fault
// plan plus reliability/detector hardening, and a longer drain so capped
// retry backoff chains finish inside the convergence window. Faulty runs
// replay bit-identically too: every fault draw comes from a dedicated
// seeded stream.
//
// Writes the run's shape, timing (active epochs only) and traffic into
// `report` when one is given, and returns the replay fingerprint: the
// overlay state hashed together with the rendered traffic counters.
uint64_t RunMessageSection(uint64_t seed, const msg::RuntimeParams& mp,
                           size_t drain_epochs, JsonWriter* report) {
  const size_t nodes = 256;
  const size_t queries = 16;
  const size_t active_epochs = sbon::bench::SmokeMode() ? 8 : 20;

  engine::EngineOptions opts;
  opts.sbon.latency_jitter_sigma = 0.1;
  auto eng = bench::MakeTransitStubEngine(nodes, seed, std::move(opts));
  overlay::Sbon& sbon = eng->sbon();

  engine::EpochOptions epoch;
  epoch.dt = 1.0;
  epoch.tick_network = true;
  epoch.vivaldi_samples = 1;
  epoch.refresh_index = true;
  epoch.refresh_epsilon = 1.0;
  epoch.exec_mode = engine::ExecMode::kMessage;
  epoch.msg = mp;
  // Creates the msg runtime before any placement; params are validated here.
  const Status warm = eng->AdvanceEpoch(epoch);
  if (!warm.ok()) {
    std::fprintf(stderr, "message warm-up epoch failed: %s\n",
                 warm.ToString().c_str());
    std::abort();
  }

  query::WorkloadParams wp;
  wp.num_streams = 48;
  eng->SetCatalog(
      query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &sbon.rng()).value());
  std::vector<query::QuerySpec> specs;
  std::vector<engine::QueryHandle> handles;
  for (size_t q = 0; q < queries; ++q) {
    specs.push_back(query::MakeRandomQuery(wp, eng->catalog(),
                                           sbon.overlay_nodes(), &sbon.rng())
                        .value());
    auto h = eng->Submit(specs.back());
    if (h.ok()) handles.push_back(*h);
  }

  net::ChurnModel::Params cp;
  cp.seed = seed * 7919 + 3;
  net::ChurnModel churn(sbon.overlay_nodes(), cp);
  const std::vector<NodeId>& eligible = churn.eligible();
  for (size_t i = 0; i < 3; ++i) {
    net::ChurnEvent crash;
    crash.type = net::ChurnEventType::kCrash;
    crash.node = eligible[(i * 5 + 3) % eligible.size()];
    churn.ScheduleAt(2, crash);
  }
  net::ChurnEvent cut;
  cut.type = net::ChurnEventType::kPartitionStart;
  cut.group.assign(eligible.begin(), eligible.begin() + eligible.size() / 4);
  cut.severity = 8.0;
  // Five epochs outlast the detector's 2 silent epochs to suspect plus 2
  // more to confirm, so a heartbeat-starved live node reaches the engine's
  // confirmation veto.
  churn.ScheduleAt(active_epochs / 2 - 2, cut);
  net::ChurnEvent heal;
  heal.type = net::ChurnEventType::kPartitionHeal;
  churn.ScheduleAt(active_epochs / 2 + 3, heal);
  epoch.churn = &churn;

  const Clock::time_point start = Clock::now();
  for (size_t e = 0; e < active_epochs; ++e) {
    eng->AdvanceEpoch(epoch);
    // Steady-state replacement keeps placement probes flowing (each Submit
    // pays DHT traffic and samples the staleness of the publishes it read).
    const size_t victim = (e * 7 + 3) % handles.size();
    const Status removed = eng->Remove(handles[victim]);
    if (removed.ok() || removed.code() == StatusCode::kNotFound) {
      auto h = eng->Submit(specs[victim % specs.size()]);
      if (h.ok()) handles[victim] = *h;
    }
  }
  const double ns_per_epoch =
      NsSince(start) / static_cast<double>(active_epochs);

  // Quiescent drain: no churn, no Vivaldi sampling, no load drift or
  // jitter ticks. Publishes are displacement-gated, so once nothing moves
  // the publish stream dries up and the runtime stamps convergence.
  epoch.churn = nullptr;
  epoch.vivaldi_samples = 0;
  epoch.dt = 0.0;
  epoch.tick_network = false;
  for (size_t e = 0; e < drain_epochs; ++e) eng->AdvanceEpoch(epoch);

  const msg::TrafficSummary summary =
      eng->Snapshot().decentralized.value_or(msg::TrafficSummary());
  if (report != nullptr) {
    report->Key("nodes").Int(nodes);
    report->Key("queries").Int(handles.size());
    report->Key("epochs").Int(active_epochs);
    report->Key("ns_per_epoch").Double(ns_per_epoch, 1);
    WriteTraffic(*report, summary);
  }
  JsonWriter traffic;
  traffic.BeginObject();
  WriteTraffic(traffic, summary);
  traffic.EndObject();
  uint64_t fingerprint = bench::StateFingerprint(sbon);
  for (const char c : traffic.str()) {
    fingerprint =
        (fingerprint ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return fingerprint;
}

// One measured size of the sparse-backend scaling section: a query-free
// overlay (the substrates are what scale; the engine loop is the dense-
// scale benchmark above) driven through tick-only and full maintenance
// epochs by direct substrate calls.
struct SparseScalePoint {
  size_t nodes = 0;       // actual node count of the built topology
  double maint_ns = 0.0;  // tick + load + 1 Vivaldi sample + refresh
  size_t max_alloc = 0;   // largest single heap allocation in the run
  bool sketch = false;    // the fabric runs the sketch-mode base
  JsonWriter json;        // the point's object in the `sparse` section
};

SparseScalePoint RunSparsePoint(size_t target_nodes, uint64_t seed,
                                size_t epochs) {
  // The topology build is shared scaffolding, not backend cost; allocate it
  // before the watermark reset so only overlay behavior is audited.
  net::Topology topo = bench::MakeTransitStubTopology(target_nodes, seed);
  g_max_alloc_size = 0;

  overlay::Sbon::Options opts;
  opts.seed = seed;
  opts.latency_jitter_sigma = 0.1;
  // Forced sparse regardless of --fabric: this section measures the sparse
  // backend by definition (the flag selects the engine sections' substrate).
  opts.fabric_mode = net::NetworkFabric::BaseMode::kSparse;
  SparseScalePoint out;
  out.nodes = topo.NumNodes();

  // Sbon::Create builds the fabric, Vivaldi and the index.
  const Clock::time_point create_start = Clock::now();
  auto s = overlay::Sbon::Create(std::move(topo), opts);
  if (!s.ok()) {
    std::fprintf(stderr, "sparse sbon creation failed: %s\n",
                 s.status().ToString().c_str());
    std::abort();
  }
  const double bringup_ms = NsSince(create_start) * 1e-6;
  overlay::Sbon& sbon = **s;

  // A tick-only epoch is an O(1) seed swap.
  const Clock::time_point tick_start = Clock::now();
  for (size_t e = 0; e < epochs; ++e) sbon.TickNetwork();
  const double tick_ns = NsSince(tick_start) / static_cast<double>(epochs);

  const Clock::time_point maint_start = Clock::now();
  for (size_t e = 0; e < epochs; ++e) {
    sbon.TickNetwork();
    sbon.Tick(1.0);
    sbon.UpdateCoordinatesOnline(1);
    sbon.RefreshIndex(1.0);
  }
  out.maint_ns = NsSince(maint_start) / static_cast<double>(epochs);
  out.max_alloc = g_max_alloc_size;

  const net::NetworkFabric& fabric = sbon.fabric();
  const net::NetworkFabric::ReadStats& stats = fabric.read_stats();
  out.sketch = fabric.base_mode() != net::NetworkFabric::BaseMode::kExact;
  JsonWriter& w = out.json;
  w.BeginObject();
  w.Key("nodes").Int(out.nodes);
  w.Key("bringup_ms").Double(bringup_ms, 1);
  w.Key("tick_ns").Double(tick_ns, 1);
  w.Key("maint_ns").Double(out.maint_ns, 1);
  w.Key("max_single_alloc_bytes").Int(out.max_alloc);
  w.Key("base_mode").String(out.sketch ? "sketch" : "exact");
  w.Key("landmarks").Int(fabric.num_landmarks());
  // On-demand Dijkstra rows computed.
  w.Key("row_builds").Int(stats.row_builds);
  w.Key("neighbor_hit_rate")
      .Double(stats.base_reads > 0 ? static_cast<double>(stats.neighbor_hits) /
                                         static_cast<double>(stats.base_reads)
                                   : 0.0,
              3);
  w.EndObject();
  return out;
}

// ---------------------------------------------------------------------------
// Hot-call allocation audit: each call must be heap-free in steady state.

// Heap allocations per `fn(i)` over `rounds` calls, after `warmup` calls
// that size the callee's reusable scratch. Both loops count i from 0.
template <typename Fn>
double AllocsPerCall(size_t warmup, size_t rounds, Fn&& fn) {
  for (size_t i = 0; i < warmup; ++i) fn(i);
  const uint64_t before = g_alloc_count;
  for (size_t i = 0; i < rounds; ++i) fn(i);
  return static_cast<double>(g_alloc_count - before) /
         static_cast<double>(rounds);
}

// A virtually placed 5-stream circuit over `sbon`'s overlay.
overlay::Circuit FiveStreamCircuit(const overlay::Sbon& sbon) {
  Rng rng(11);
  query::WorkloadParams wp;
  wp.num_streams = 16;
  wp.min_streams_per_query = 5;
  wp.max_streams_per_query = 5;
  const query::Catalog catalog =
      query::MakeRandomCatalog(wp, sbon.overlay_nodes(), &rng).value();
  const query::QuerySpec spec =
      query::MakeRandomQuery(wp, catalog, sbon.overlay_nodes(), &rng).value();
  auto plans = query::EnumeratePlans(spec, catalog, {}).value();
  overlay::Circuit circuit =
      overlay::Circuit::FromPlan(std::move(plans[0]), catalog).value();
  (void)placement::RelaxationPlacer().Place(&circuit, sbon.cost_space());
  return circuit;
}

// Writes the heap allocations per call of each audited hot call under its
// key, and a FAIL: line for each one that allocates in steady state; false
// if any does. `sbon` is a small dedicated overlay.
bool AuditHotCalls(JsonWriter& w, overlay::Sbon& sbon) {
  bool ok = true;
  const auto audit = [&](const char* key, const char* call, double allocs) {
    w.Key(key).Double(allocs);
    if (allocs == 0.0) return;
    std::fprintf(stderr, "FAIL: %s allocates (%g allocs/call)\n", call, allocs);
    ok = false;
  };
  const coords::CostSpace& space = sbon.cost_space();
  const dht::CoordinateIndex& index = sbon.index();
  const std::vector<NodeId>& overlay = sbon.overlay_nodes();

  // On a fixed peer schedule.
  Rng rng(7);
  coords::VivaldiSystem::Params params;
  params.dims = 2;
  coords::VivaldiSystem sys(64, params, &rng);
  audit("allocs_per_vivaldi_update", "VivaldiSystem::Update",
        AllocsPerCall(256, 20000, [&](size_t i) {
          const NodeId self = static_cast<NodeId>(i % 64);
          const NodeId peer = static_cast<NodeId>((i * 13 + 1) % 64);
          if (self != peer) {
            sys.Update(self, peer, 10.0 + static_cast<double>(i % 17));
          }
        }));

  // The index's three queries write node ids into a reused output buffer;
  // the exact one is the batched sweep over every published node.
  std::vector<NodeId> nodes;
  dht::IndexQueryCost cost;
  audit("allocs_per_knearest", "CoordinateIndex::KNearestNodesInto",
        AllocsPerCall(64, 2000, [&](size_t i) {
          const Vec target = space.FullCoord(overlay[i % overlay.size()]);
          (void)index.KNearestNodesInto(target, 8, 16, &cost, &nodes);
        }));
  audit("allocs_per_knearest_exact", "CoordinateIndex::KNearestExactInto",
        AllocsPerCall(1, 200, [&](size_t i) {
          const Vec target = space.FullCoord(overlay[i % overlay.size()]);
          index.KNearestExactInto(target, 8, &nodes);
        }));
  // At the multi-query optimizer's default reuse radius. The warm-up visits
  // every target once, so the buffer holds the largest sphere before the
  // counted rounds.
  const double radius = core::OptimizerConfig{}.reuse_radius;
  audit("allocs_per_within_radius", "CoordinateIndex::WithinRadiusInto",
        AllocsPerCall(overlay.size(), 2000, [&](size_t i) {
          const Vec target = space.FullCoord(overlay[i % overlay.size()]);
          (void)index.WithinRadiusInto(target, radius, &cost, &nodes);
        }));

  // On a warm circuit: the warm-up call sizes its virtual coordinates.
  overlay::Circuit placed = FiveStreamCircuit(sbon);
  const placement::RelaxationPlacer placer;
  audit("allocs_per_place", "RelaxationPlacer::Place",
        AllocsPerCall(1, 2000,
                      [&](size_t) { (void)placer.Place(&placed, space); }));

  // Over a warm circuit's placeable vertices in turn: the warm-up round
  // sizes the candidate buffer and the index scratch.
  overlay::Circuit mapped = FiveStreamCircuit(sbon);
  const std::vector<int> placeable = mapped.PlaceableVertices();
  const placement::MappingOptions options;
  placement::MappingReport report;
  std::vector<NodeId> candidates;
  audit("allocs_per_map_vertex", "placement::MapVertex",
        AllocsPerCall(placeable.size(), 2000, [&](size_t i) {
          (void)placement::MapVertex(&mapped, placeable[i % placeable.size()],
                                     sbon, options, &report, &candidates);
        }));

  // Per steady-state bench::BusDrainRig round (a `chaos`-shaped epoch at
  // 100 nodes) and per message sent in it (replies and network duplicates
  // included); the warm-up rounds grow the bus queue to its high-water mark.
  bench::BusDrainRig rig(/*target_nodes=*/100, /*seed=*/13);
  constexpr size_t kRounds = 200;
  const auto round = [&](size_t) { rig.Round(); };
  for (size_t i = 0; i < 16; ++i) round(i);
  const size_t sent_before = rig.bus().stats().TotalSent();
  const double per_round = AllocsPerCall(0, kRounds, round);
  audit("allocs_per_bus_round", "MessageBus::Send+EndEpoch per round",
        per_round);
  audit("allocs_per_bus_message", "MessageBus::Send+EndEpoch per msg",
        per_round * static_cast<double>(kRounds) /
            static_cast<double>(rig.bus().stats().TotalSent() - sent_before));

  // A full-batch refresh: every overlay node's load flips between two
  // values, so every node republishes. Runs last, as it moves the overlay.
  coords::CoordinateManager& coords = sbon.mutable_coords();
  const size_t republished_before = coords.refresh_stats().republished;
  constexpr size_t kRefreshes = 50;
  audit("allocs_per_refresh", "CoordinateManager::RefreshIndex",
        AllocsPerCall(2, kRefreshes, [&](size_t i) {
          for (NodeId n : overlay) {
            coords.SetScalarMetric(n, (i & 1) != 0 ? 0.2 : 0.6);
          }
          coords.RefreshIndex(overlay, 0.0);
        }));
  if (coords.refresh_stats().republished - republished_before !=
      (kRefreshes + 2) * overlay.size()) {
    std::fprintf(stderr, "FAIL: the refresh audit's batches were not full\n");
    ok = false;
  }
  return ok;
}

// The text of the first `"key": value` in a perf_epoch JSON document, or
// empty. The run-shape keys open the document, and in a "standard" one the
// churn-free ns_per_epoch precedes every nested section, so the first hit
// is the top-level one.
std::string_view JsonValueText(std::string_view json, std::string_view key) {
  std::string pattern(1, '"');
  pattern.append(key).append("\": ");
  const size_t at = json.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::string_view value = json.substr(at + pattern.size());
  return value.substr(0, value.find_first_of(",\n}"));
}

// The number under `key` in a perf_epoch JSON document, or 0 if absent.
double JsonNumber(std::string_view json, std::string_view key) {
  return std::strtod(std::string(JsonValueText(json, key)).c_str(), nullptr);
}

// The object under `"name": {` in a perf_epoch JSON document, from its
// opening brace to the matching closing one, or empty.
std::string_view JsonSection(std::string_view json, std::string_view name) {
  std::string pattern(1, '"');
  pattern.append(name).append("\": {");
  const size_t at = json.find(pattern);
  if (at == std::string_view::npos) return {};
  const size_t open = at + pattern.size() - 1;
  size_t depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) return json.substr(open, i + 1 - open);
  }
  return {};
}

// The deterministic work counters the baseline gate compares exactly, by
// section ("" = the top level, whose keys precede every nested section).
// A fixed seed does the same work on every run, so a counter that moved
// means the program does different work, not the same work at another
// speed.
constexpr const char* kEngineCounters[] = {
    "live_reads_per_epoch", "republished", "republish_skipped",
    "quiet_refreshes", "refreshes", "ring_batches"};
constexpr const char* kChurnCounters[] = {
    "crashes", "rejoins", "services_evicted", "circuits_orphaned",
    "queries_repaired", "queries_dropped"};
constexpr const char* kMessageCounters[] = {
    "msgs_sent", "msgs_delivered", "msgs_dropped_dead",
    "msgs_dropped_partition", "msgs_dropped_fault", "msgs_duplicated",
    "vivaldi_msgs", "vivaldi_bytes", "ring_msgs", "ring_bytes",
    "placement_msgs", "placement_bytes", "retries", "retry_bytes", "acks",
    "dup_suppressed", "retry_exhausted", "retransmit_overflow",
    "retry_pending", "suspicions", "false_suspicions", "suspicions_refuted",
    "confirmations_vetoed", "crash_confirmations"};

struct GatedSection {
  const char* name;
  std::span<const char* const> keys;
};
constexpr GatedSection kGatedSections[] = {
    {"", kEngineCounters},
    {"churn", kChurnCounters},
    {"decentralized", kMessageCounters},
    {"chaos", kMessageCounters},
};

// The baseline regression gate. The baseline must come from a run of the
// same shape as `run` (so a sparse-scaling or smoke file cannot stand in
// for the full standard run), every work counter in kGatedSections must
// equal its figure, `ns_per_epoch` may exceed its churn-free figure by at
// most `tolerance`, and the allocation counts may not exceed theirs.
// Prints a FAIL: line per failed check and returns false if any failed.
bool BaselineGate(const std::string& path, double tolerance,
                  const JsonWriter& run, double ns_per_epoch) {
  std::ifstream in(path);
  const std::string baseline{std::istreambuf_iterator<char>(in), {}};
  if (baseline.empty()) {
    std::fprintf(stderr, "FAIL: cannot read baseline %s\n", path.c_str());
    return false;
  }
  for (const char* key :
       {"mode", "smoke", "exec", "nodes", "queries", "epochs"}) {
    const std::string_view want = JsonValueText(run.str(), key);
    const std::string_view got = JsonValueText(baseline, key);
    if (got != want) {
      std::fprintf(stderr,
                   "FAIL: baseline %s is from a different run: %s is %.*s "
                   "there, %.*s here\n",
                   path.c_str(), key, static_cast<int>(got.size()),
                   got.data(), static_cast<int>(want.size()), want.data());
      return false;
    }
  }
  bool ok = true;
  size_t compared = 0;
  for (const GatedSection& section : kGatedSections) {
    const bool top = *section.name == '\0';
    const std::string_view here =
        top ? run.str() : JsonSection(run.str(), section.name);
    const std::string_view there =
        top ? std::string_view(baseline) : JsonSection(baseline, section.name);
    for (const char* key : section.keys) {
      const std::string_view want = JsonValueText(there, key);
      const std::string_view got = JsonValueText(here, key);
      ++compared;
      if (!want.empty() && got == want) continue;
      std::fprintf(stderr,
                   "FAIL: work counter %s%s%s is %.*s here, %.*s in "
                   "baseline %s\n",
                   section.name, top ? "" : ".", key,
                   static_cast<int>(got.size()), got.data(),
                   static_cast<int>(want.size()), want.data(), path.c_str());
      ok = false;
    }
  }
  std::printf("work counters: %zu compared exactly: %s\n", compared,
              ok ? "ok" : "CHANGED");
  const double base_ns = JsonNumber(baseline, "ns_per_epoch");
  if (base_ns <= 0.0) {
    std::fprintf(stderr, "FAIL: cannot read ns_per_epoch from baseline %s\n",
                 path.c_str());
    return false;
  }
  const double limit = base_ns * (1.0 + tolerance);
  std::printf("churn-free ns_per_epoch %.0f vs baseline %.0f "
              "(limit %.0f at %.0f%% tolerance): %s\n",
              ns_per_epoch, base_ns, limit, 100.0 * tolerance,
              ns_per_epoch <= limit ? "ok" : "REGRESSED");
  if (ns_per_epoch > limit) {
    ok = false;
    std::fprintf(stderr,
                 "FAIL: ns_per_epoch regressed past the tolerance gate "
                 "(%.0f > %.0f)\n",
                 ns_per_epoch, limit);
  }
  // Both sides are read back from their printed text, so they are rounded
  // alike.
  for (const char* key : {"allocs_per_submit", "allocs_per_epoch"}) {
    if (JsonValueText(baseline, key).empty()) {
      std::fprintf(stderr, "FAIL: cannot read %s from baseline %s\n", key,
                   path.c_str());
      ok = false;
      continue;
    }
    const double base = JsonNumber(baseline, key);
    const double got = JsonNumber(run.str(), key);
    std::printf("%s %.1f vs baseline %.1f (ceiling): %s\n", key, got, base,
                got <= base ? "ok" : "ROSE");
    if (got > base) {
      std::fprintf(stderr, "FAIL: %s rose above the baseline (%.1f > %.1f)\n",
                   key, got, base);
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace sbon

int main(int argc, char** argv) {
  sbon::bench::ParseBenchArgs(argc, argv);
  const bool smoke = sbon::bench::SmokeMode();
  const size_t nodes =
      sbon::bench::FlagOr(argc, argv, "nodes", sbon::bench::Nodes(512));
  const size_t queries = std::max<size_t>(
      1, sbon::bench::FlagOr(argc, argv, "queries", smoke ? 8 : 64));
  const size_t epochs = std::max<size_t>(
      1, sbon::bench::FlagOr(argc, argv, "epochs", smoke ? 4 : 32));
  const double epsilon = sbon::bench::DoubleFlagOr(argc, argv, "epsilon", 1.0);
  const double churn_rate =
      sbon::bench::DoubleFlagOr(argc, argv, "churn-rate", 0.5);

  using BaseMode = sbon::net::NetworkFabric::BaseMode;
  const BaseMode fabric = sbon::bench::FabricFlag();
  const bool dense_requested = fabric == BaseMode::kDense;
  if (dense_requested && nodes > 20000) {
    std::fprintf(stderr,
                 "--fabric=dense above 20000 nodes would materialize an "
                 "N^2 base latency matrix (%zu GB); use --fabric=sparse\n",
                 nodes * nodes * sizeof(double) >> 30);
    return 2;
  }
  // The engine-loop sections track the dense-scale baseline; where the auto
  // fabric leaves the dense matrix they would spend minutes measuring a
  // regime the dense backend cannot reach anyway, so the binary skips them.
  const bool scaling_only =
      sbon::net::NetworkFabric::Resolve(BaseMode::kAuto, nodes) !=
          BaseMode::kDense &&
      !dense_requested;
  // The gate compares the engine-loop sections, so a baseline passed to a
  // run without them is a mistake, not a pass.
  const std::string baseline_path =
      sbon::bench::StringFlagOr(argc, argv, "baseline");
  if (scaling_only && !baseline_path.empty()) {
    std::fprintf(stderr,
                 "--baseline needs the engine-loop sections, which a "
                 "sparse-scaling run (%zu nodes, auto fabric not dense) "
                 "skips; drop --baseline or pass --fabric=dense\n",
                 nodes);
    return 2;
  }
  const sbon::engine::ExecMode exec = sbon::bench::ExecMode();

#if defined(SBON_SIMD_ENABLED)
  const char* simd_mode = "on";
#else
  const char* simd_mode = "off";
#endif
  // Each section is written once, into `doc`: stdout shows it when it
  // completes, and --json writes the whole document at the end.
  sbon::JsonWriter doc;
  size_t printed = 0;
  doc.BeginObject();
  doc.Key("bench").String("perf_epoch");
  doc.Key("smoke").Bool(smoke);
  doc.Key("mode").String(scaling_only ? "sparse-scaling" : "standard");
  doc.Key("fabric").String(fabric == BaseMode::kDense    ? "dense"
                           : fabric == BaseMode::kSparse ? "sparse"
                                                         : "auto");
  doc.Key("exec").String(sbon::bench::ExecFlag());
  doc.Key("simd").String(simd_mode);
  doc.Key("nodes").Int(nodes);
  doc.Key("queries").Int(queries);
  doc.Key("epochs").Int(epochs);
  sbon::bench::PrintSection(doc, &printed);

  double ns_per_epoch = 0.0;  // the churn-free median, in standard mode
  if (!scaling_only) {
    // One 32-epoch pass is too short to read against run-to-run noise, so
    // churn-free and churn passes alternate, every pass on the same seed.
    // The churn-free passes' median is the gated `ns_per_epoch`; the churn
    // section reports the churn passes' median and the median per-pair
    // ratio (its repair counters are those of each churn pass). Every
    // churn-free pass counts the same work and allocates the same (each
    // engine grows its own optimizer scratch), so the first one's counters
    // stand for all of them. `ns_per_submit` and `allocs_per_submit` come
    // from the second pass all the same: the first one's Submits are the
    // process's first, and their time also pays its one-time warm-up
    // (first-touch page faults while the heap grows to its high-water
    // mark, cold code and caches).
    constexpr size_t kChurnPairs = 15;
    sbon::EpochLoopResult primary;
    sbon::EpochLoopResult warm;
    sbon::Summary churn_free_ns, churn_ns, overhead;
    sbon::engine::RepairStats repair;
    for (size_t pair = 0; pair < kChurnPairs; ++pair) {
      const sbon::EpochLoopResult churn_free = sbon::RunEpochLoop(
          nodes, queries, epochs, epsilon, /*seed=*/42, /*churn_rate=*/0.0,
          exec);
      const sbon::EpochLoopResult churned = sbon::RunEpochLoop(
          nodes, queries, epochs, epsilon, /*seed=*/42, churn_rate, exec);
      if (pair == 0) primary = churn_free;
      if (pair == 1) warm = churn_free;
      churn_free_ns.Add(churn_free.ns_per_epoch);
      churn_ns.Add(churned.ns_per_epoch);
      overhead.Add(churned.ns_per_epoch / churn_free.ns_per_epoch);
      repair = churned.repair;
    }
    ns_per_epoch = churn_free_ns.Median();

    sbon::bench::Section(
        "Epoch+Submit throughput (dirty refresh; _eps0 republishes every "
        "change)");
    const sbon::EpochLoopResult eps0 = sbon::RunEpochLoop(
        nodes, queries, epochs, 0.0, /*seed=*/42, /*churn_rate=*/0.0, exec);
    doc.Key("refresh_epsilon").Double(epsilon);
    doc.Key("ns_per_epoch").Double(ns_per_epoch, 1);
    doc.Key("ns_per_submit").Double(warm.ns_per_submit, 1);
    doc.Key("allocs_per_submit").Double(warm.allocs_per_submit, 1);
    doc.Key("ns_per_epoch_eps0").Double(eps0.ns_per_epoch, 1);
    doc.Key("allocs_per_epoch").Double(primary.allocs_per_epoch, 1);
    doc.Key("live_reads_per_epoch").Double(primary.live_reads_per_epoch, 1);
    doc.Key("republished").Int(primary.refresh.republished);
    doc.Key("republish_skipped").Int(primary.refresh.skipped);
    doc.Key("quiet_refreshes").Int(primary.refresh.quiet_refreshes);
    doc.Key("refreshes").Int(primary.refresh.refreshes);
    doc.Key("ring_batches").Int(primary.refresh.ring_batches);
    sbon::bench::PrintSection(doc, &printed);

    sbon::bench::Section("Hot-call allocation audit (each must be 0)");
    // A small dedicated overlay keeps the audit cheap under --smoke.
    const bool audit_ok = sbon::AuditHotCalls(
        doc, *sbon::bench::MakeTransitStubSbon(sbon::bench::Nodes(200),
                                               /*seed=*/7));
    sbon::bench::PrintSection(doc, &printed);
    if (!audit_ok) return 1;

    sbon::bench::Section("Epoch throughput under churn (crashes + repair)");
    doc.Key("churn").BeginObject();
    doc.Key("crash_rate").Double(churn_rate);
    doc.Key("pairs").Int(kChurnPairs);
    doc.Key("ns_per_epoch").Double(churn_ns.Median(), 1);
    doc.Key("overhead_p50").Double(overhead.Median(), 3);
    doc.Key("crashes").Int(repair.crashes);
    doc.Key("rejoins").Int(repair.rejoins);
    doc.Key("services_evicted").Int(repair.services_evicted);
    doc.Key("circuits_orphaned").Int(repair.circuits_orphaned);
    doc.Key("queries_repaired").Int(repair.queries_repaired);
    doc.Key("queries_dropped").Int(repair.queries_dropped);
    doc.EndObject();
    sbon::bench::PrintSection(doc, &printed);
  }

  // Runs a message-mode workload twice at the same configuration: the
  // first run writes its report into the open section object, which this
  // closes with the replay verdict. False (after a FAIL: line) when the
  // two runs did not end bit-identical.
  const auto message_section = [&doc, &printed](
                                   const char* what,
                                   const sbon::msg::RuntimeParams& mp,
                                   size_t drain_epochs) {
    const uint64_t run1 =
        sbon::RunMessageSection(/*seed=*/42, mp, drain_epochs, &doc);
    const uint64_t run2 =
        sbon::RunMessageSection(/*seed=*/42, mp, drain_epochs, nullptr);
    doc.Key("replay_bit_identical").Bool(run1 == run2);
    doc.EndObject();
    sbon::bench::PrintSection(doc, &printed);
    if (run1 != run2) {
      std::fprintf(stderr,
                   "FAIL: %s replay diverged (run1=%016llx run2=%016llx)\n",
                   what, static_cast<unsigned long long>(run1),
                   static_cast<unsigned long long>(run2));
    }
    return run1 == run2;
  };

  sbon::bench::Section("Decentralized execution (message mode, pinned size)");
  doc.Key("decentralized").BeginObject();
  if (!message_section("message-mode", {}, /*drain_epochs=*/8)) return 1;

  sbon::bench::Section("Chaos message mode (faults + reliability + detector)");
  sbon::msg::RuntimeParams chaos_mp;
  const sbon::bench::FaultRatesFlag& fault_rates = sbon::bench::FaultsFlag();
  for (sbon::msg::FaultRates& r : chaos_mp.bus.faults.protocol) {
    r.loss = fault_rates.loss;
    r.duplicate = fault_rates.duplicate;
    r.delay_jitter_ms = fault_rates.delay_jitter_ms;
  }
  chaos_mp.reliability.enabled = true;
  // Tight retry schedule: the worst capped backoff chain (1 + 2 + 2 epochs)
  // must drain inside the quiescent window so convergence stays observable.
  chaos_mp.reliability.retry_after_epochs = 1;
  chaos_mp.reliability.max_backoff_epochs = 2;
  chaos_mp.reliability.max_retries = 3;
  chaos_mp.detector.enabled = true;
  doc.Key("chaos").BeginObject();
  doc.Key("faults").BeginObject();
  doc.Key("loss").Double(fault_rates.loss);
  doc.Key("duplicate").Double(fault_rates.duplicate);
  doc.Key("delay_jitter_ms").Double(fault_rates.delay_jitter_ms);
  doc.EndObject();
  if (!message_section("chaos message-mode", chaos_mp, /*drain_epochs=*/12)) {
    return 1;
  }

  // After the message sections, whose counters the gate compares too.
  if (!baseline_path.empty()) {
    sbon::bench::Section("Baseline regression gate");
    const double tolerance =
        sbon::bench::DoubleFlagOr(argc, argv, "baseline-tolerance", 0.5);
    if (!sbon::BaselineGate(baseline_path, tolerance, doc, ns_per_epoch)) {
      return 1;
    }
  }

  sbon::bench::Section("Sparse fabric scaling (generative substrate)");
  const size_t sparse_epochs = smoke ? 4 : 8;
  const size_t small_target = std::max<size_t>(100, nodes / 5);
  const auto sp_small = sbon::RunSparsePoint(small_target, 42, sparse_epochs);
  const auto sp_full = nodes > small_target
                           ? sbon::RunSparsePoint(nodes, 42, sparse_epochs)
                           : sp_small;
  doc.Key("sparse").BeginObject();
  doc.Key("small").Embed(sp_small.json);
  doc.Key("full").Embed(sp_full.json);
  // The scaling exponent is only meaningful when both points exercise the
  // sketch-mode sparse backend at large N (the regime whose asymptote it
  // claims to measure). Small-N points run the exact-mode base — fitting an
  // exponent across those is numerology, so it is NaN, written as null.
  const bool maint_exponent_valid =
      scaling_only && sp_full.nodes > sp_small.nodes &&
      sp_small.maint_ns > 0.0 && sp_small.sketch && sp_full.sketch;
  doc.Key("maint_scaling_exponent")
      .Double(maint_exponent_valid
                  ? std::log(sp_full.maint_ns / sp_small.maint_ns) /
                        std::log(static_cast<double>(sp_full.nodes) /
                                 static_cast<double>(sp_small.nodes))
                  : std::nan(""),
              2);
  doc.Key("maint_scaling_note")
      .String(maint_exponent_valid
                  ? "fit across the sketch-mode sparse sweep"
                  : "null: only meaningful across a large-N sketch-mode "
                    "sparse sweep (--fabric=sparse above the exact-row "
                    "size); small-N points run the exact-mode base");
  // The flat-memory acceptance gate: no single allocation anywhere near an
  // N x N double matrix (or an N(N+1)/2 triangle) may happen while
  // the sparse backend runs. Only meaningful once quadratic buffers dwarf
  // the backend's legitimate O(N) arrays (a few hundred bytes per node);
  // below ~512 nodes the two regimes overlap and the dense-vs-sparse
  // equivalence test owns the precise assertion.
  bool sparse_mem_flat = true;
  for (const auto* p : {&sp_small, &sp_full}) {
    if (p->nodes < 512) continue;
    if (p->max_alloc * 2 >= p->nodes * (p->nodes + 1) * sizeof(double)) {
      sparse_mem_flat = false;
      std::fprintf(stderr,
                   "FAIL: sparse run allocated an O(N^2)-sized buffer "
                   "(%zu bytes at N=%zu)\n",
                   p->max_alloc, p->nodes);
    }
  }
  doc.Key("mem_flat").Bool(sparse_mem_flat);
  doc.EndObject();
  doc.EndObject();
  sbon::bench::PrintSection(doc, &printed);
  if (!sparse_mem_flat) return 1;
  return sbon::bench::WriteJson(doc) ? 0 : 1;
}
