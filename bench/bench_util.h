#ifndef SBON_BENCH_BENCH_UTIL_H_
#define SBON_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/vec.h"
#include "engine/stream_engine.h"
#include "msg/message.h"
#include "msg/message_bus.h"
#include "net/fabric.h"
#include "net/generators.h"
#include "overlay/sbon.h"

namespace sbon::bench {

inline bool& SmokeModeFlag() {
  static bool smoke = false;
  return smoke;
}

/// True when the harness runs in smoke mode: every code path, tiny sweeps.
inline bool SmokeMode() { return SmokeModeFlag(); }

/// Default strategy names used by MakeTransitStubEngine, overridable with
/// --optimizer= / --placer= (engine registry names), so every harness can
/// be ablated from the command line without a rebuild.
inline std::string& OptimizerFlag() {
  static std::string name = "integrated";
  return name;
}
inline std::string& PlacerFlag() {
  static std::string name = "relaxation";
  return name;
}

/// Path for machine-readable results (`--json=PATH`); empty = no JSON
/// output. Harnesses that record baselines (perf_epoch, perf_workload)
/// write here the document whose sections they print (WriteJson).
inline std::string& JsonFlag() {
  static std::string path;
  return path;
}

/// Latency-substrate provider override (`--fabric=auto|dense|sparse`).
/// kAuto keeps the caller's (or Sbon::Options') fabric mode.
inline net::NetworkFabric::BaseMode& FabricFlag() {
  static auto mode = net::NetworkFabric::BaseMode::kAuto;
  return mode;
}

/// Coordinate/ring maintenance execution (`--exec=oracle|message`):
/// "oracle" keeps the engine's global-knowledge maintenance stages,
/// "message" re-expresses them as explicit control traffic through
/// msg::MessageBus (README "Execution modes").
inline std::string& ExecFlag() {
  static std::string name = "oracle";
  return name;
}

/// The engine execution mode the --exec= flag selects.
inline engine::ExecMode ExecMode() {
  return ExecFlag() == "message" ? engine::ExecMode::kMessage
                                 : engine::ExecMode::kOracle;
}

/// Chaos fault rates for the message-mode chaos section
/// (`--faults=LOSS,DUP[,JITTER_MS]`): per-message loss and duplication
/// probabilities applied to every protocol, plus an optional mean
/// exponential extra delivery delay in ms. Defaults are the acceptance
/// plan: 10% loss, 5% duplication, no extra delay.
struct FaultRatesFlag {
  double loss = 0.10;
  double duplicate = 0.05;
  double delay_jitter_ms = 0.0;
};
inline FaultRatesFlag& FaultsFlag() {
  static FaultRatesFlag f;
  return f;
}

/// Call first in main(): enables smoke mode on `--smoke` or
/// `SBON_BENCH_SMOKE=1` (ctest smoke-runs every figure harness this way so
/// benchmarks cannot silently bit-rot), and parses `--optimizer=NAME` /
/// `--placer=NAME` strategy overrides against the engine registries.
inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      SmokeModeFlag() = true;
    } else if (arg.rfind("--optimizer=", 0) == 0) {
      OptimizerFlag() = std::string(arg.substr(std::strlen("--optimizer=")));
    } else if (arg.rfind("--placer=", 0) == 0) {
      PlacerFlag() = std::string(arg.substr(std::strlen("--placer=")));
    } else if (arg.rfind("--json=", 0) == 0) {
      JsonFlag() = std::string(arg.substr(std::strlen("--json=")));
    } else if (arg.rfind("--fabric=", 0) == 0) {
      const std::string_view name = arg.substr(std::strlen("--fabric="));
      using BaseMode = net::NetworkFabric::BaseMode;
      if (name == "auto") {
        FabricFlag() = BaseMode::kAuto;
      } else if (name == "dense") {
        FabricFlag() = BaseMode::kDense;
      } else if (name == "sparse") {
        FabricFlag() = BaseMode::kSparse;
      } else {
        std::fprintf(stderr,
                     "unknown fabric '%s'; expected auto, dense or sparse\n",
                     std::string(name).c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--exec=", 0) == 0) {
      ExecFlag() = std::string(arg.substr(std::strlen("--exec=")));
      if (ExecFlag() != "oracle" && ExecFlag() != "message") {
        std::fprintf(stderr,
                     "unknown exec mode '%s'; expected oracle or message\n",
                     ExecFlag().c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--faults=", 0) == 0) {
      FaultRatesFlag& f = FaultsFlag();
      const char* s = argv[i] + std::strlen("--faults=");
      char* end = nullptr;
      f.loss = std::strtod(s, &end);
      f.duplicate = 0.0;
      f.delay_jitter_ms = 0.0;
      if (end != nullptr && *end == ',') {
        f.duplicate = std::strtod(end + 1, &end);
        if (end != nullptr && *end == ',') {
          f.delay_jitter_ms = std::strtod(end + 1, nullptr);
        }
      }
      if (f.loss < 0.0 || f.loss > 1.0 || f.duplicate < 0.0 ||
          f.duplicate > 1.0 || f.delay_jitter_ms < 0.0) {
        std::fprintf(stderr,
                     "--faults=LOSS,DUP[,JITTER_MS] wants probabilities in "
                     "[0, 1] and a non-negative jitter\n");
        std::exit(2);
      }
    }
  }
  const char* env = std::getenv("SBON_BENCH_SMOKE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    SmokeModeFlag() = true;
  }
  auto check = [](const char* what, const std::string& name, bool known,
                  const std::vector<std::string>& names) {
    if (known) return;
    std::fprintf(stderr, "unknown %s '%s'; built in:", what, name.c_str());
    for (const std::string& n : names) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  };
  check("optimizer", OptimizerFlag(),
        engine::OptimizerRegistry::Global().Has(OptimizerFlag()),
        engine::OptimizerRegistry::Global().Names());
  check("placer", PlacerFlag(),
        engine::PlacerRegistry::Global().Has(PlacerFlag()),
        engine::PlacerRegistry::Global().Names());
  if (SmokeMode()) {
    std::printf("[smoke mode: reduced sweeps; figures NOT representative]\n");
  }
}

/// Value of a `--name=<integer>` flag, or `fallback` when absent.
inline size_t FlagOr(int argc, char** argv, const char* name,
                     size_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return static_cast<size_t>(
          std::strtoull(argv[i] + prefix.size(), nullptr, 10));
    }
  }
  return fallback;
}

/// Value of a `--name=<double>` flag, or `fallback` when absent.
inline double DoubleFlagOr(int argc, char** argv, const char* name,
                           double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return fallback;
}

/// Value of a `--name=<string>` flag, or empty when absent.
inline std::string StringFlagOr(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::string();
}

/// Sweep breadth: `full` seeds/trials in figure runs, `smoke` under --smoke.
inline size_t Sweep(size_t full, size_t smoke = 2) {
  return SmokeMode() ? std::min(full, smoke) : full;
}

/// Topology size: capped at ~120 nodes under --smoke.
inline size_t Nodes(size_t full) {
  return SmokeMode() ? std::min<size_t>(full, 120) : full;
}

/// Applies Nodes() to a sweep of sizes and drops the duplicates the smoke
/// cap introduces; full runs pass through unchanged.
inline std::vector<size_t> DedupedSizes(std::initializer_list<size_t> sizes) {
  std::vector<size_t> out;
  for (size_t s : sizes) {
    const size_t n = Nodes(s);
    if (out.empty() || out.back() != n) out.push_back(n);
  }
  return out;
}

/// Transit-stub topology of roughly `target_nodes` nodes (>= 100). All
/// harnesses share this so figures are comparable.
inline net::Topology MakeTransitStubTopology(size_t target_nodes,
                                             uint64_t seed) {
  net::TransitStubParams p;
  // Scale stub domains to approximate the target size:
  // nodes = td*tn + td*tn*sd*ns with td*tn transit routers. Above ~10k the
  // transit core widens (8x8) and stub-domain count grows with the target so
  // domains stay O(10) nodes — keeping the graph sparse (links linear in
  // nodes) instead of fattening each domain's quadratic chord pool.
  p.transit_domains = target_nodes >= 10000 ? 8 : (target_nodes >= 400 ? 4 : 2);
  p.transit_nodes_per_domain =
      target_nodes >= 10000 ? 8 : (target_nodes >= 200 ? 4 : 2);
  const size_t transit_est = p.transit_domains * p.transit_nodes_per_domain;
  p.stub_domains_per_transit_node =
      target_nodes >= 10000
          ? std::max<size_t>(3, target_nodes / (transit_est * 24))
          : 3;
  const size_t transit = transit_est;
  p.nodes_per_stub_domain =
      std::max<size_t>(2, (target_nodes - transit) /
                              (transit * p.stub_domains_per_transit_node));
  Rng rng(seed);
  auto topo = net::GenerateTransitStub(p, &rng);
  if (!topo.ok()) {
    std::fprintf(stderr, "topology generation failed: %s\n",
                 topo.status().ToString().c_str());
    std::abort();
  }
  return std::move(topo.value());
}

/// Builds a transit-stub SBON of roughly `target_nodes` nodes.
inline std::unique_ptr<overlay::Sbon> MakeTransitStubSbon(
    size_t target_nodes, uint64_t seed,
    overlay::Sbon::Options opts = overlay::Sbon::Options()) {
  opts.seed = seed;
  // kAuto defers to the caller's (or Sbon's) default so harnesses that pin
  // a mode programmatically are not clobbered by the flag's default value.
  if (FabricFlag() != net::NetworkFabric::BaseMode::kAuto) {
    opts.fabric_mode = FabricFlag();
  }
  auto s = overlay::Sbon::Create(MakeTransitStubTopology(target_nodes, seed),
                                 opts);
  if (!s.ok()) {
    std::fprintf(stderr, "sbon creation failed: %s\n",
                 s.status().ToString().c_str());
    std::abort();
  }
  return std::move(s.value());
}

/// Builds a StreamEngine over a transit-stub overlay of roughly
/// `target_nodes` nodes. Engine defaults come from the --optimizer= /
/// --placer= flags; harnesses override per call via engine::StrategySpec
/// where the figure compares fixed strategies.
inline std::unique_ptr<engine::StreamEngine> MakeTransitStubEngine(
    size_t target_nodes, uint64_t seed,
    engine::EngineOptions opts = engine::EngineOptions()) {
  opts.topology = MakeTransitStubTopology(target_nodes, seed);
  opts.sbon.seed = seed;
  if (FabricFlag() != net::NetworkFabric::BaseMode::kAuto) {
    opts.sbon.fabric_mode = FabricFlag();
  }
  opts.optimizer = OptimizerFlag();
  opts.placer = PlacerFlag();
  auto e = engine::StreamEngine::Create(std::move(opts));
  if (!e.ok()) {
    std::fprintf(stderr, "engine creation failed: %s\n",
                 e.status().ToString().c_str());
    std::abort();
  }
  return std::move(e.value());
}

/// FNV-1a over the bit patterns of the overlay's state: every vector
/// coordinate and scalar penalty, a strided sample of the live latency view
/// (full coverage up to ~64k pairs; the same deterministic stride either
/// side of a comparison, so bit-identical runs hash identically and a single
/// differing ulp in a sampled pair does not), the deployed service count
/// and the total network usage. Per-pair view reads, so it works in any
/// fabric base mode, dense or sparse. The replay gates compare two runs'
/// fingerprints.
inline uint64_t StateFingerprint(const overlay::Sbon& sbon) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto& space = sbon.cost_space();
  for (NodeId n = 0; n < space.NumNodes(); ++n) {
    const Vec& v = space.VectorCoord(n);
    for (size_t d = 0; d < v.dims(); ++d) mix(v[d]);
    mix(space.ScalarPenalty(n));
  }
  const size_t nn = sbon.topology().NumNodes();
  const net::LatencyView& lat = sbon.latency();
  const size_t pairs = nn * nn;
  const size_t stride = std::max<size_t>(1, pairs / 65536);
  for (size_t i = 0; i < pairs; i += stride) {
    mix(lat.Latency(static_cast<NodeId>(i / nn),
                    static_cast<NodeId>(i % nn)));
  }
  mix(static_cast<double>(sbon.ledger().NumServices()));
  mix(sbon.TotalNetworkUsage());
  return h;
}

/// Prints a section header in the harness output.
inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints what `doc` rendered since `*mark` (one harness section, the same
/// text --json writes) and moves the mark to the end of the document.
inline void PrintSection(const JsonWriter& doc, size_t* mark) {
  std::string_view text = std::string_view(doc.str()).substr(*mark);
  text.remove_prefix(std::min(text.find_first_not_of(",\n"), text.size()));
  std::printf("%.*s\n", static_cast<int>(text.size()), text.data());
  *mark = doc.str().size();
}

/// Writes the finished document to the --json= path, if one was given.
/// False when the file cannot be written.
inline bool WriteJson(const JsonWriter& doc) {
  if (JsonFlag().empty()) return true;
  std::FILE* f = std::fopen(JsonFlag().c_str(), "w");
  bool ok = f != nullptr && std::fputs(doc.str().c_str(), f) >= 0 &&
            std::fputc('\n', f) != EOF;
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", JsonFlag().c_str());
    return false;
  }
  std::printf("wrote %s\n", JsonFlag().c_str());
  return true;
}

/// One `chaos`-shaped message-mode epoch on a bare bus, over a transit-stub
/// fabric (the default provider, dense at the rigs' sizes: reads are one
/// matrix load, so the bus itself is what gets measured) under the `chaos`
/// workload's fault plan: 10% loss and 5% duplication on every protocol,
/// 100 ms epochs. Each round every node Sends one Vivaldi ping to a peer
/// and one ring heartbeat to its successor; the Vivaldi handler answers
/// every ping with a pong mid-drain, and heartbeats are consumed. Messages
/// slower than an epoch carry over, as they do in `chaos`. The round
/// `micro_substrates` times and `perf_epoch`'s allocation audit checks.
class BusDrainRig {
 public:
  BusDrainRig(size_t target_nodes, uint64_t seed)
      : topo_(MakeTransitStubTopology(target_nodes, seed)),
        rng_(seed),
        fabric_(topo_, /*jitter_sigma=*/0.0, &rng_, {}),
        bus_(&fabric_, BusOptions()) {
    bus_.SetHandler(msg::Protocol::kVivaldi, [this](const msg::Envelope& e) {
      if (e.kind != msg::MsgKind::kPing) return;
      msg::Envelope pong;
      pong.proto = msg::Protocol::kVivaldi;
      pong.kind = msg::MsgKind::kPong;
      pong.from = e.to;
      pong.to = e.from;
      pong.subject = e.to;
      pong.coord = Vec{1.0, 2.0, 3.0};
      pong.bytes = 56;
      bus_.Send(std::move(pong));
    });
    bus_.SetHandler(msg::Protocol::kRing, [](const msg::Envelope&) {});
  }

  BusDrainRig(const BusDrainRig&) = delete;
  BusDrainRig& operator=(const BusDrainRig&) = delete;

  /// One epoch: a ping and a heartbeat per node, then EndEpoch. Ping peers
  /// rotate from round to round, as the agents' random peer samples do.
  void Round() {
    const size_t nodes = topo_.NumNodes();
    const size_t shift = 1 + (round_++ * 37) % (nodes - 1);
    bus_.BeginEpoch();
    for (size_t i = 0; i < nodes; ++i) {
      msg::Envelope ping;
      ping.proto = msg::Protocol::kVivaldi;
      ping.kind = msg::MsgKind::kPing;
      ping.from = static_cast<NodeId>(i);
      ping.to = static_cast<NodeId>((i + shift) % nodes);
      ping.subject = ping.from;
      ping.bytes = 24;
      bus_.Send(std::move(ping));
      msg::Envelope beat;
      beat.proto = msg::Protocol::kRing;
      beat.kind = msg::MsgKind::kStabilize;
      beat.from = static_cast<NodeId>(i);
      beat.to = static_cast<NodeId>((i + 1) % nodes);
      beat.subject = beat.from;
      beat.bytes = 16;
      bus_.Send(std::move(beat));
    }
    bus_.EndEpoch();
  }

  const msg::MessageBus& bus() const { return bus_; }

 private:
  static msg::MessageBus::Options BusOptions() {
    msg::MessageBus::Options o;
    for (msg::FaultRates& r : o.faults.protocol) {
      r.loss = 0.10;
      r.duplicate = 0.05;
    }
    return o;
  }

  net::Topology topo_;
  Rng rng_;
  net::NetworkFabric fabric_;
  msg::MessageBus bus_;
  size_t round_ = 0;
};

}  // namespace sbon::bench

#endif  // SBON_BENCH_BENCH_UTIL_H_
