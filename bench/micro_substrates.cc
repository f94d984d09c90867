// Kernel throughput of the substrate pieces: Hilbert curve, Chord routing,
// a refresh-sized index republish, coordinate-index queries (probed, exact
// and radius, each into a reused node-id buffer), Vivaldi updates, shortest
// paths, and the message-mode bus drain.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "common/coord_block.h"
#include "common/rng.h"
#include "coords/vivaldi.h"
#include "dht/chord.h"
#include "dht/coord_index.h"
#include "dht/hilbert.h"
#include "net/generators.h"
#include "net/shortest_path.h"

namespace sbon {
namespace {

// 64k distinct cells: a few hundred would let the branch predictor learn
// the data-dependent branches of the inputs, which real traffic never
// repeats.
void BM_HilbertEncode(benchmark::State& state) {
  const unsigned dims = static_cast<unsigned>(state.range(0));
  const unsigned bits = 10;
  constexpr size_t kInputs = size_t{1} << 16;
  Rng rng(1);
  std::vector<std::vector<uint32_t>> inputs;
  for (size_t i = 0; i < kInputs; ++i) {
    std::vector<uint32_t> axes(dims);
    for (auto& a : axes) {
      a = static_cast<uint32_t>(rng.UniformInt(uint64_t{1} << bits));
    }
    inputs.push_back(std::move(axes));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dht::HilbertEncode(inputs[i & (kInputs - 1)], bits));
    ++i;
  }
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

void BM_HilbertDecode(benchmark::State& state) {
  const unsigned dims = static_cast<unsigned>(state.range(0));
  const unsigned bits = 10;
  Rng rng(2);
  std::vector<dht::U128> keys;
  for (int i = 0; i < 256; ++i) {
    keys.push_back(dht::U128(0, rng.Next() &
                                    ((1ULL << (dims * bits)) - 1)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht::HilbertDecode(keys[i & 255], dims, bits));
    ++i;
  }
}
BENCHMARK(BM_HilbertDecode)->Arg(2)->Arg(3)->Arg(4)->Arg(6);

// A uniform 96-bit ring point: the widest a ring key leaves above the node
// id.
dht::U128 RandomPoint(Rng* rng) {
  return dht::HashU64(rng->Next()) >> dht::ChordRing::kNodeBits;
}

void BM_ChordLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  dht::ChordRing ring;
  for (size_t i = 0; i < n; ++i) {
    ring.Join(RandomPoint(&rng), static_cast<NodeId>(i));
  }
  size_t hops = 0, lookups = 0;
  for (auto _ : state) {
    auto r = ring.Lookup(RandomPoint(&rng), RandomPoint(&rng));
    benchmark::DoNotOptimize(r);
    hops += r.ok() ? r->hops : 0;
    ++lookups;
  }
  state.counters["hops"] =
      benchmark::Counter(static_cast<double>(hops) / lookups);
}
BENCHMARK(BM_ChordLookup)->Arg(64)->Arg(256)->Arg(1024);

// Ring updates at the size of the suite's overlay (496 members) with
// 30-bit points, the width of a 3-dim, 10-bit Hilbert index.
constexpr size_t kRingMembers = 496;

dht::U128 RandomHilbertPoint(Rng* rng) {
  return dht::U128::FromU64(rng->Next() & ((uint64_t{1} << 30) - 1));
}

dht::ChordRing MakeRing(Rng* rng, size_t members = kRingMembers) {
  dht::ChordRing ring;
  for (size_t i = 0; i < members; ++i) {
    ring.Join(RandomHilbertPoint(rng), static_cast<NodeId>(i));
  }
  return ring;
}

// `moved` of the ring's members move in one batch, in random order — all
// of them is a refresh at ε=1, 465 of them `maintain`'s typical epoch.
void BM_RejoinFullRing(benchmark::State& state) {
  const size_t moved = static_cast<size_t>(state.range(0));
  Rng rng(8);
  dht::ChordRing ring = MakeRing(&rng);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < kRingMembers; ++i) {
    nodes.push_back(static_cast<NodeId>(i));
  }
  std::vector<std::vector<dht::ChordRing::Move>> batches(64);
  for (auto& batch : batches) {
    // A random `moved`-subset of the nodes, in random order.
    for (size_t i = 0; i < moved; ++i) {
      std::swap(nodes[i], nodes[i + rng.UniformInt(nodes.size() - i)]);
      batch.push_back({RandomHilbertPoint(&rng), nodes[i]});
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    ring.Rejoin(batches[i++ & 63]);
    benchmark::DoNotOptimize(ring.members().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RejoinFullRing)
    ->ArgName("moved")
    ->Arg(1)
    ->Arg(16)
    ->Arg(124)
    ->Arg(465)
    ->Arg(496);

// A first-member Lookup(point) on a ring no membership change touches: the
// index query's lookup while one ring state serves many Submits. After the
// first pass over the keys every target's hop count is memoized.
void BM_ChordLookupFirstMember(benchmark::State& state) {
  Rng rng(10);
  const dht::ChordRing ring = MakeRing(&rng);
  constexpr size_t kKeys = 4096;
  std::vector<dht::U128> keys;
  for (size_t i = 0; i < kKeys; ++i) keys.push_back(RandomHilbertPoint(&rng));
  size_t i = 0, hops = 0;
  for (auto _ : state) {
    auto r = ring.Lookup(keys[i++ & (kKeys - 1)]);
    benchmark::DoNotOptimize(r);
    hops += r.ok() ? r->hops : 0;
  }
  state.counters["hops"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(i));
}
BENCHMARK(BM_ChordLookupFirstMember);

// Warm lookups on a ring of `members` with 30-bit points: Lookup(point)
// from the first member (its hop memo filled by a pass over the keys
// before timing), and the self-route Lookup(point, point), which is one
// successor search and 0 hops — every message-mode displacement publish
// and retry.
void BM_RingLookup(benchmark::State& state) {
  const size_t members = static_cast<size_t>(state.range(0));
  const bool self_route = state.range(1) != 0;
  Rng rng(12);
  const dht::ChordRing ring = MakeRing(&rng, members);
  constexpr size_t kKeys = 4096;
  std::vector<dht::U128> keys;
  for (size_t i = 0; i < kKeys; ++i) keys.push_back(RandomHilbertPoint(&rng));
  for (const dht::U128& key : keys) benchmark::DoNotOptimize(ring.Lookup(key));
  size_t i = 0;
  for (auto _ : state) {
    const dht::U128& key = keys[i++ & (kKeys - 1)];
    auto r = self_route ? ring.Lookup(key, key) : ring.Lookup(key);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RingLookup)
    ->ArgNames({"members", "self_route"})
    ->ArgsProduct({{240, 496, 2000}, {0, 1}});

// One member moves: a churn rejoin (Sbon::RejoinNode).
void BM_RejoinOne(benchmark::State& state) {
  Rng rng(9);
  dht::ChordRing ring = MakeRing(&rng);
  constexpr size_t kMoves = size_t{1} << 16;
  std::vector<dht::ChordRing::Move> moves;
  for (size_t i = 0; i < kMoves; ++i) {
    moves.push_back({RandomHilbertPoint(&rng),
                     static_cast<NodeId>(rng.UniformInt(kRingMembers))});
  }
  size_t i = 0;
  for (auto _ : state) {
    const dht::ChordRing::Move& m = moves[i++ & (kMoves - 1)];
    ring.Join(m.point, m.node);
    benchmark::DoNotOptimize(ring.members().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RejoinOne);

dht::CoordinateIndex MakeIndex(size_t n, Rng* rng) {
  std::vector<Vec> coords;
  for (size_t i = 0; i < n; ++i) {
    coords.push_back(Vec{rng->Uniform(0, 200), rng->Uniform(0, 200),
                         rng->Uniform(0, 100)});
  }
  dht::CoordinateIndex idx(dht::HilbertQuantizer::FitTo(coords, 10));
  for (size_t i = 0; i < n; ++i) {
    idx.Publish(static_cast<NodeId>(i), coords[i]);
  }
  return idx;
}

// A `maintain`-shaped refresh batch: 465 of an index's 496 nodes
// republish, in node order, from a CoordBlock whose slot j belongs to the
// batch's j-th node — what CoordinateManager::RefreshIndex hands over.
// Batches rotate so that keys move. `per_publish` is the time per
// republished node (seconds, printed with an SI prefix).
void BM_IndexPublishAll(benchmark::State& state) {
  constexpr size_t kMoved = 465;
  constexpr size_t kBatches = 16;
  Rng rng(14);
  dht::CoordinateIndex idx = MakeIndex(kRingMembers, &rng);
  std::vector<std::vector<NodeId>> nodes(kBatches);
  std::vector<CoordBlock> blocks(kBatches);
  std::vector<NodeId> all(kRingMembers);
  for (size_t i = 0; i < kRingMembers; ++i) all[i] = static_cast<NodeId>(i);
  for (size_t b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kMoved; ++i) {
      std::swap(all[i], all[i + rng.UniformInt(kRingMembers - i)]);
    }
    nodes[b].assign(all.begin(), all.begin() + kMoved);
    std::sort(nodes[b].begin(), nodes[b].end());
    blocks[b].Reset(3, kMoved);
    for (size_t j = 0; j < kMoved; ++j) {
      blocks[b].SetNode(j, Vec{rng.Uniform(0, 200), rng.Uniform(0, 200),
                               rng.Uniform(0, 100)});
    }
  }
  idx.Reserve(kMoved);
  size_t i = 0;
  for (auto _ : state) {
    idx.PublishAll(nodes[i % kBatches], blocks[i % kBatches]);
    ++i;
    benchmark::ClobberMemory();
  }
  state.counters["per_publish"] = benchmark::Counter(
      static_cast<double>(i * kMoved),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IndexPublishAll);

void BM_IndexKNearest(benchmark::State& state) {
  Rng rng(5);
  auto idx = MakeIndex(static_cast<size_t>(state.range(0)), &rng);
  std::vector<NodeId> nodes;
  for (auto _ : state) {
    const Vec target{rng.Uniform(0, 200), rng.Uniform(0, 200), 0.0};
    (void)idx.KNearestNodesInto(target, 8, 16, nullptr, &nodes);
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_IndexKNearest)
    ->Arg(100)
    ->Arg(kRingMembers)
    ->Arg(600)
    ->Arg(2000);

// The batched exact sweep over every published node; items = nodes swept.
void BM_IndexKNearestExact(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  auto idx = MakeIndex(n, &rng);
  std::vector<NodeId> nodes;
  for (auto _ : state) {
    const Vec target{rng.Uniform(0, 200), rng.Uniform(0, 200), 0.0};
    idx.KNearestExactInto(target, 8, &nodes);
    benchmark::DoNotOptimize(nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexKNearestExact)->Arg(100)->Arg(600)->Arg(2000);

void BM_IndexWithinRadius(benchmark::State& state) {
  Rng rng(6);
  auto idx = MakeIndex(600, &rng);
  const double radius = static_cast<double>(state.range(0));
  std::vector<NodeId> nodes;
  for (auto _ : state) {
    const Vec target{rng.Uniform(0, 200), rng.Uniform(0, 200), 0.0};
    (void)idx.WithinRadiusInto(target, radius, nullptr, &nodes);
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_IndexWithinRadius)->Arg(10)->Arg(40)->Arg(160);

void BM_VivaldiUpdate(benchmark::State& state) {
  Rng rng(7);
  coords::VivaldiSystem sys(512, coords::VivaldiSystem::Params{}, &rng);
  for (auto _ : state) {
    const NodeId a = static_cast<NodeId>(rng.UniformInt(uint64_t{512}));
    const NodeId b = static_cast<NodeId>(rng.UniformInt(uint64_t{512}));
    if (a == b) continue;
    sys.Update(a, b, rng.Uniform(1.0, 200.0));
  }
}
BENCHMARK(BM_VivaldiUpdate);

void BM_VivaldiFullRun(benchmark::State& state) {
  Rng trng(8);
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.stub_domains_per_transit_node = 2;
  p.nodes_per_stub_domain = static_cast<size_t>(state.range(0));
  auto topo = net::GenerateTransitStub(p, &trng);
  const net::LatencyMatrix lat(*topo);
  for (auto _ : state) {
    Rng rng(9);
    coords::VivaldiRunOptions run;
    run.rounds = 30;
    benchmark::DoNotOptimize(coords::RunVivaldi(
        lat, coords::VivaldiSystem::Params{}, run, &rng));
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(lat.NumNodes()));
}
BENCHMARK(BM_VivaldiFullRun)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_LatencyMatrix(benchmark::State& state) {
  Rng trng(10);
  net::TransitStubParams p;
  p.nodes_per_stub_domain = static_cast<size_t>(state.range(0));
  auto topo = net::GenerateTransitStub(p, &trng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::LatencyMatrix(*topo));
  }
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(topo->NumNodes()));
}
BENCHMARK(BM_LatencyMatrix)->Arg(4)->Arg(12)->Unit(benchmark::kMillisecond);

// One `chaos`-shaped message-mode epoch over bench::BusDrainRig at N
// nodes: a ping and a heartbeat per node, a pong per delivered ping, 10%
// loss and 5% duplication, then EndEpoch. The bus keeps its queue capacity
// across rounds, as it does across engine epochs. `per_delivery` is the
// time per delivered envelope (seconds, printed with an SI prefix: 90n is
// 90 ns).
void BM_MessageBusDrain(benchmark::State& state) {
  bench::BusDrainRig rig(static_cast<size_t>(state.range(0)), /*seed=*/12);
  // Warm-up rounds let the carry-over reach its steady state.
  for (size_t i = 0; i < 8; ++i) rig.Round();
  const size_t delivered_before = rig.bus().stats().TotalDelivered();
  for (auto _ : state) rig.Round();
  const double delivered = static_cast<double>(
      rig.bus().stats().TotalDelivered() - delivered_before);
  state.counters["per_delivery"] = benchmark::Counter(
      delivered, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MessageBusDrain)->Arg(256);

}  // namespace
}  // namespace sbon
