// Kernel throughput of the optimizer path: plan enumeration, relaxation
// placement, physical mapping, and the full optimizers end to end.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "engine/registry.h"
#include "placement/relaxation.h"
#include "query/enumerate.h"
#include "query/workload.h"

namespace sbon {
namespace {

query::Catalog UniformCatalog(size_t n, Rng* rng) {
  query::Catalog cat;
  for (size_t i = 0; i < n; ++i) {
    cat.AddStream(query::IndexedStreamName(i), rng->Uniform(10, 500), 128.0,
                  static_cast<NodeId>(i));
  }
  return cat;
}

void BM_EnumeratePlans(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t top_k = static_cast<size_t>(state.range(1));
  Rng rng(1);
  query::Catalog cat = UniformCatalog(n, &rng);
  std::vector<StreamId> ids;
  for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<StreamId>(i));
  const query::QuerySpec spec =
      query::QuerySpec::SimpleJoin(ids, 0, 0.001);
  query::EnumerationOptions opts;
  opts.top_k = top_k;
  // One enumerator across iterations, as an optimizer keeps it: the timed
  // calls are warm, with the DP table already sized.
  query::PlanEnumerator enumerator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Enumerate(spec, cat, opts));
  }
  // The process's peak resident set so far (getrusage): run one size alone
  // (--benchmark_filter) to read that size's peak.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_EnumeratePlans)
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({6, 1})
    ->Args({6, 8})
    ->Args({8, 8})
    ->Args({10, 8})
    ->Args({12, 8})
    ->Unit(benchmark::kMicrosecond);

// A 200-node cost space of `dims` vector dims with uniform coordinates, and
// the top plan of a `producers`-stream join over it as a circuit.
struct PlaceFixture {
  coords::CostSpace space;
  overlay::Circuit circuit;
};

PlaceFixture MakePlaceFixture(size_t producers, size_t dims) {
  constexpr size_t kNodes = 200;
  Rng rng(2);
  coords::CostSpace space(coords::CostSpaceSpec::LatencyOnly(dims), kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    Vec c(dims);
    for (size_t d = 0; d < dims; ++d) c[d] = rng.Uniform(-100.0, 100.0);
    (void)space.SetVectorCoord(n, c);
  }
  query::Catalog cat;
  std::vector<StreamId> ids;
  for (size_t i = 0; i < producers; ++i) {
    ids.push_back(cat.AddStream(query::IndexedStreamName(i),
                                rng.Uniform(10, 500), 128.0,
                                static_cast<NodeId>(rng.UniformInt(kNodes))));
  }
  const query::QuerySpec spec = query::QuerySpec::SimpleJoin(ids, 0, 0.001);
  auto plans = query::EnumeratePlans(spec, cat, query::EnumerationOptions{});
  auto circuit = overlay::Circuit::FromPlan(std::move((*plans)[0]), cat);
  return PlaceFixture{std::move(space), std::move(circuit.value())};
}

// `Place` reseeds every placeable vertex at the pinned centroid, so placing
// the same circuit again repeats the same work without a copy.
void RunPlaceBench(benchmark::State& state,
                   const placement::VirtualPlacer& placer) {
  PlaceFixture f = MakePlaceFixture(static_cast<size_t>(state.range(0)),
                                    static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.Place(&f.circuit, f.space));
  }
}

void BM_RelaxationPlace(benchmark::State& state) {
  RunPlaceBench(state, placement::RelaxationPlacer());
}
void BM_GradientPlace(benchmark::State& state) {
  RunPlaceBench(state, placement::GradientPlacer());
}
// {producers, vector dims}: 2 and 3 dims run the unrolled sweep bodies,
// 11 the runtime-dims body (and heap-backed `Vec`s).
BENCHMARK(BM_RelaxationPlace)
    ->ArgsProduct({{3, 5, 8}, {2, 3, 11}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GradientPlace)
    ->ArgsProduct({{3, 5, 8}, {2, 3, 11}})
    ->Unit(benchmark::kMicrosecond);

void BM_MapCircuit(benchmark::State& state) {
  auto sbon = bench::MakeTransitStubSbon(
      static_cast<size_t>(state.range(0)), 12);
  Rng rng(3);
  query::Catalog cat;
  std::vector<StreamId> ids;
  for (size_t i = 0; i < 4; ++i) {
    ids.push_back(cat.AddStream(
        query::IndexedStreamName(i), rng.Uniform(10, 500), 128.0,
        sbon->overlay_nodes()[rng.UniformInt(sbon->overlay_nodes().size())]));
  }
  const query::QuerySpec spec = query::QuerySpec::SimpleJoin(
      ids, sbon->overlay_nodes()[0], 0.001);
  auto plans = query::EnumeratePlans(spec, cat, query::EnumerationOptions{});
  auto circuit = overlay::Circuit::FromPlan((*plans)[0], cat);
  placement::RelaxationPlacer placer;
  (void)placer.Place(&circuit.value(), sbon->cost_space());
  for (auto _ : state) {
    overlay::Circuit c = circuit.value();
    benchmark::DoNotOptimize(
        placement::MapCircuit(&c, *sbon, placement::MappingOptions{},
                              nullptr));
  }
}
BENCHMARK(BM_MapCircuit)->Arg(100)->Arg(600)->Unit(benchmark::kMicrosecond);

void RunOptimizerBench(benchmark::State& state, int which) {
  auto sbon = bench::MakeTransitStubSbon(200, 13);
  query::WorkloadParams wp;
  wp.num_streams = 16;
  wp.min_streams_per_query = 4;
  wp.max_streams_per_query = 4;
  query::Catalog cat =
      query::MakeRandomCatalog(wp, sbon->overlay_nodes(), &sbon->rng())
          .value();
  core::OptimizerConfig config;
  config.enumeration.top_k = 8;
  config.reuse_radius = 60.0;
  const auto placer = std::make_shared<placement::RelaxationPlacer>();
  auto& registry = engine::OptimizerRegistry::Global();
  auto two = std::move(registry.Create("two-step", config, placer).value());
  auto integrated =
      std::move(registry.Create("integrated", config, placer).value());
  auto multi =
      std::move(registry.Create("multi-query", config, placer).value());
  // Base circuits so multi-query has something to reuse.
  for (int i = 0; i < 10; ++i) {
    query::QuerySpec q =
        query::MakeRandomQuery(wp, cat, sbon->overlay_nodes(), &sbon->rng())
            .value();
    auto r = integrated->Optimize(q, cat, sbon.get());
    if (r.ok()) (void)sbon->InstallCircuit(std::move(r->circuit));
  }
  std::vector<query::QuerySpec> specs;
  for (int i = 0; i < 32; ++i) {
    specs.push_back(
        query::MakeRandomQuery(wp, cat, sbon->overlay_nodes(), &sbon->rng())
            .value());
  }
  size_t i = 0;
  for (auto _ : state) {
    const query::QuerySpec& q = specs[i & 31];
    switch (which) {
      case 0:
        benchmark::DoNotOptimize(two->Optimize(q, cat, sbon.get()));
        break;
      case 1:
        benchmark::DoNotOptimize(integrated->Optimize(q, cat, sbon.get()));
        break;
      case 2:
        benchmark::DoNotOptimize(multi->Optimize(q, cat, sbon.get()));
        break;
    }
    ++i;
  }
}

void BM_OptimizeTwoStep(benchmark::State& state) {
  RunOptimizerBench(state, 0);
}
void BM_OptimizeIntegrated(benchmark::State& state) {
  RunOptimizerBench(state, 1);
}
void BM_OptimizeMultiQuery(benchmark::State& state) {
  RunOptimizerBench(state, 2);
}
BENCHMARK(BM_OptimizeTwoStep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OptimizeIntegrated)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OptimizeMultiQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sbon
