// Dense-vs-sparse fabric equivalence at overlay scale: for 5 seeds at
// N in {64, 512}, a full engine bring-up plus maintenance epochs must end
// BIT-IDENTICAL across the dense-matrix and exact-row base modes — live
// latencies, Vivaldi coordinates, scalar penalties, and every placed circuit
// vertex. This is the contract that lets the sparse modes take over above
// the auto threshold without invalidating a single golden or determinism
// pin.
//
// The binary also audits the sparse modes' memory claim through a counting
// operator new: while the sparse overlay is built and driven, no single heap
// allocation may come anywhere near an N x N latency matrix (or an N(N+1)/2
// triangle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "net/generators.h"
#include "net/fabric.h"

namespace {
size_t g_max_alloc_size = 0;
}  // namespace

void* operator new(std::size_t size) {
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

namespace sbon::test {
namespace {

// Transit-stub topology of ~target nodes (the fixture presets only cover a
// few sizes; the suite pins N = 64 and 512 exactly as the issue specifies).
net::Topology TopoOfSize(size_t target, uint64_t seed) {
  net::TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 2;
  p.stub_domains_per_transit_node = 3;
  const size_t transit = p.transit_domains * p.transit_nodes_per_domain;
  p.nodes_per_stub_domain = std::max<size_t>(
      2, (target - transit) / (transit * p.stub_domains_per_transit_node));
  Rng rng(seed);
  auto topo = net::GenerateTransitStub(p, &rng);
  EXPECT_TRUE(topo.ok());
  return std::move(topo.value());
}

struct BackendRun {
  std::unique_ptr<engine::StreamEngine> eng;
  std::vector<engine::QueryHandle> handles;
};

BackendRun BuildRun(size_t target, uint64_t seed,
                    net::NetworkFabric::BaseMode mode) {
  engine::EngineOptions eo;
  eo.topology = TopoOfSize(target, seed);
  eo.sbon.seed = seed;
  eo.sbon.latency_jitter_sigma = 0.1;
  eo.sbon.fabric_mode = mode;
  eo.config = TestOptimizerConfig();
  BackendRun run;
  run.eng = engine::StreamEngine::Create(std::move(eo)).value();
  const overlay::Sbon& sbon = run.eng->sbon();
  const query::WorkloadParams wp = TestWorkloadParams();
  run.eng->SetCatalog(MakeCatalog(sbon, wp, seed * 3 + 1));
  const auto specs =
      MakeQueries(sbon, run.eng->catalog(), wp, 6, seed * 5 + 2);
  for (const auto& spec : specs) {
    auto h = run.eng->Submit(spec);
    if (h.ok()) run.handles.push_back(*h);
  }
  return run;
}

// Every upper-triangle live pair plus a strided sample of mirror reads
// (the full mirror sweep would thrash the sparse row cache for no extra
// coverage: mirrors resolve through the same source row by construction).
void ExpectLiveLatenciesEqual(const overlay::Sbon& dense,
                              const overlay::Sbon& sparse,
                              const char* where) {
  const size_t n = dense.topology().NumNodes();
  ASSERT_EQ(n, sparse.topology().NumNodes());
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a; b < n; ++b) {
      ASSERT_EQ(dense.latency().Latency(a, b), sparse.latency().Latency(a, b))
          << where << ": live (" << a << "," << b << ")";
    }
    const NodeId mirror_b = static_cast<NodeId>((a * 31 + 7) % n);
    ASSERT_EQ(dense.latency().Latency(a, mirror_b),
              sparse.latency().Latency(a, mirror_b))
        << where << ": mirror (" << a << "," << mirror_b << ")";
  }
}

void ExpectCoordsEqual(const overlay::Sbon& dense,
                       const overlay::Sbon& sparse, const char* where) {
  const auto& ds = dense.cost_space();
  const auto& ss = sparse.cost_space();
  ASSERT_EQ(ds.NumNodes(), ss.NumNodes());
  for (NodeId n = 0; n < ds.NumNodes(); ++n) {
    const Vec& dv = ds.VectorCoord(n);
    const Vec& sv = ss.VectorCoord(n);
    ASSERT_EQ(dv.dims(), sv.dims());
    for (size_t d = 0; d < dv.dims(); ++d) {
      ASSERT_EQ(dv[d], sv[d]) << where << ": coord " << n << " dim " << d;
    }
    ASSERT_EQ(ds.ScalarPenalty(n), ss.ScalarPenalty(n))
        << where << ": scalar " << n;
  }
}

void ExpectPlacementsEqual(const overlay::Sbon& dense,
                           const overlay::Sbon& sparse, const char* where) {
  const auto& dc = dense.ledger().circuits();
  const auto& sc = sparse.ledger().circuits();
  ASSERT_EQ(dc.size(), sc.size()) << where;
  auto it_d = dc.begin();
  auto it_s = sc.begin();
  for (; it_d != dc.end(); ++it_d, ++it_s) {
    ASSERT_EQ(it_d->first, it_s->first) << where << ": circuit ids";
    const auto& cd = it_d->second;
    const auto& cs = it_s->second;
    ASSERT_EQ(cd.NumVertices(), cs.NumVertices());
    for (size_t v = 0; v < cd.NumVertices(); ++v) {
      ASSERT_EQ(cd.vertex(static_cast<int>(v)).host,
                cs.vertex(static_cast<int>(v)).host)
          << where << ": circuit " << it_d->first << " vertex " << v;
    }
  }
}

TEST(FabricEquivalenceTest, BitIdenticalAcrossBackendsSeedsAndSizes) {
  for (const size_t target : {size_t{64}, size_t{512}}) {
    for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      // Sparse first, under the allocation watermark: bring-up, catalog,
      // and placement of the sparse overlay must never touch an O(N^2)
      // buffer.
      g_max_alloc_size = 0;
      BackendRun sparse =
          BuildRun(target, seed, net::NetworkFabric::BaseMode::kSparse);
      const size_t sparse_build_max = g_max_alloc_size;
      BackendRun dense =
          BuildRun(target, seed, net::NetworkFabric::BaseMode::kDense);
      const overlay::Sbon& ds = dense.eng->sbon();
      const overlay::Sbon& ss = sparse.eng->sbon();
      ASSERT_STREQ(ds.fabric().name(), "dense");
      ASSERT_STREQ(ss.fabric().name(), "sparse");
      ASSERT_EQ(dense.handles.size(), sparse.handles.size());

      ExpectLiveLatenciesEqual(ds, ss, "post-bring-up");
      ExpectCoordsEqual(ds, ss, "post-bring-up");
      ExpectPlacementsEqual(ds, ss, "post-bring-up");

      engine::EpochOptions epoch;
      epoch.dt = 1.0;
      epoch.tick_network = true;
      epoch.vivaldi_samples = 1;
      epoch.refresh_index = true;
      epoch.refresh_epsilon = 1.0;
      g_max_alloc_size = 0;
      for (int e = 0; e < 3; ++e) {
        dense.eng->AdvanceEpoch(epoch);
        sparse.eng->AdvanceEpoch(epoch);
        ExpectLiveLatenciesEqual(ds, ss, "epoch");
        ExpectCoordsEqual(ds, ss, "epoch");
      }
      ExpectPlacementsEqual(ds, ss, "post-epochs");
      const size_t epochs_max = g_max_alloc_size;

      // The flat-memory claim, asserted where quadratic buffers are
      // unambiguously larger than any legitimate O(N) array.
      const size_t n = ss.topology().NumNodes();
      if (n >= 256) {
        const size_t triangle_bytes = n * (n + 1) / 2 * sizeof(double);
        EXPECT_LT(sparse_build_max, triangle_bytes)
            << "sparse bring-up allocated a dense-sized buffer at N=" << n;
        EXPECT_LT(epochs_max, triangle_bytes)
            << "epoch loop allocated a dense-sized buffer at N=" << n;
      }
    }
  }
}

// The pinned dead-endpoint semantic, identical across base modes: while an
// endpoint is down, every live() read involving it (self-pair included) is
// +infinity — never stale-finite, never NaN — base() stays pristine, the
// sentinel survives jitter ticks and partitions, and a revived node's row
// is bit-identical to never having crashed.
TEST(FabricEquivalenceTest, DeadEndpointLatencyIsInfiniteAcrossBackends) {
  for (const auto mode : {net::NetworkFabric::BaseMode::kDense,
                          net::NetworkFabric::BaseMode::kSparse}) {
    overlay::Sbon::Options opts;
    opts.fabric_mode = mode;
    opts.latency_jitter_sigma = 0.1;
    auto sbon = MakeTransitStubSbon(TopologySize::kTiny, 11, opts);
    const char* where = sbon->fabric().name();
    const size_t n = sbon->topology().NumNodes();
    const NodeId victim = sbon->overlay_nodes()[2];

    // Reference row captured from an untouched twin driven through the
    // same epoch schedule: crash + rejoin must be invisible afterwards.
    auto twin = MakeTransitStubSbon(TopologySize::kTiny, 11, opts);

    ASSERT_TRUE(sbon->FailNode(victim).ok());
    EXPECT_TRUE(sbon->fabric().EndpointDown(victim));
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_TRUE(std::isinf(sbon->latency().Latency(victim, b)))
          << where << ": live (" << victim << "," << b << ") not +inf";
      EXPECT_TRUE(std::isinf(sbon->latency().Latency(b, victim)))
          << where << ": live (" << b << "," << victim << ") not +inf";
      EXPECT_FALSE(std::isnan(sbon->latency().Latency(victim, b)));
      // The pristine view answers "what would the healed network look
      // like" and must stay finite.
      EXPECT_TRUE(std::isfinite(sbon->base_latency().Latency(victim, b)))
          << where << ": base (" << victim << "," << b << ") poisoned";
    }

    // The sentinel must survive a jitter tick (a new epoch seed) and an
    // active partition on top.
    sbon->TickNetwork();
    twin->TickNetwork();
    EXPECT_TRUE(std::isinf(sbon->latency().Latency(victim, 0)))
        << where << ": tick restored a dead endpoint's latency";
    std::vector<NodeId> group(sbon->overlay_nodes().begin(),
                              sbon->overlay_nodes().begin() + 4);
    ASSERT_TRUE(sbon->BeginPartition(group, 8.0).ok());
    ASSERT_TRUE(twin->BeginPartition(group, 8.0).ok());
    EXPECT_TRUE(std::isinf(sbon->latency().Latency(victim, 0)));
    ASSERT_TRUE(sbon->EndPartition().ok());
    ASSERT_TRUE(twin->EndPartition().ok());
    EXPECT_TRUE(std::isinf(sbon->latency().Latency(victim, 0)));

    // Revival restores the row bit-identically to the never-crashed twin.
    ASSERT_TRUE(sbon->RejoinNode(victim).ok());
    EXPECT_FALSE(sbon->fabric().EndpointDown(victim));
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(sbon->latency().Latency(victim, b),
                twin->latency().Latency(victim, b))
          << where << ": revived row differs from never-crashed at b=" << b;
      ASSERT_EQ(sbon->latency().Latency(b, victim),
                twin->latency().Latency(b, victim))
          << where << ": revived column differs at b=" << b;
    }
  }
}

// A small overlay keeps the dense matrix under the auto mode, and the
// sparse modes refuse the centralized MDS ablation (it would rebuild the
// dense matrix read by read). The size bounds themselves are pinned by
// SparseFabricTest.ResolveAppliesSizeBounds.
TEST(FabricEquivalenceTest, AutoSelectionAndModeGuards) {
  auto dense_auto = MakeTransitStubSbon(TopologySize::kTiny, 3);
  EXPECT_STREQ(dense_auto->fabric().name(), "dense");

  overlay::Sbon::Options bad;
  bad.fabric_mode = net::NetworkFabric::BaseMode::kSparse;
  bad.coord_mode = coords::CoordMode::kMds;
  auto status = overlay::Sbon::Create(
      MakeTransitStubTopology(TopologySize::kTiny, 3), bad);
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sbon::test
