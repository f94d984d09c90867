// net::NetworkFabric's read-time latency semantics. Jitter, the partition
// penalty and the dead-endpoint rule are derived on every live read, so a
// test-local *materialized reference* — an n x n live matrix rewritten on
// every transition, the straightforward rewrite-based implementation —
// pins what those reads must return. Both the dense-matrix and the
// exact-row (sparse) base modes are compared against it bitwise over every
// pair and every state the substrate can be in (pristine, jittered epochs,
// partitions, crash and rejoin, the end-partition-without-tick edge). Also
// covered: the cross-mode Rng draw contract, the sketch estimator's
// guarantees, value-invariance of the caches, and the read counters.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/fixtures.h"
#include "net/dynamics.h"
#include "net/fabric.h"
#include "net/shortest_path.h"

namespace sbon::test {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
using BaseMode = net::NetworkFabric::BaseMode;

net::Topology TinyTopo(uint64_t seed) {
  return MakeTransitStubTopology(TopologySize::kTiny, seed);
}

net::NetworkFabric::Options ModeOptions(BaseMode mode) {
  net::NetworkFabric::Options o;
  o.base_mode = mode;
  return o;
}

/// The latency state machine as a materialized live matrix, rebuilt in full
/// on every transition:
///  - before the first tick, live is a plain copy of base (entry (a, b)
///    holds base row `a`);
///  - once jittered, both mirrors of a pair hold the upper-triangle base
///    entry times JitterFactorAt over JitterPairIndex(min, max); the
///    diagonal passes through unjittered;
///  - cross-cut entries are multiplied by the partition factor;
///  - every row and column of a down endpoint, self-pair included, is +inf;
///  - EndPartition re-stamps the current factors without a draw, so on a
///    never-ticked jittered overlay it applies the construction epoch.
class MaterializedReference {
 public:
  MaterializedReference(const net::Topology& topo, double sigma, Rng* rng)
      : n_(topo.NumNodes()),
        sigma_(sigma),
        base_(topo),
        live_(n_ * n_),
        cut_(n_, false),
        down_(n_, false) {
    if (sigma_ > 0.0) seed_ = rng->Next();
    Rebuild();
  }

  void Tick(Rng* rng) {
    if (sigma_ <= 0.0) return;
    seed_ = rng->Next();
    jittered_ = true;
    Rebuild();
  }
  void BeginPartition(const std::vector<NodeId>& group, double factor) {
    cut_.assign(n_, false);
    for (NodeId g : group) cut_[g] = true;
    partitioned_ = true;
    factor_ = factor;
    Rebuild();
  }
  void EndPartition() {
    partitioned_ = false;
    if (sigma_ > 0.0) jittered_ = true;
    Rebuild();
  }
  void SetDown(NodeId node, bool down) {
    down_[node] = down;
    Rebuild();
  }

  size_t NumNodes() const { return n_; }
  double live(NodeId a, NodeId b) const { return live_[a * n_ + b]; }
  double base(NodeId a, NodeId b) const { return base_.Latency(a, b); }

 private:
  void Rebuild() {
    for (NodeId a = 0; a < n_; ++a) {
      live_[a * n_ + a] = base_.Latency(a, a);
      for (NodeId b = 0; b < n_; ++b) {
        if (b == a) continue;
        if (!jittered_) {
          live_[a * n_ + b] = base_.Latency(a, b);
        } else if (a < b) {
          const double v =
              base_.Latency(a, b) *
              net::JitterFactorAt(seed_, sigma_, net::JitterPairIndex(a, b, n_));
          live_[a * n_ + b] = v;
          live_[b * n_ + a] = v;
        }
      }
    }
    for (NodeId a = 0; a < n_; ++a) {
      for (NodeId b = 0; b < n_; ++b) {
        if (partitioned_ && cut_[a] != cut_[b]) live_[a * n_ + b] *= factor_;
        if (down_[a] || down_[b]) live_[a * n_ + b] = kInf;
      }
    }
  }

  size_t n_;
  double sigma_;
  net::LatencyMatrix base_;
  std::vector<double> live_;
  uint64_t seed_ = 0;
  bool jittered_ = false;
  bool partitioned_ = false;
  double factor_ = 1.0;
  std::vector<bool> cut_;
  std::vector<bool> down_;
};

// Bitwise over every pair of both views: EXPECT_EQ on doubles is exact
// equality (+inf == +inf), so one differing ulp anywhere fails.
void ExpectMatchesReference(const MaterializedReference& ref,
                            const net::NetworkFabric& fabric,
                            const std::string& where) {
  ASSERT_EQ(ref.NumNodes(), fabric.NumNodes());
  const size_t n = ref.NumNodes();
  size_t mismatches = 0;
  std::string first;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      const double live = fabric.live().Latency(a, b);
      const double base = fabric.base().Latency(a, b);
      if (live == ref.live(a, b) && base == ref.base(a, b)) continue;
      if (mismatches++ == 0) {
        first = "(";
        first += std::to_string(a);
        first += ",";
        first += std::to_string(b);
        first += ") live ";
        first += std::to_string(live);
        first += " vs ";
        first += std::to_string(ref.live(a, b));
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << where << " [" << fabric.name()
                            << "]: first mismatch " << first;
}

/// One reference and the two exact base modes, each on its own Rng with the
/// same seed, driven through identical transitions.
struct Trio {
  Trio(const net::Topology& topo, double sigma, uint64_t seed)
      : r_ref(seed),
        r_dense(seed),
        r_exact(seed),
        ref(topo, sigma, &r_ref),
        dense(topo, sigma, &r_dense, ModeOptions(BaseMode::kDense)),
        exact(topo, sigma, &r_exact, ModeOptions(BaseMode::kExact)) {}

  void Tick() {
    ref.Tick(&r_ref);
    dense.TickNetwork(&r_dense);
    exact.TickNetwork(&r_exact);
  }
  void BeginPartition(const std::vector<NodeId>& group, double factor) {
    ref.BeginPartition(group, factor);
    ASSERT_TRUE(dense.BeginPartition(group, factor).ok());
    ASSERT_TRUE(exact.BeginPartition(group, factor).ok());
  }
  void EndPartition() {
    ref.EndPartition();
    ASSERT_TRUE(dense.EndPartition().ok());
    ASSERT_TRUE(exact.EndPartition().ok());
  }
  void SetDown(NodeId node, bool down) {
    ref.SetDown(node, down);
    dense.SetEndpointDown(node, down);
    exact.SetEndpointDown(node, down);
  }
  void Expect(const std::string& where) {
    ExpectMatchesReference(ref, dense, where);
    ExpectMatchesReference(ref, exact, where);
  }

  Rng r_ref, r_dense, r_exact;
  MaterializedReference ref;
  net::NetworkFabric dense;
  net::NetworkFabric exact;
};

// The one resolver of base modes, on both sides of each size bound: auto
// keeps the dense matrix up to 4096 nodes and runs the sparse rule above;
// sparse reads exact rows up to 2048 nodes and the sketch above. Modes that
// name a provider resolve to themselves at every size.
TEST(SparseFabricTest, ResolveAppliesSizeBounds) {
  using net::NetworkFabric;
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kAuto, 2048), BaseMode::kDense);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kAuto, 2049), BaseMode::kDense);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kAuto, 4096), BaseMode::kDense);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kAuto, 4097), BaseMode::kSketch);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kSparse, 2048), BaseMode::kExact);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kSparse, 2049),
            BaseMode::kSketch);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kSparse, 4096),
            BaseMode::kSketch);
  EXPECT_EQ(NetworkFabric::Resolve(BaseMode::kSparse, 4097),
            BaseMode::kSketch);
  for (const BaseMode mode :
       {BaseMode::kDense, BaseMode::kExact, BaseMode::kSketch}) {
    for (const size_t n : {size_t{1}, size_t{2049}, size_t{4097}}) {
      EXPECT_EQ(NetworkFabric::Resolve(mode, n), mode) << n;
    }
  }
}

TEST(SparseFabricTest, PristineViewsMatchDenseBitwise) {
  Trio t(TinyTopo(3), 0.0, 11);
  EXPECT_STREQ(t.dense.name(), "dense");
  EXPECT_STREQ(t.exact.name(), "sparse");
  EXPECT_EQ(t.dense.base_mode(), BaseMode::kDense);
  EXPECT_EQ(t.exact.base_mode(), BaseMode::kExact);
  EXPECT_FALSE(t.exact.has_jitter());
  t.Expect("pristine");
  t.Tick();  // jitter-free: a no-op
  t.Expect("jitter-free tick");
}

TEST(SparseFabricTest, JitteredEpochsMatchDenseBitwise) {
  Trio t(TinyTopo(5), 0.15, 99);
  EXPECT_TRUE(t.dense.has_jitter());
  t.Expect("pre-tick");  // live == base until the first tick
  for (int epoch = 0; epoch < 3; ++epoch) {
    t.Tick();
    t.Expect("epoch " + std::to_string(epoch));
  }
}

// The full lifecycle: pristine -> 3 ticks -> partition -> tick under the
// cut -> crash -> tick while down -> rejoin -> heal, every pair of every
// state checked against the materialized reference.
TEST(SparseFabricTest, PartitionLifecycleMatchesDenseBitwise) {
  Trio t(TinyTopo(7), 0.1, 21);
  t.Expect("pristine");
  for (int epoch = 0; epoch < 3; ++epoch) {
    t.Tick();
    t.Expect("epoch " + std::to_string(epoch));
  }
  const std::vector<NodeId> group = {0, 1, 2, 5};
  t.BeginPartition(group, 8.0);
  EXPECT_TRUE(t.exact.partition_active());
  EXPECT_TRUE(t.dense.CrossesPartition(0, 3));
  EXPECT_FALSE(t.dense.CrossesPartition(0, 1));
  t.Expect("partitioned");
  t.Tick();  // the penalty composes with the fresh factors
  t.Expect("partitioned+ticked");

  const NodeId victim = 2;  // inside the cut: inf must absorb the penalty
  t.SetDown(victim, true);
  EXPECT_TRUE(t.dense.EndpointDown(victim));
  EXPECT_EQ(t.dense.live().Latency(victim, victim), kInf);
  t.Expect("crashed");
  t.Tick();
  t.Expect("crashed+ticked");
  t.SetDown(victim, false);
  t.Expect("rejoined");

  t.EndPartition();
  EXPECT_FALSE(t.exact.partition_active());
  t.Expect("healed");
}

// EndPartition re-applies the *current* jitter epoch, so on an overlay whose
// network was never ticked it applies the construction-epoch factors for the
// first time — live != base afterwards, in every base mode.
TEST(SparseFabricTest, EndPartitionWithoutTickMatchesDenseBitwise) {
  Trio t(TinyTopo(9), 0.2, 5);
  t.BeginPartition({1, 3}, 4.0);
  t.Expect("partitioned pre-tick");
  t.EndPartition();
  t.Expect("end-without-tick");
  bool any_jittered = false;
  const size_t n = t.dense.NumNodes();
  for (NodeId a = 0; a < n && !any_jittered; ++a) {
    for (NodeId b = a + 1; b < n && !any_jittered; ++b) {
      any_jittered =
          t.dense.live().Latency(a, b) != t.dense.base().Latency(a, b);
    }
  }
  EXPECT_TRUE(any_jittered);
}

// The cross-mode draw contract: exactly one draw at construction iff
// sigma > 0, exactly one per TickNetwork iff jitter exists, none anywhere
// else — so a shared caller Rng stays stream-aligned whichever base mode
// the fabric resolves.
TEST(SparseFabricTest, RngDrawCountsMatchDense) {
  const net::Topology topo = TinyTopo(13);
  for (const double sigma : {0.0, 0.1}) {
    for (const BaseMode mode : {BaseMode::kExact, BaseMode::kSketch}) {
      Rng rd(77), rs(77);
      net::NetworkFabric dense(topo, sigma, &rd, ModeOptions(BaseMode::kDense));
      net::NetworkFabric other(topo, sigma, &rs, ModeOptions(mode));
      EXPECT_EQ(rd.Next(), rs.Next()) << "construction drift, sigma=" << sigma;
      dense.TickNetwork(&rd);
      other.TickNetwork(&rs);
      const std::vector<NodeId> group = {0, 2};
      ASSERT_TRUE(dense.BeginPartition(group, 2.0).ok());
      ASSERT_TRUE(other.BeginPartition(group, 2.0).ok());
      dense.SetEndpointDown(1, true);
      other.SetEndpointDown(1, true);
      ASSERT_TRUE(dense.EndPartition().ok());
      ASSERT_TRUE(other.EndPartition().ok());
      EXPECT_EQ(rd.Next(), rs.Next()) << "lifecycle drift, sigma=" << sigma;
    }
  }
}

TEST(SparseFabricTest, PartitionValidationMatchesDense) {
  const net::Topology topo = TinyTopo(17);
  for (const BaseMode mode : {BaseMode::kDense, BaseMode::kExact}) {
    Rng rng(1);
    net::NetworkFabric fabric(topo, 0.0, &rng, ModeOptions(mode));
    EXPECT_EQ(fabric.EndPartition().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(fabric.BeginPartition({}, 2.0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(fabric.BeginPartition({0}, 0.5).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(fabric
                  .BeginPartition({static_cast<NodeId>(topo.NumNodes())}, 2.0)
                  .code(),
              StatusCode::kOutOfRange);
    ASSERT_TRUE(fabric.BeginPartition({0, 1}, 2.0).ok());
    EXPECT_EQ(fabric.BeginPartition({2}, 2.0).code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE(fabric.EndPartition().ok());
  }
}

TEST(SparseFabricTest, SketchIsSymmetricZeroDiagonalUpperBound) {
  const net::Topology topo = TinyTopo(23);
  net::NetworkFabric::Options opts = ModeOptions(BaseMode::kSketch);
  opts.num_landmarks = 8;
  Rng rs(4);
  net::NetworkFabric sketch(topo, 0.0, &rs, opts);
  const net::LatencyMatrix exact(topo);
  EXPECT_EQ(sketch.base_mode(), BaseMode::kSketch);
  EXPECT_EQ(sketch.num_landmarks(), 8u);
  const size_t n = topo.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(sketch.base().Latency(a, a), 0.0);
    for (NodeId b = a + 1; b < n; ++b) {
      const double est = sketch.base().Latency(a, b);
      EXPECT_EQ(est, sketch.base().Latency(b, a)) << "asymmetric sketch";
      // Triangle inequality: the landmark detour can only overestimate.
      EXPECT_GE(est, exact.Latency(a, b) - 1e-9)
          << "sketch undercut the true shortest path at (" << a << "," << b
          << ")";
    }
  }
}

// The caches are pure memoization: reads in any order, under any (tiny)
// cache geometry, return exactly what the dense matrix holds. The read
// counters are exact: every live read counts once in every mode, and dense
// reads never touch the on-demand caches.
TEST(SparseFabricTest, CachesNeverChangeValues) {
  const net::Topology topo = TinyTopo(29);
  net::NetworkFabric::Options opts = ModeOptions(BaseMode::kExact);
  opts.neighbor_cache_slots = 1;  // maximal eviction pressure
  opts.row_cache_rows = 1;
  Rng rd(8), rs(8);
  net::NetworkFabric dense(topo, 0.1, &rd, ModeOptions(BaseMode::kDense));
  net::NetworkFabric sparse(topo, 0.1, &rs, opts);
  dense.TickNetwork(&rd);
  sparse.TickNetwork(&rs);
  const size_t n = topo.NumNodes();
  // Adversarial access order: stride through pairs to churn both caches,
  // reading each pair twice (cold, then possibly cached).
  size_t reads = 0;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n * n; i += 7) {
      const NodeId a = static_cast<NodeId>(i / n);
      const NodeId b = static_cast<NodeId>(i % n);
      EXPECT_EQ(sparse.live().Latency(a, b), dense.live().Latency(a, b));
      EXPECT_EQ(sparse.live().Latency(b, a), dense.live().Latency(b, a));
      reads += 2;
    }
  }
  const net::NetworkFabric::ReadStats& stats = sparse.read_stats();
  EXPECT_EQ(stats.live_reads, reads);
  EXPECT_GT(stats.base_reads, 0u);
  EXPECT_GT(stats.row_builds, 0u);
  const net::NetworkFabric::ReadStats& dense_stats = dense.read_stats();
  EXPECT_EQ(dense_stats.live_reads, reads);
  EXPECT_EQ(dense_stats.base_reads, 0u);
  EXPECT_EQ(dense_stats.neighbor_hits + dense_stats.row_hits +
                dense_stats.row_builds,
            0u);
}

// Mean/Max run the generic O(n^2) LatencyView walk in the dense matrix's
// loop order, so even the fp accumulation matches across modes.
TEST(SparseFabricTest, MeanAndMaxMatchDense) {
  const net::Topology topo = TinyTopo(31);
  Rng rd(6), rs(6);
  net::NetworkFabric dense(topo, 0.1, &rd, ModeOptions(BaseMode::kDense));
  net::NetworkFabric sparse(topo, 0.1, &rs, ModeOptions(BaseMode::kExact));
  dense.TickNetwork(&rd);
  sparse.TickNetwork(&rs);
  EXPECT_EQ(dense.live().MeanLatency(), sparse.live().MeanLatency());
  EXPECT_EQ(dense.live().MaxLatency(), sparse.live().MaxLatency());
  EXPECT_EQ(dense.base().MeanLatency(), sparse.base().MeanLatency());
}

}  // namespace
}  // namespace sbon::test
