// SIMD/scalar equivalence pins: the SoA batched kernels (CoordBlock lane
// sweeps, the Vivaldi raw-pointer update, batched cost evaluation) must be
// bit-identical — not approximately equal — to the per-Vec scalar
// implementations they replaced. Each property runs over five fixed seeds,
// and the suite runs in both SIMD and scalar-fallback builds (the CI
// scalar lane configures -DSBON_SIMD=OFF), so a vectorization change that
// reorders a single FP operation fails here before it reaches the goldens.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/coord_block.h"
#include "common/rng.h"
#include "common/vec.h"
#include "coords/cost_space.h"
#include "coords/vivaldi.h"
#include "dht/coord_index.h"
#include "dht/hilbert.h"
#include "harness/fixtures.h"

namespace sbon {
namespace {

constexpr uint64_t kSeeds[] = {1, 42, 9001, 31337, 777};

// ------------------------- Vivaldi reference ------------------------------

// The pre-SoA spring update, verbatim: value-Vec diff / Norm / Unit /
// AddScaled against per-node Vec storage.
struct VivaldiReference {
  std::vector<Vec> coords;
  std::vector<double> error;

  VivaldiReference(size_t num_nodes, const coords::VivaldiSystem::Params& p,
                   Rng* rng)
      : coords(num_nodes, Vec(p.dims)),
        error(num_nodes, coords::VivaldiSystem::kInitialError) {
    for (auto& c : coords) {
      for (size_t d = 0; d < c.dims(); ++d) c[d] = rng->Uniform(-0.1, 0.1);
    }
  }

  void UpdateAgainst(NodeId self, NodeId peer, const Vec& peer_coord,
                     double peer_error, double measured_rtt_ms) {
    const double rtt =
        std::max(measured_rtt_ms, coords::VivaldiSystem::kMinRttMs);
    Vec diff = coords[self];
    diff -= peer_coord;
    const double dist = diff.Norm();
    const double w_self = error[self];
    const double w = (w_self + peer_error) > 0.0
                         ? w_self / (w_self + peer_error)
                         : 0.5;
    const double es = std::abs(dist - rtt) / rtt;
    constexpr double kCe = coords::VivaldiSystem::kCe;
    error[self] = es * kCe * w + error[self] * (1.0 - kCe * w);
    error[self] = std::clamp(error[self], 0.0, 10.0);
    const double delta = coords::VivaldiSystem::kCc * w;
    const Vec dir = diff.Unit(static_cast<uint64_t>(self) * 1000003u + peer);
    coords[self].AddScaled(dir, delta * (rtt - dist));
  }

  void Update(NodeId self, NodeId peer, double measured_rtt_ms) {
    UpdateAgainst(self, peer, coords[peer], error[peer], measured_rtt_ms);
  }
};

void ExpectVivaldiEqual(const coords::VivaldiSystem& sys,
                        const VivaldiReference& ref) {
  for (NodeId n = 0; n < ref.coords.size(); ++n) {
    ASSERT_EQ(sys.LocalError(n), ref.error[n]) << "error of node " << n;
    const Vec c = sys.Coord(n);
    ASSERT_EQ(c.dims(), ref.coords[n].dims());
    for (size_t d = 0; d < c.dims(); ++d) {
      ASSERT_EQ(c[d], ref.coords[n][d])
          << "coord of node " << n << " dim " << d;
    }
  }
}

void RunVivaldiEquivalence(size_t dims, uint64_t seed) {
  constexpr size_t kNodes = 48;
  coords::VivaldiSystem::Params params;
  params.dims = dims;
  Rng prod_rng(seed), ref_rng(seed);
  coords::VivaldiSystem sys(kNodes, params, &prod_rng);
  VivaldiReference ref(kNodes, params, &ref_rng);
  ExpectVivaldiEqual(sys, ref);  // identical seeded initialization

  Rng sched(seed * 31 + 7);
  for (size_t i = 0; i < 3000; ++i) {
    const NodeId self = static_cast<NodeId>(sched.UniformInt(kNodes));
    NodeId peer = static_cast<NodeId>(sched.UniformInt(kNodes));
    if (peer == self) peer = (peer + 1) % kNodes;
    const double rtt = sched.Uniform(0.5, 80.0);
    if (i % 3 == 0) {
      // Remote-sample path: update against an arbitrary carried coordinate
      // (what message-mode pongs deliver), including zero-distance pairs
      // that exercise the deterministic tiebreak direction.
      Vec pc(dims);
      if (i % 9 == 0) {
        pc = ref.coords[self];  // forces the dist <= 1e-12 tiebreak branch
      } else {
        for (size_t d = 0; d < dims; ++d) pc[d] = sched.Uniform(-5.0, 5.0);
      }
      const double pe = sched.Uniform(0.0, 2.0);
      sys.UpdateAgainst(self, peer, pc, pe, rtt);
      ref.UpdateAgainst(self, peer, pc, pe, rtt);
    } else {
      sys.Update(self, peer, rtt);
      ref.Update(self, peer, rtt);
    }
  }
  ExpectVivaldiEqual(sys, ref);
}

TEST(SimdEquivalenceTest, VivaldiUpdateMatchesScalarReference) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    RunVivaldiEquivalence(/*dims=*/3, seed);
  }
}

TEST(SimdEquivalenceTest, VivaldiHeapSpillDimsMatchScalarReference) {
  // dims = 12 > Vec::kInlineDims: the update kernel's scratch takes the
  // heap-spill path and must still replicate the Vec math bit for bit.
  static_assert(12 > Vec::kInlineDims);
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    RunVivaldiEquivalence(/*dims=*/12, seed);
  }
}

// --------------------------- Index reference ------------------------------

// A published node and its distance to the query target; pairs sort by
// distance, node id breaking ties — the index's selection order.
using Ranked = std::pair<double, NodeId>;

std::vector<NodeId> NodesOf(const std::vector<Ranked>& ranked) {
  std::vector<NodeId> out;
  for (const Ranked& r : ranked) out.push_back(r.second);
  return out;
}

struct IndexFixture {
  dht::CoordinateIndex index;
  std::vector<Vec> mirror;  // AoS copy of the published coordinates

  explicit IndexFixture(uint64_t seed, size_t num_nodes = 160,
                        size_t dims = 4)
      : index(MakeQuantizer(seed, num_nodes, dims)) {
    Rng rng(seed);
    mirror.resize(num_nodes, Vec(dims));
    for (NodeId n = 0; n < num_nodes; ++n) {
      for (size_t d = 0; d < dims; ++d) {
        mirror[n][d] = rng.Uniform(-50.0, 50.0);
      }
      index.Publish(n, mirror[n]);
    }
  }

  static dht::HilbertQuantizer MakeQuantizer(uint64_t seed, size_t num_nodes,
                                             size_t dims) {
    Rng rng(seed);  // same stream: the box covers the published points
    std::vector<Vec> pts(num_nodes, Vec(dims));
    for (auto& p : pts) {
      for (size_t d = 0; d < dims; ++d) p[d] = rng.Uniform(-50.0, 50.0);
    }
    return dht::HilbertQuantizer::FitTo(pts, /*bits=*/10);
  }

  // The pre-SoA exact scan: one Vec distance per published node, selection
  // by nth_element on (distance, node) pairs.
  std::vector<NodeId> RefExact(const Vec& target, size_t k) const {
    std::vector<Ranked> out;
    for (NodeId n = 0; n < mirror.size(); ++n) {
      out.emplace_back(mirror[n].DistanceTo(target), n);
    }
    if (out.size() > k) {
      std::nth_element(out.begin(), out.begin() + k, out.end());
      out.resize(k);
    }
    std::sort(out.begin(), out.end());
    return NodesOf(out);
  }

  // The pre-SoA probed walk: identical interleaved ring walk, per-member
  // Vec distance, full sort + truncate.
  std::vector<NodeId> RefProbed(const Vec& target, size_t k,
                                size_t probe_width) const {
    std::vector<Ranked> out;
    const auto& members = index.ring().members();
    auto lookup = index.ring().Lookup(index.quantizer().Key(target));
    if (!lookup.ok()) return {};
    const size_t start = lookup->member_index;
    const size_t n = members.size();
    const size_t total = std::min(2 * std::min(probe_width, n) + 1, n);
    auto consider = [&](size_t i) {
      const NodeId node = members[i % n].node;
      out.emplace_back(mirror[node].DistanceTo(target), node);
    };
    consider(start);
    for (size_t i = 1; out.size() < total; ++i) {
      consider(start + i);
      if (out.size() >= total) break;
      consider(start + n - (i % n));
    }
    std::sort(out.begin(), out.end());
    if (out.size() > k) out.resize(k);
    return NodesOf(out);
  }
};

TEST(SimdEquivalenceTest, KNearestExactMatchesScalarReference) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    IndexFixture fx(seed);
    Rng rng(seed + 99);
    std::vector<NodeId> got;
    for (size_t q = 0; q < 32; ++q) {
      Vec target(4);
      for (size_t d = 0; d < 4; ++d) target[d] = rng.Uniform(-60.0, 60.0);
      const size_t k = 1 + rng.UniformInt(12);
      fx.index.KNearestExactInto(target, k, &got);
      ASSERT_EQ(got, fx.RefExact(target, k));
    }
  }
}

TEST(SimdEquivalenceTest, KNearestProbedWalkMatchesScalarReference) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    IndexFixture fx(seed);
    Rng rng(seed + 7);
    std::vector<NodeId> got;
    dht::IndexQueryCost cost;
    for (size_t q = 0; q < 32; ++q) {
      Vec target(4);
      for (size_t d = 0; d < 4; ++d) target[d] = rng.Uniform(-60.0, 60.0);
      const size_t k = 1 + rng.UniformInt(8);
      const size_t width = 4 + rng.UniformInt(16);
      ASSERT_TRUE(
          fx.index.KNearestNodesInto(target, k, width, &cost, &got).ok());
      ASSERT_EQ(got, fx.RefProbed(target, k, width));
    }
  }
}

// ------------------------- Cost-space reference ---------------------------

TEST(SimdEquivalenceTest, BatchedCostEvalMatchesScalarReference) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    constexpr size_t kNodes = 180;
    coords::CostSpace space(coords::CostSpaceSpec::LatencyAndLoad(), kNodes);
    const size_t vdims = space.spec().vector_dims();
    const size_t sdims = space.spec().num_scalar_dims();
    Rng rng(seed);
    std::vector<Vec> vmirror(kNodes, Vec(vdims));
    std::vector<std::vector<double>> wmirror(
        sdims, std::vector<double>(kNodes));
    for (NodeId n = 0; n < kNodes; ++n) {
      for (size_t d = 0; d < vdims; ++d) {
        vmirror[n][d] = rng.Uniform(-40.0, 40.0);
      }
      ASSERT_TRUE(space.SetVectorCoord(n, vmirror[n]).ok());
      for (size_t i = 0; i < sdims; ++i) {
        const double raw = rng.Uniform(0.0, 1.5);
        ASSERT_TRUE(space.SetScalarMetric(n, i, raw).ok());
        wmirror[i][n] = space.spec().scalar_dim(i).weighting->Apply(raw);
        // Write-time weighted cache == compute-on-read.
        ASSERT_EQ(space.WeightedScalar(n, i), wmirror[i][n]);
      }
    }

    // Candidate subset in randomized order (the gather-kernel path).
    std::vector<NodeId> cands;
    for (NodeId n = 0; n < kNodes; ++n) {
      if (rng.UniformInt(3) != 0) cands.push_back(n);
    }
    std::vector<double> vec_d(cands.size());
    for (size_t q = 0; q < 16; ++q) {
      Vec point(vdims);
      for (size_t d = 0; d < vdims; ++d) point[d] = rng.Uniform(-50.0, 50.0);
      space.VectorDistancesToMany(point, cands.data(), cands.size(),
                                  vec_d.data());
      for (size_t j = 0; j < cands.size(); ++j) {
        const NodeId n = cands[j];
        ASSERT_EQ(vec_d[j], vmirror[n].DistanceTo(point)) << "cand " << j;
      }
    }

    // FullCoordsInto lanes == FullCoord Vecs, slot-shifted.
    CoordBlock block(space.spec().total_dims(), kNodes);
    space.FullCoordsInto(cands.data(), cands.size(), &block);
    for (size_t j = 0; j < cands.size(); ++j) {
      const Vec full = space.FullCoord(cands[j]);
      for (size_t d = 0; d < full.dims(); ++d) {
        ASSERT_EQ(block.At(d, j), full[d]) << "cand " << j << " dim " << d;
      }
    }
  }
}

}  // namespace
}  // namespace sbon
