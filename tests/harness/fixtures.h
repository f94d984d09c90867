#ifndef SBON_TESTS_HARNESS_FIXTURES_H_
#define SBON_TESTS_HARNESS_FIXTURES_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/optimizer.h"
#include "net/generators.h"
#include "overlay/sbon.h"
#include "placement/virtual_placement.h"
#include "query/catalog.h"
#include "query/query_spec.h"
#include "query/workload.h"

namespace sbon::test {

/// Sizing presets for the seeded topology builders. Tests should default to
/// kTiny/kSmall; kPaper approximates the paper's ~600-node transit-stub
/// network and is reserved for slower end-to-end suites.
enum class TopologySize {
  kTiny,    ///< 2x2 transit, ~50 nodes — fast unit-style fixtures
  kSmall,   ///< 2x2 transit, ~100 nodes — e2e regression default
  kMedium,  ///< 2x2 transit, 256 nodes — stress/churn scenario sweeps
  kPaper,   ///< 4x4 transit, ~600 nodes — paper-scale scenarios
};

/// Transit-stub parameters for a preset (deterministic, no RNG involved).
net::TransitStubParams TransitStubParamsFor(TopologySize size);

/// Generates the seeded transit-stub topology a preset describes — the same
/// wiring MakeTransitStubSbon embeds, for callers (e.g. engine::EngineOptions)
/// that need the raw topology.
net::Topology MakeTransitStubTopology(TopologySize size, uint64_t seed);

/// Builds a seeded transit-stub SBON. Everything downstream of `seed` —
/// topology wiring, link latencies, ambient load, Vivaldi embedding — is
/// deterministic, so two calls with equal arguments yield bit-identical
/// overlays. `opts.seed` is overwritten with `seed`.
std::unique_ptr<overlay::Sbon> MakeTransitStubSbon(
    TopologySize size, uint64_t seed,
    overlay::Sbon::Options opts = overlay::Sbon::Options());

/// Builds a seeded SBON over a `side` x `side` grid with uniform link
/// latency; shortest-path distances are known analytically, which makes
/// placement assertions exact.
std::unique_ptr<overlay::Sbon> MakeGridSbon(
    size_t side, uint64_t seed, double link_latency_ms = 5.0,
    overlay::Sbon::Options opts = overlay::Sbon::Options());

/// Workload parameters scaled down for tests: few streams, small queries,
/// moderately selective joins. Deterministic.
query::WorkloadParams TestWorkloadParams(size_t num_streams = 16);

/// A seeded random catalog over the overlay's eligible nodes. Uses a
/// dedicated Rng (not the overlay's) so catalog generation does not perturb
/// the overlay's RNG stream.
query::Catalog MakeCatalog(const overlay::Sbon& sbon,
                           const query::WorkloadParams& params, uint64_t seed);

/// A batch of seeded random queries over `catalog`, consumers drawn from the
/// overlay's eligible nodes.
std::vector<query::QuerySpec> MakeQueries(const overlay::Sbon& sbon,
                                          const query::Catalog& catalog,
                                          const query::WorkloadParams& params,
                                          size_t count, uint64_t seed);

/// Seeded joins that share subtrees: each joins a random subset (at least
/// two) of streams 0..num_streams-1 at one fixed selectivity, so equal
/// stream subsets have equal reuse signatures. Consumers are drawn from the
/// overlay's eligible nodes.
std::vector<query::QuerySpec> MakeShareableJoins(const overlay::Sbon& sbon,
                                                 size_t num_streams,
                                                 size_t count, uint64_t seed);

/// A small fixed two-stream catalog (producers = first two overlay nodes)
/// for tests that need hand-checkable rates: stream "a" at 6400 B/s,
/// stream "b" at 1280 B/s.
query::Catalog TwoStreamCatalog(const overlay::Sbon& sbon);

/// Default optimizer configuration for tests: top-8 plan enumeration,
/// lambda = 1.
core::OptimizerConfig TestOptimizerConfig(size_t top_k = 8);

/// `config` with reuse off (`reuse_radius` 0): the integrated optimizer
/// (paper Sec. 3.3), as the registry's "integrated" preset configures it.
core::OptimizerConfig IntegratedConfig(core::OptimizerConfig config = {});

/// The default placer used across the regression suites.
std::shared_ptr<const placement::VirtualPlacer> DefaultPlacer();

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_FIXTURES_H_
