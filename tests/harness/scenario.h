#ifndef SBON_TESTS_HARNESS_SCENARIO_H_
#define SBON_TESTS_HARNESS_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/reopt.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "overlay/metrics.h"
#include "overlay/sbon.h"

namespace sbon::test {

/// Configuration of an end-to-end scenario.
struct ScenarioOptions {
  TopologySize size = TopologySize::kSmall;
  uint64_t seed = 42;
  /// Overlay options (`sbon.seed` is overwritten with `seed`).
  overlay::Sbon::Options sbon;
  core::OptimizerConfig config = TestOptimizerConfig();
};

/// What one placement step produced, with both the optimizer's cost-space
/// estimate and the true-latency cost measured after installation.
struct PlacementRecord {
  CircuitId circuit_id = kInvalidCircuit;
  double estimated_cost = 0.0;
  size_t plans_considered = 0;
  size_t placements_evaluated = 0;
  size_t services_reused = 0;
  overlay::CircuitCost true_cost;
};

/// Thin invariant-checking wrapper around `engine::StreamEngine`: the
/// engine drives the full pipeline — build topology, embed coordinates,
/// place queries, install circuits — while the runner asserts structural
/// and cost invariants at every step (via gtest non-fatal failures, so a
/// broken invariant pinpoints the step that violated it).
///
/// Invariants checked on every placed circuit:
///  - the circuit is fully placed and every host is a valid topology node;
///  - unpinned (service) hosts are overlay-eligible nodes;
///  - the optimizer's estimated cost is finite and strictly positive;
///  - after installation, the true-latency cost is computable, its network
///    usage is non-negative, and — on a jitter-free overlay with no reuse —
///    the critical-path latency is at least the direct shortest-path latency
///    from each producer to the consumer (placement can never beat the
///    triangle inequality).
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioOptions options);

  engine::StreamEngine& engine() { return *engine_; }
  overlay::Sbon& sbon() { return engine_->sbon(); }
  const ScenarioOptions& options() const { return options_; }

  /// Installs a seeded random catalog (see MakeCatalog) and returns it.
  const query::Catalog& UseRandomCatalog(const query::WorkloadParams& params,
                                         uint64_t seed);
  /// Installs a caller-built catalog.
  const query::Catalog& UseCatalog(query::Catalog catalog);
  const query::Catalog& catalog() const { return engine_->catalog(); }

  /// Submits `spec` under `optimizer` (an OptimizerRegistry name) through
  /// the engine, verifies placement
  /// invariants, measures the true cost, and returns the record (structured
  /// failure via gtest on invariant violations; optimizer/install errors
  /// surface as ASSERT-style failures with the record left at defaults).
  PlacementRecord PlaceAndInstall(const std::string& optimizer,
                                  const query::QuerySpec& spec);

  /// Optimizes without installing (for compare-only steps).
  StatusOr<core::OptimizeResult> OptimizeOnly(const std::string& optimizer,
                                              const query::QuerySpec& spec);

  /// One churn epoch: advance ambient load by `dt`, resample latency jitter,
  /// run `vivaldi_samples` online coordinate measurements per node, and
  /// refresh the coordinate index.
  void Churn(double dt, size_t vivaldi_samples);

  /// Local re-optimization (service migration) for a previously installed
  /// circuit.
  StatusOr<core::LocalReoptReport> LocalReopt(CircuitId id,
                                              const core::ReoptConfig& config);
  /// Full re-optimization (parallel circuit deployment) with the optimizer
  /// the circuit's query was submitted with.
  StatusOr<engine::FullReoptReport> FullReopt(
      CircuitId id, const core::ReoptConfig& config);

  /// Re-verifies cost invariants over every installed circuit (e.g. after
  /// churn or migration).
  void VerifyAllInstalled() const;

  /// Spec recorded for an installed circuit (dies if unknown).
  const query::QuerySpec& SpecOf(CircuitId id) const;

  /// Invariant check on a placed circuit.
  static void VerifyPlacedCircuit(const overlay::Circuit& circuit,
                                  const overlay::Sbon& sbon);

 private:
  void VerifyInstalledCircuit(CircuitId id) const;

  ScenarioOptions options_;
  std::unique_ptr<engine::StreamEngine> engine_;
};

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_SCENARIO_H_
