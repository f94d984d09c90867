#ifndef SBON_TESTS_HARNESS_SCENARIO_MATRIX_H_
#define SBON_TESTS_HARNESS_SCENARIO_MATRIX_H_

#include <string>
#include <vector>

#include "engine/stream_engine.h"
#include "engine/workload_engine.h"
#include "harness/fixtures.h"
#include "harness/scenario.h"
#include "net/churn.h"

namespace sbon::test {

/// One cell of the randomized scenario matrix: a full engine lifecycle
/// (submit queries, run churn epochs with crashes/rejoins/partitions,
/// verify invariants, tear everything down) under one parameter combination.
struct MatrixCell {
  double churn_rate = 0.0;    ///< expected node crashes per epoch
  double jitter_sigma = 0.0;  ///< latency jitter sigma
  double hotspot_frac = 0.0;  ///< fraction of nodes pinned to high load
  std::string optimizer = "integrated";  ///< OptimizerRegistry name
  uint64_t seed = 1;
};

/// Human-readable cell tag for SCOPED_TRACE / reporting.
std::string CellName(const MatrixCell& cell);

/// Sweep-wide configuration (per-cell axes live in MatrixCell).
struct MatrixOptions {
  TopologySize size = TopologySize::kSmall;
  size_t queries = 6;
  size_t epochs = 8;
  double dt = 0.5;
  size_t vivaldi_samples = 1;
  double refresh_epsilon = 0.0;
  /// Execution mode every cell runs under. kMessage additionally asserts
  /// the traffic invariants (summary present, per-node byte rate bounded)
  /// and folds the traffic counters into the replay fingerprint.
  engine::ExecMode exec_mode = engine::ExecMode::kOracle;
  /// ChurnModel parameter template; `crash_rate` and `seed` are overwritten
  /// per cell (partition knobs pass through, so a sweep can add partitions
  /// by setting `churn.partition_rate`).
  net::ChurnModel::Params churn;
  /// Message-mode runtime parameters for kMessage cells: fault-injection
  /// plan (msg.bus.faults), reliability hardening, failure detector. The
  /// default (no faults, reliability and detector off) reproduces the
  /// polite-network message mode bit-identically.
  msg::RuntimeParams msg;
  /// Open-loop workload cell: when enabled, the cell swaps its fixed
  /// pre-churn query population for a WorkloadEngine soak — Poisson
  /// arrivals (flash crowds and all) and exponential departures composing
  /// with the cell's churn axis — so overload and failure stress the same
  /// invariants together. Workload counters fold into the replay
  /// fingerprint alongside the overlay and repair state.
  struct Workload {
    bool enabled = false;
    engine::ArrivalProcess arrivals;
    engine::AdmissionControl admission;
  };
  Workload workload;
  /// Run every cell twice and require bit-identical overlay fingerprints
  /// and repair stats — the deterministic-replay invariant.
  bool check_replay = true;
  /// Verify invariants after every epoch (vs. only after the last).
  bool check_every_epoch = true;
};

/// What one cell produced (all invariant failures surface as gtest
/// non-fatal failures tagged with the cell name, not here).
struct CellOutcome {
  MatrixCell cell;
  engine::RepairStats repair;
  size_t queries_submitted = 0;
  size_t queries_alive = 0;  ///< handles still live after the last epoch
  /// Overlay fingerprint + repair-stats rendering before teardown; equal
  /// across replays of the same cell.
  std::string fingerprint;
};

/// Randomized scenario-matrix runner — the stress-suite template: sweeps
/// {churn rate x jitter x hotspot fraction x optimizer strategy} over many
/// seeds, driving each cell through the full StreamEngine lifecycle with a
/// seeded ChurnModel attached, and asserts the global invariants
///
///  - no orphaned state: every service instance sits on an alive node and
///    is referenced only by registered circuits; every circuit is fully
///    placed on alive nodes;
///  - balanced load books: per-node service load always equals the sum of
///    hosted instance deltas, and returns to zero after full teardown;
///  - handle stability: surviving queries keep their original QueryHandles
///    across any number of crash-triggered repairs;
///  - deterministic replay: identical cell parameters reproduce the run
///    bit-identically (fingerprint + repair stats).
class ScenarioMatrix {
 public:
  explicit ScenarioMatrix(MatrixOptions options);

  /// Full cross product of the axes and seeds.
  static std::vector<MatrixCell> CrossProduct(
      const std::vector<double>& churn_rates,
      const std::vector<double>& jitter_sigmas,
      const std::vector<double>& hotspot_fracs,
      const std::vector<std::string>& optimizers,
      const std::vector<uint64_t>& seeds);

  /// One cell per seed, rotating through each axis independently —
  /// latin-hypercube-style coverage of every axis value at a fraction of
  /// the cross product's cost (the default for large-topology sweeps).
  static std::vector<MatrixCell> Rotation(
      const std::vector<double>& churn_rates,
      const std::vector<double>& jitter_sigmas,
      const std::vector<double>& hotspot_fracs,
      const std::vector<std::string>& optimizers,
      const std::vector<uint64_t>& seeds);

  /// Runs every cell (twice each when `check_replay`); returns one outcome
  /// per cell.
  std::vector<CellOutcome> Run(const std::vector<MatrixCell>& cells);

  /// Runs a single cell with invariant checking (and replay if configured).
  CellOutcome RunCell(const MatrixCell& cell);

  /// The live-state invariants, usable on any engine mid-scenario: no
  /// orphaned instances/circuits, balanced load books, consistent
  /// handle<->circuit bookkeeping.
  static void CheckLiveInvariants(const engine::StreamEngine& engine);

  const MatrixOptions& options() const { return options_; }

 private:
  /// One lifecycle of `cell`: the population is a fixed Submit batch, or
  /// a WorkloadEngine soak when `MatrixOptions::workload.enabled`.
  CellOutcome RunCellOnce(const MatrixCell& cell);
  /// Message-mode traffic invariants + fingerprint fold (no-op assertion
  /// that no summary leaked in oracle mode).
  void CheckTraffic(const engine::EngineSnapshot& snapshot,
                    CellOutcome* outcome) const;

  MatrixOptions options_;
};

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_SCENARIO_MATRIX_H_
