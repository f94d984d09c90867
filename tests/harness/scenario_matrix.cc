#include "harness/scenario_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "harness/golden.h"

namespace sbon::test {
namespace {

/// Rendered repair stats, appended to the overlay fingerprint so replay
/// comparison pins the failure/repair path, not just the end state.
std::string RepairFingerprint(const engine::RepairStats& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "repair crashes=%zu rejoins=%zu partitions=%zu heals=%zu "
                "evicted=%zu orphaned=%zu repaired=%zu dropped=%zu\n",
                r.crashes, r.rejoins, r.partitions, r.heals,
                r.services_evicted, r.circuits_orphaned, r.queries_repaired,
                r.queries_dropped);
  return buf;
}

/// Rendered traffic counters for message-mode cells: replay must reproduce
/// every protocol's message/byte/drop totals — and under chaos, every
/// fault, retry, dedup, and detector counter — not just the overlay state.
std::string TrafficFingerprint(const msg::TrafficSummary& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "traffic sent=%zu delivered=%zu drop_dead=%zu drop_part=%zu "
      "drop_fault=%zu dup=%zu bytes=%zu viv=%zu ring=%zu place=%zu "
      "conv=%zu stale_n=%zu stale_p95=%.1f retries=%zu rbytes=%zu "
      "acks=%zu supp=%zu exh=%zu ovf=%zu pend=%zu susp=%zu fsusp=%zu "
      "conf=%zu dlat_p95=%.1f\n",
      t.msgs_sent, t.msgs_delivered, t.msgs_dropped_dead,
      t.msgs_dropped_partition, t.msgs_dropped_fault, t.msgs_duplicated,
      t.bytes_total, t.protocol_msgs[0], t.protocol_msgs[1],
      t.protocol_msgs[2], t.convergence_epochs, t.staleness_samples,
      t.staleness_p95, t.retries, t.retry_bytes, t.acks, t.dup_suppressed,
      t.retry_exhausted, t.retransmit_overflow, t.retry_pending,
      t.suspicions, t.false_suspicions, t.crash_confirmations,
      t.detection_p95);
  return buf;
}

/// Rendered workload counters for open-loop cells: replay must reproduce
/// the entire arrival/admission/departure history, not just the survivors.
std::string WorkloadFingerprint(const engine::WorkloadPhaseStats& t) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "workload epochs=%zu arrivals=%zu shed=%zu admitted=%zu "
                "submitted=%zu failures=%zu departures=%zu reuse=%zu\n",
                t.epochs, t.arrivals, t.shed, t.admitted, t.submitted,
                t.submit_failures, t.departures, t.reuse_hits);
  return buf;
}

}  // namespace

std::string CellName(const MatrixCell& cell) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "churn=%g jitter=%g hotspot=%g opt=%s seed=%llu",
                cell.churn_rate, cell.jitter_sigma, cell.hotspot_frac,
                cell.optimizer.c_str(),
                static_cast<unsigned long long>(cell.seed));
  return buf;
}

ScenarioMatrix::ScenarioMatrix(MatrixOptions options)
    : options_(std::move(options)) {}

std::vector<MatrixCell> ScenarioMatrix::CrossProduct(
    const std::vector<double>& churn_rates,
    const std::vector<double>& jitter_sigmas,
    const std::vector<double>& hotspot_fracs,
    const std::vector<std::string>& optimizers,
    const std::vector<uint64_t>& seeds) {
  std::vector<MatrixCell> cells;
  for (uint64_t seed : seeds) {
    for (double rate : churn_rates) {
      for (double jitter : jitter_sigmas) {
        for (double hotspot : hotspot_fracs) {
          for (const std::string& opt : optimizers) {
            cells.push_back({rate, jitter, hotspot, opt, seed});
          }
        }
      }
    }
  }
  return cells;
}

std::vector<MatrixCell> ScenarioMatrix::Rotation(
    const std::vector<double>& churn_rates,
    const std::vector<double>& jitter_sigmas,
    const std::vector<double>& hotspot_fracs,
    const std::vector<std::string>& optimizers,
    const std::vector<uint64_t>& seeds) {
  std::vector<MatrixCell> cells;
  cells.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    cells.push_back({churn_rates[i % churn_rates.size()],
                     jitter_sigmas[i % jitter_sigmas.size()],
                     hotspot_fracs[i % hotspot_fracs.size()],
                     optimizers[i % optimizers.size()], seeds[i]});
  }
  return cells;
}

void ScenarioMatrix::CheckLiveInvariants(const engine::StreamEngine& engine) {
  const overlay::Sbon& sbon = engine.sbon();
  const size_t num_nodes = sbon.topology().NumNodes();

  // No orphaned service instances: every instance sits on an alive overlay
  // node, serves at least one circuit, and every circuit it names exists.
  for (const auto& [id, inst] : sbon.ledger().services()) {
    EXPECT_TRUE(sbon.IsAlive(inst.host))
        << "instance " << id << " hosted on dead node " << inst.host;
    EXPECT_FALSE(inst.circuits.empty())
        << "instance " << id << " serves no circuit";
    for (CircuitId cid : inst.circuits) {
      EXPECT_NE(sbon.ledger().FindCircuit(cid), nullptr)
          << "instance " << id << " references missing circuit " << cid;
    }
  }

  // Every registered circuit is fully placed on alive nodes, and its
  // deployed (non-pinned, non-reused) vertices bind to live instances.
  for (const auto& [cid, circuit] : sbon.ledger().circuits()) {
    EXPECT_TRUE(circuit.FullyPlaced()) << "circuit " << cid << " unplaced";
    for (const overlay::CircuitVertex& v : circuit.vertices()) {
      ASSERT_NE(v.host, kInvalidNode);
      ASSERT_LT(v.host, num_nodes);
      EXPECT_TRUE(sbon.IsAlive(v.host))
          << "circuit " << cid << " has a vertex on dead node " << v.host;
      // Deployed vertices must bind a live instance; reused roots bind the
      // shared instance they subscribe to, which must be live too (a
      // repair must never leave a circuit subscribed to an instance whose
      // chain was evicted).
      if (!v.pinned && v.service != kInvalidService) {
        EXPECT_NE(sbon.ledger().FindService(v.service), nullptr)
            << "circuit " << cid << " binds missing instance " << v.service;
      }
    }
  }

  // Balanced load books: per-node service load equals the sum of hosted
  // instance deltas (the same quantity ApplyServiceLoadDelta accumulates).
  std::vector<double> expected(num_nodes, 0.0);
  for (const auto& [id, inst] : sbon.ledger().services()) {
    expected[inst.host] +=
        inst.input_bytes_per_s * overlay::Sbon::kLoadPerBytePerS;
  }
  for (NodeId n = 0; n < num_nodes; ++n) {
    EXPECT_NEAR(sbon.ledger().service_load(n), expected[n], 1e-9)
        << "load book of node " << n << " out of balance";
  }

  // Engine bookkeeping: every query's circuit exists and maps back to the
  // same handle.
  const engine::EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_EQ(snapshot.num_queries, engine.NumQueries());
  for (const engine::QueryStats& qs : snapshot.queries) {
    EXPECT_NE(sbon.ledger().FindCircuit(qs.circuit), nullptr)
        << "query handle " << qs.handle.id << " maps to missing circuit";
    EXPECT_EQ(engine.HandleOf(qs.circuit), qs.handle);
  }
}

CellOutcome ScenarioMatrix::RunCellOnce(const MatrixCell& cell) {
  CellOutcome outcome;
  outcome.cell = cell;

  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(options_.size, cell.seed);
  eo.sbon.seed = cell.seed;
  eo.sbon.latency_jitter_sigma = cell.jitter_sigma;
  eo.sbon.load_params.hotspot_frac = cell.hotspot_frac;
  eo.optimizer = cell.optimizer;
  eo.config = TestOptimizerConfig();
  auto created = engine::StreamEngine::Create(std::move(eo));
  if (!created.ok()) {
    ADD_FAILURE() << "engine creation failed: "
                  << created.status().ToString();
    return outcome;
  }
  engine::StreamEngine& eng = **created;

  net::ChurnModel::Params cp = options_.churn;
  cp.crash_rate = cell.churn_rate;
  cp.seed = cell.seed * 1000003 + 17;
  net::ChurnModel churn(eng.sbon().overlay_nodes(), cp);

  engine::EpochOptions epoch;
  epoch.dt = options_.dt;
  epoch.tick_network = true;
  epoch.vivaldi_samples = options_.vivaldi_samples;
  epoch.refresh_index = true;
  epoch.refresh_epsilon = options_.refresh_epsilon;
  epoch.churn = &churn;
  epoch.exec_mode = options_.exec_mode;
  epoch.msg = options_.msg;

  // The population: a WorkloadEngine soak when the open-loop cell is on,
  // else a fixed batch submitted before the first churn epoch.
  std::unique_ptr<engine::WorkloadEngine> workload;
  std::set<engine::QueryHandle> submitted;
  if (options_.workload.enabled) {
    engine::WorkloadEngineOptions wo;
    wo.workload = TestWorkloadParams();
    wo.arrivals = options_.workload.arrivals;
    wo.admission = options_.workload.admission;
    wo.seed = cell.seed * 131 + 13;
    wo.epoch = epoch;
    auto wl = engine::WorkloadEngine::Create(&eng, wo);
    if (!wl.ok()) {
      ADD_FAILURE() << "workload creation failed: " << wl.status().ToString();
      return outcome;
    }
    workload = std::move(wl.value());
  } else {
    const query::WorkloadParams wp = TestWorkloadParams();
    eng.SetCatalog(MakeCatalog(eng.sbon(), wp, cell.seed * 31 + 7));
    const auto specs = MakeQueries(eng.sbon(), eng.catalog(), wp,
                                   options_.queries, cell.seed * 131 + 13);
    for (const query::QuerySpec& spec : specs) {
      auto handle = eng.Submit(spec);
      EXPECT_TRUE(handle.ok()) << "pre-churn submit failed: "
                               << handle.status().ToString();
      if (handle.ok()) submitted.insert(*handle);
    }
    outcome.queries_submitted = submitted.size();
    EXPECT_FALSE(submitted.empty());
  }

  for (size_t e = 0; e < options_.epochs; ++e) {
    if (workload != nullptr) {
      const Status st = workload->Step();
      EXPECT_TRUE(st.ok()) << "workload Step failed: " << st.ToString();
    } else {
      const Status st = eng.AdvanceEpoch(epoch);
      EXPECT_TRUE(st.ok()) << "AdvanceEpoch failed: " << st.ToString();
    }
    if (options_.check_every_epoch) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      CheckLiveInvariants(eng);
    }
  }
  if (!options_.check_every_epoch) CheckLiveInvariants(eng);

  const engine::EngineSnapshot snapshot = eng.Snapshot();
  outcome.repair = snapshot.repair;
  outcome.queries_alive = snapshot.num_queries;
  outcome.fingerprint =
      OverlayFingerprint(eng.sbon()) + RepairFingerprint(snapshot.repair);
  if (workload != nullptr) {
    // Population conservation: every successfully submitted query is
    // either still running, departed through its lifetime, or dropped by
    // churn — the open-loop analogue of the fixed population's handle
    // accounting.
    const engine::WorkloadPhaseStats& t = workload->totals();
    outcome.queries_submitted = t.submitted;
    EXPECT_EQ(t.arrivals, t.shed + t.admitted);
    EXPECT_EQ(t.admitted, t.submitted + t.submit_failures);
    EXPECT_EQ(t.submitted, outcome.queries_alive + t.departures +
                               snapshot.repair.queries_dropped);
    outcome.fingerprint += WorkloadFingerprint(t);
  } else {
    // Handle stability: every surviving query still answers to a handle
    // from the original submission — repairs swap circuits, never handles
    // — and the submitted population is fully accounted for as alive +
    // dropped.
    for (const engine::QueryStats& qs : snapshot.queries) {
      EXPECT_TRUE(submitted.count(qs.handle) == 1)
          << "unknown handle " << qs.handle.id << " appeared";
    }
    EXPECT_EQ(submitted.size(),
              outcome.queries_alive + snapshot.repair.queries_dropped);
  }
  CheckTraffic(snapshot, &outcome);

  // Full teardown: removing every surviving query must leave zero service
  // instances, zero circuits, and every node's load book at its base value.
  for (const engine::QueryStats& qs : snapshot.queries) {
    (void)eng.Remove(qs.handle);
  }
  EXPECT_EQ(eng.NumQueries(), 0u);
  EXPECT_EQ(eng.sbon().ledger().NumServices(), 0u);
  EXPECT_TRUE(eng.sbon().ledger().circuits().empty());
  for (NodeId n = 0; n < eng.sbon().topology().NumNodes(); ++n) {
    EXPECT_NEAR(eng.sbon().ledger().service_load(n), 0.0, 1e-9)
        << "node " << n << " retains service load after full removal";
  }
  return outcome;
}

void ScenarioMatrix::CheckTraffic(const engine::EngineSnapshot& snapshot,
                                  CellOutcome* outcome) const {
  if (options_.exec_mode != engine::ExecMode::kMessage) {
    EXPECT_FALSE(snapshot.decentralized.has_value());
    return;
  }
  // Traffic invariants: the summary must exist, every epoch must have
  // been drained, conservation must hold (nothing delivered that was
  // never sent), and the per-node byte rate must stay bounded — a
  // handful of protocol messages per node per epoch, not a broadcast
  // storm. The bound is generous (the Vivaldi+ring+placement models sum
  // to well under 4 KiB/node/epoch at test scale) but catches runaway
  // retransmission outright.
  if (!snapshot.decentralized.has_value()) {
    ADD_FAILURE() << "message-mode snapshot lost its traffic summary";
    return;
  }
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_EQ(t.epochs, options_.epochs);
  EXPECT_GT(t.msgs_sent, 0u);
  // Conservation under chaos: every wire copy is delivered, dropped with
  // a named cause (dead endpoint / partition / injected fault), or still
  // queued — the `sent` side also includes billed relay hops, hence >=.
  EXPECT_GE(t.msgs_sent, t.msgs_delivered + t.msgs_dropped_dead +
                             t.msgs_dropped_partition + t.msgs_dropped_fault);
  EXPECT_LT(t.bytes_per_node_per_epoch, 16384.0)
      << "message-mode traffic exceeded the per-node byte budget";
  // Bounded retransmit queue: pending reliable transfers can never
  // exceed the configured cap, no matter how much the injector loses.
  EXPECT_LE(t.retry_pending, options_.msg.reliability.max_pending)
      << "retransmit queue grew past its bound";
  if (!options_.msg.reliability.enabled) {
    EXPECT_EQ(t.retries, 0u);
    EXPECT_EQ(t.acks, 0u);
    EXPECT_EQ(t.retry_pending, 0u);
  }
  if (!options_.msg.detector.enabled) {
    EXPECT_EQ(t.suspicions, 0u);
    EXPECT_EQ(t.crash_confirmations, 0u);
  }
  outcome->fingerprint += TrafficFingerprint(t);
}

CellOutcome ScenarioMatrix::RunCell(const MatrixCell& cell) {
  SCOPED_TRACE(CellName(cell));
  CellOutcome outcome = RunCellOnce(cell);
  if (options_.check_replay) {
    SCOPED_TRACE("replay");
    const CellOutcome replay = RunCellOnce(cell);
    EXPECT_EQ(outcome.fingerprint, replay.fingerprint)
        << "replay of an identical cell diverged";
    EXPECT_EQ(outcome.queries_alive, replay.queries_alive);
  }
  return outcome;
}

std::vector<CellOutcome> ScenarioMatrix::Run(
    const std::vector<MatrixCell>& cells) {
  std::vector<CellOutcome> outcomes;
  outcomes.reserve(cells.size());
  for (const MatrixCell& cell : cells) {
    outcomes.push_back(RunCell(cell));
  }
  return outcomes;
}

}  // namespace sbon::test
