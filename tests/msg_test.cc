// Tests of the decentralized message-passing execution mode (src/msg/): the
// deterministic MessageBus (latency-delayed delivery, drop semantics,
// epoch-boundary carry-over), the protocol agents driven through
// StreamEngine's ExecMode::kMessage epochs (traffic accounting, convergence
// after churn, placement staleness), bit-identical multi-seed replay, and
// oracle-vs-message embedding convergence at zero churn.
//
// Chaos hardening: the seeded FaultInjector (loss / duplication / delay
// jitter), ack+retry+backoff reliability for the ring's kPublish/kJoin,
// handler idempotence under duplication, the heartbeat-silence failure
// detector with its deferred-crash repair path, and bit-identical chaos
// replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/vec.h"
#include "dht/chord.h"
#include "dht/coord_index.h"
#include "engine/stream_engine.h"
#include "harness/fixtures.h"
#include "harness/golden.h"
#include "harness/scenario_matrix.h"
#include "msg/agents.h"
#include "msg/fault.h"
#include "msg/message.h"
#include "msg/message_bus.h"
#include "net/churn.h"
#include "net/fabric.h"

namespace sbon::test {
namespace {

// ----------------------------- MessageBus -----------------------------

/// A dense fabric over the tiny transit-stub topology, jitter-free so
/// latencies are exact and stable across ticks.
struct BusFixture {
  BusFixture()
      : topo(MakeTransitStubTopology(TopologySize::kTiny, /*seed=*/7)),
        rng(7),
        fabric(topo, /*jitter_sigma=*/0.0, &rng, DenseOptions()) {}

  static net::NetworkFabric::Options DenseOptions() {
    net::NetworkFabric::Options o;
    o.base_mode = net::NetworkFabric::BaseMode::kDense;
    return o;
  }

  net::Topology topo;
  Rng rng;
  net::NetworkFabric fabric;
};

msg::Envelope Ping(NodeId from, NodeId to, size_t bytes = 24) {
  msg::Envelope e;
  e.proto = msg::Protocol::kVivaldi;
  e.kind = msg::MsgKind::kPing;
  e.from = from;
  e.to = to;
  e.subject = from;
  e.bytes = bytes;
  return e;
}

TEST(MessageBus, DeliveryPaysLiveFabricLatency) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 1000.0;  // wide horizon: everything lands in epoch 0
  msg::MessageBus bus(&fx.fabric, opts);

  std::vector<double> delivered_at;
  bus.SetHandler(msg::Protocol::kVivaldi, [&](const msg::Envelope& e) {
    EXPECT_EQ(e.deliver_ms, bus.now_ms());
    delivered_at.push_back(e.deliver_ms - e.send_ms);
  });

  bus.BeginEpoch();
  bus.Send(Ping(0, 5));
  bus.Send(Ping(2, 9));
  bus.EndEpoch();

  ASSERT_EQ(delivered_at.size(), 2u);
  // Min-heap delivery order: the lower-latency message arrives first.
  EXPECT_EQ(delivered_at[0], std::min(fx.fabric.live().Latency(0, 5),
                                      fx.fabric.live().Latency(2, 9)));
  EXPECT_EQ(delivered_at[1], std::max(fx.fabric.live().Latency(0, 5),
                                      fx.fabric.live().Latency(2, 9)));
  const msg::TrafficStats& stats = bus.stats();
  const auto& c = stats.protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(c.sent, 2u);
  EXPECT_EQ(c.delivered, 2u);
  EXPECT_EQ(c.bytes, 48u);
  EXPECT_EQ(stats.node_msgs[0], 1u);
  EXPECT_EQ(stats.node_bytes[2], 24u);
}

TEST(MessageBus, EqualDeliveryTimesBreakTiesInSendOrder) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 1000.0;
  msg::MessageBus bus(&fx.fabric, opts);

  std::vector<NodeId> order;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope& e) { order.push_back(e.subject); });

  bus.BeginEpoch();
  // Same pair both ways: identical latency, so seq (send order) decides.
  bus.Send(Ping(3, 4));
  bus.Send(Ping(4, 3));
  bus.Send(Ping(3, 4));
  bus.EndEpoch();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 4u);
  EXPECT_EQ(order[2], 3u);
}

TEST(MessageBus, DropsToAndFromDeadEndpoints) {
  BusFixture fx;
  msg::MessageBus bus(&fx.fabric, {});
  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope&) { ++handled; });

  fx.fabric.SetEndpointDown(5, true);
  bus.BeginEpoch();
  bus.Send(Ping(0, 5));  // to a dead node
  bus.Send(Ping(5, 0));  // from a dead node
  bus.Send(Ping(0, 1));  // control: alive pair
  bus.EndEpoch();

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(handled, 1u);
  EXPECT_EQ(c.sent, 3u);
  EXPECT_EQ(c.delivered, 1u);
  EXPECT_EQ(c.dropped_dead, 2u);
  // The sender pays for the transmission whether or not it arrives.
  EXPECT_EQ(c.bytes, 72u);
}

TEST(MessageBus, DeathBetweenSendAndDeliveryDropsInFlightMessages) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 1000.0;
  msg::MessageBus bus(&fx.fabric, opts);
  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope&) { ++handled; });

  bus.BeginEpoch();
  bus.Send(Ping(0, 5));
  fx.fabric.SetEndpointDown(5, true);  // the churn stage runs mid-epoch
  bus.EndEpoch();

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(c.delivered, 0u);
  EXPECT_EQ(c.dropped_dead, 1u);
}

TEST(MessageBus, DropsAcrossActivePartition) {
  BusFixture fx;
  ASSERT_TRUE(fx.fabric.BeginPartition({0, 1, 2}, 8.0).ok());
  msg::MessageBus bus(&fx.fabric, {});
  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope&) { ++handled; });

  bus.BeginEpoch();
  bus.Send(Ping(0, 9));  // crosses the cut
  bus.Send(Ping(0, 1));  // same side
  bus.EndEpoch();

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(handled, 1u);
  EXPECT_EQ(c.dropped_partition, 1u);
  EXPECT_EQ(c.dropped_dead, 0u);
}

TEST(MessageBus, SlowMessagesCarryAcrossEpochBoundaries) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  // Epoch shorter than any link latency: nothing lands in its send epoch.
  opts.epoch_ms = 1e-3;
  msg::MessageBus bus(&fx.fabric, opts);
  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope&) { ++handled; });

  bus.BeginEpoch();
  bus.Send(Ping(0, 5));
  bus.EndEpoch();
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(bus.pending(), 1u);

  const double latency = fx.fabric.live().Latency(0, 5);
  const size_t epochs_needed =
      static_cast<size_t>(std::ceil(latency / opts.epoch_ms));
  for (size_t e = 1; e <= epochs_needed && handled == 0; ++e) {
    bus.BeginEpoch();
    bus.EndEpoch();
  }
  EXPECT_EQ(handled, 1u);
  EXPECT_EQ(bus.pending(), 0u);
}

TEST(MessageBus, DrainOrderSurvivesSlotReuseAndHandlerSends) {
  // Every ping answers with three pongs, so the queue grows mid-drain and
  // each delivery's freed slot is reused by the handler's first Send.
  // Duplication without delay jitter gives exact deliver_ms ties (the copy
  // lands with its original), as do the three pongs of one ping; the short
  // epoch makes slower messages carry across boundaries. Whatever the
  // queue layout does, deliveries must come out in (deliver_ms, seq) order
  // with their payload intact, and conservation must hold after each drain.
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 25.0;
  auto& r = opts.faults.protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  r.loss = 0.05;
  r.duplicate = 0.3;
  msg::MessageBus bus(&fx.fabric, opts);

  uint64_t next_serial = 0;
  // The payload names the envelope; a slot reused too early shows up as a
  // coordinate that no longer matches its own endpoints and serial.
  auto stamp = [&](msg::Envelope* e) {
    e->aux1 = static_cast<double>(next_serial++);
    e->coord = Vec{static_cast<double>(e->from), static_cast<double>(e->to),
                   e->aux1};
  };
  std::vector<std::pair<double, uint64_t>> order;  // (deliver_ms, seq)
  size_t carried = 0;
  size_t peak_pending = 0;
  bus.SetHandler(msg::Protocol::kVivaldi, [&](const msg::Envelope& e) {
    order.emplace_back(e.deliver_ms, e.seq);
    ASSERT_EQ(e.coord.dims(), 3u);
    EXPECT_EQ(e.coord[0], static_cast<double>(e.from));
    EXPECT_EQ(e.coord[1], static_cast<double>(e.to));
    EXPECT_EQ(e.coord[2], e.aux1);
    if (std::floor(e.send_ms / opts.epoch_ms) <
        static_cast<double>(bus.epoch())) {
      ++carried;
    }
    if (e.kind != msg::MsgKind::kPing) return;
    const double serial = e.aux1;
    for (int k = 0; k < 3; ++k) {
      msg::Envelope pong = Ping(e.to, e.from);
      pong.kind = msg::MsgKind::kPong;
      stamp(&pong);
      EXPECT_TRUE(bus.Send(std::move(pong)).ok());
    }
    // The delivered envelope must not alias a slot the Sends just reused.
    EXPECT_EQ(e.aux1, serial);
    EXPECT_EQ(e.coord[2], serial);
    peak_pending = std::max(peak_pending, bus.pending());
  });

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  const auto conserved = [&] {
    return c.sent == c.delivered + c.dropped_dead + c.dropped_partition +
                         c.dropped_fault + bus.pending();
  };
  const NodeId n = static_cast<NodeId>(fx.topo.NumNodes());
  size_t initial_sends = 0;
  for (size_t epoch = 0; epoch < 6; ++epoch) {
    bus.BeginEpoch();
    for (NodeId from = 0; from < n; ++from) {
      msg::Envelope ping = Ping(from, (from * 7 + epoch + 1) % n);
      if (ping.to == from) continue;
      stamp(&ping);
      EXPECT_TRUE(bus.Send(std::move(ping)).ok());
      ++initial_sends;
    }
    bus.EndEpoch();
    EXPECT_TRUE(conserved()) << "after epoch " << epoch;
  }
  // Quiet epochs drain what carried over (pongs send nothing further).
  for (size_t epoch = 0; epoch < 64 && bus.pending() > 0; ++epoch) {
    bus.BeginEpoch();
    bus.EndEpoch();
    EXPECT_TRUE(conserved());
  }
  EXPECT_EQ(bus.pending(), 0u);

  std::vector<std::pair<double, uint64_t>> reference = order;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(order, reference) << "deliveries left (deliver_ms, seq) order";
  EXPECT_EQ(std::adjacent_find(reference.begin(), reference.end()),
            reference.end())
      << "a wire copy was delivered twice";
  EXPECT_EQ(order.size(), c.delivered);

  // The scenario really exercised what the name claims.
  size_t ties = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    ties += order[i].first == order[i - 1].first;
  }
  EXPECT_GT(ties, 0u);
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.dropped_fault, 0u);
  EXPECT_GT(carried, 0u);
  EXPECT_GT(peak_pending, initial_sends / 6)
      << "handler sends should grow the queue past one epoch's pings";
}

// ------------------------ fault injection (bus) ------------------------

TEST(MessageBus, SendRejectsZeroByteEnvelopes) {
  BusFixture fx;
  msg::MessageBus bus(&fx.fabric, {});
  bus.SetHandler(msg::Protocol::kVivaldi, [](const msg::Envelope&) {});

  bus.BeginEpoch();
  const Status st = bus.Send(Ping(0, 1, /*bytes=*/0));
  bus.EndEpoch();

  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(c.sent, 0u) << "a rejected send must not be billed";
  EXPECT_EQ(c.bytes, 0u);
}

TEST(MessageBus, SendRejectsProtocolsWithoutAHandler) {
  BusFixture fx;
  msg::MessageBus bus(&fx.fabric, {});
  // Only Vivaldi is wired up; a kRing send would vanish silently without
  // the guard.
  bus.SetHandler(msg::Protocol::kVivaldi, [](const msg::Envelope&) {});

  msg::Envelope e = Ping(0, 1);
  e.proto = msg::Protocol::kRing;
  e.kind = msg::MsgKind::kPublish;
  bus.BeginEpoch();
  const Status st = bus.Send(e);
  bus.EndEpoch();

  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kRing)];
  EXPECT_EQ(c.sent, 0u);
}

TEST(MessageBus, ZeroRateFaultPlanIsInert) {
  // An explicitly constructed (but all-zero) plan must behave exactly like
  // the default bus: nothing dropped, nothing duplicated, delivery pays the
  // raw fabric latency.
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 1000.0;
  opts.faults.seed = 99;  // a live injector, just with nothing to do
  msg::MessageBus bus(&fx.fabric, opts);

  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi, [&](const msg::Envelope& e) {
    EXPECT_EQ(e.deliver_ms - e.send_ms, fx.fabric.live().Latency(e.from, e.to));
    ++handled;
  });
  bus.BeginEpoch();
  for (NodeId n = 0; n < 6; ++n) EXPECT_TRUE(bus.Send(Ping(n, n + 1)).ok());
  bus.EndEpoch();

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(handled, 6u);
  EXPECT_EQ(c.dropped_fault, 0u);
  EXPECT_EQ(c.duplicated, 0u);
}

TEST(MessageBus, CertainLossDropsOnlyOtherwiseDeliverableMessages) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.faults.protocol[static_cast<size_t>(msg::Protocol::kVivaldi)].loss =
      1.0;
  msg::MessageBus bus(&fx.fabric, opts);
  size_t handled = 0;
  bus.SetHandler(msg::Protocol::kVivaldi,
                 [&](const msg::Envelope&) { ++handled; });

  fx.fabric.SetEndpointDown(5, true);
  bus.BeginEpoch();
  EXPECT_TRUE(bus.Send(Ping(0, 5)).ok());  // dead endpoint wins over fault
  EXPECT_TRUE(bus.Send(Ping(0, 1)).ok());
  EXPECT_TRUE(bus.Send(Ping(2, 3)).ok());
  bus.EndEpoch();

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(c.sent, 3u);
  EXPECT_EQ(c.dropped_dead, 1u) << "drop precedence: dead before faults";
  EXPECT_EQ(c.dropped_fault, 2u);
  EXPECT_EQ(c.bytes, 72u) << "lost transmissions are still paid for";
  // Conservation, exactly: sent == delivered + drops (no pending left).
  EXPECT_EQ(c.sent, c.delivered + c.dropped_dead + c.dropped_partition +
                        c.dropped_fault);
}

TEST(MessageBus, DuplicationDeliversTwoCopiesWithSharedTransferId) {
  BusFixture fx;
  msg::MessageBus::Options opts;
  opts.epoch_ms = 1000.0;
  opts.faults.protocol[static_cast<size_t>(msg::Protocol::kVivaldi)]
      .duplicate = 1.0;
  msg::MessageBus bus(&fx.fabric, opts);

  std::vector<std::pair<uint64_t, uint64_t>> copies;  // (tid, seq)
  bus.SetHandler(msg::Protocol::kVivaldi, [&](const msg::Envelope& e) {
    copies.emplace_back(e.tid, e.seq);
  });
  bus.BeginEpoch();
  EXPECT_TRUE(bus.Send(Ping(0, 1)).ok());
  bus.EndEpoch();

  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0].first, copies[1].first)
      << "both wire copies carry the transfer id (the dedup key)";
  EXPECT_NE(copies[0].second, copies[1].second)
      << "each wire copy gets its own send sequence";

  const auto& c =
      bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
  EXPECT_EQ(c.sent, 2u) << "the duplicate is a real wire copy";
  EXPECT_EQ(c.delivered, 2u);
  EXPECT_EQ(c.duplicated, 1u);
  EXPECT_EQ(c.bytes, 48u);
  EXPECT_EQ(bus.stats().node_msgs[0], 1u)
      << "the *node* transmitted once; the network made the second copy";
}

TEST(MessageBus, FaultyBusReplaysBitIdenticallyFromItsPlan) {
  // Two independently built buses over the same plan must make identical
  // fault decisions and identical delivery schedules — the chaos layer is
  // a pure function of (plan, send stream).
  auto run = [] {
    BusFixture fx;
    msg::MessageBus::Options opts;
    opts.epoch_ms = 50.0;
    auto& r = opts.faults.protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
    r.loss = 0.3;
    r.duplicate = 0.3;
    r.delay_jitter_ms = 20.0;
    msg::MessageBus bus(&fx.fabric, opts);

    std::string trace;
    bus.SetHandler(msg::Protocol::kVivaldi, [&](const msg::Envelope& e) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%llu/%llu@%.6f ",
                    static_cast<unsigned long long>(e.tid),
                    static_cast<unsigned long long>(e.seq), e.deliver_ms);
      trace += buf;
    });
    for (size_t e = 0; e < 6; ++e) {
      bus.BeginEpoch();
      for (NodeId n = 0; n < 8; ++n) EXPECT_TRUE(bus.Send(Ping(n, n + 2)).ok());
      bus.EndEpoch();
    }
    const auto& c =
        bus.stats().protocol[static_cast<size_t>(msg::Protocol::kVivaldi)];
    char tail[128];
    std::snprintf(tail, sizeof(tail), "| sent=%zu del=%zu fault=%zu dup=%zu",
                  c.sent, c.delivered, c.dropped_fault, c.duplicated);
    // Conservation under chaos: every wire copy is delivered, dropped, or
    // still queued.
    EXPECT_EQ(c.sent, c.delivered + c.dropped_dead + c.dropped_partition +
                          c.dropped_fault + bus.pending());
    EXPECT_GT(c.dropped_fault, 0u);
    EXPECT_GT(c.duplicated, 0u);
    return trace + tail;
  };

  const std::string first = run();
  const std::string replay = run();
  EXPECT_EQ(first, replay);
}

// ------------------------- engine message mode -------------------------

engine::EngineOptions MsgEngineOptions(uint64_t seed, double jitter = 0.0) {
  engine::EngineOptions eo;
  eo.topology = MakeTransitStubTopology(TopologySize::kTiny, seed);
  eo.sbon.seed = seed;
  eo.sbon.latency_jitter_sigma = jitter;
  eo.config = TestOptimizerConfig();
  return eo;
}

std::unique_ptr<engine::StreamEngine> MakeEngine(engine::EngineOptions eo) {
  auto created = engine::StreamEngine::Create(std::move(eo));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created.value());
}

engine::EpochOptions MessageEpoch() {
  engine::EpochOptions epoch;
  epoch.dt = 0.5;
  epoch.tick_network = true;
  epoch.vivaldi_samples = 1;
  epoch.refresh_index = true;
  epoch.exec_mode = engine::ExecMode::kMessage;
  return epoch;
}

/// Canonical rendering of a traffic summary for replay comparison (chaos
/// and reliability counters included, so faulty replays are pinned too).
std::string TrafficRender(const msg::TrafficSummary& t) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "epochs=%zu sent=%zu delivered=%zu drop_dead=%zu drop_part=%zu "
      "drop_fault=%zu dup=%zu bytes=%zu viv=%zu/%zu ring=%zu/%zu "
      "place=%zu/%zu conv=%zu converged=%d stale_n=%zu stale_p50=%.1f "
      "stale_p95=%.1f retries=%zu rbytes=%zu acks=%zu supp=%zu exh=%zu "
      "ovf=%zu pend=%zu susp=%zu fsusp=%zu conf=%zu dlat_p50=%.1f "
      "dlat_p95=%.1f\n",
      t.epochs, t.msgs_sent, t.msgs_delivered, t.msgs_dropped_dead,
      t.msgs_dropped_partition, t.msgs_dropped_fault, t.msgs_duplicated,
      t.bytes_total, t.protocol_msgs[0], t.protocol_bytes[0],
      t.protocol_msgs[1], t.protocol_bytes[1], t.protocol_msgs[2],
      t.protocol_bytes[2], t.convergence_epochs, t.converged ? 1 : 0,
      t.staleness_samples, t.staleness_p50, t.staleness_p95, t.retries,
      t.retry_bytes, t.acks, t.dup_suppressed, t.retry_exhausted,
      t.retransmit_overflow, t.retry_pending, t.suspicions,
      t.false_suspicions, t.crash_confirmations, t.detection_p50,
      t.detection_p95);
  return buf;
}

/// Chaos knobs for engine scenarios: the same (loss, duplicate, jitter)
/// rates on every protocol, plus the hardening layers.
msg::RuntimeParams ChaosParams(double loss, double duplicate,
                               double delay_jitter_ms, bool reliability,
                               bool detector) {
  msg::RuntimeParams mp;
  for (msg::FaultRates& r : mp.bus.faults.protocol) {
    r.loss = loss;
    r.duplicate = duplicate;
    r.delay_jitter_ms = delay_jitter_ms;
  }
  mp.reliability.enabled = reliability;
  mp.detector.enabled = detector;
  return mp;
}

/// The coordinate index state OverlayFingerprint does not cover, bit-exact:
/// one line per ring member, `(key.hi, key.lo, node)` followed by the
/// coordinate it published.
std::string IndexStateRender(const overlay::Sbon& sbon) {
  const dht::CoordinateIndex& index = sbon.index();
  std::string out;
  char buf[64];
  for (const dht::ChordRing::Member& m : index.ring().members()) {
    out += "m " + std::to_string(m.key.hi) + " " + std::to_string(m.key.lo) +
           " " + std::to_string(m.node);
    const Vec coord = index.published_coords().NodeVec(m.node);
    for (size_t d = 0; d < coord.dims(); ++d) {
      std::snprintf(buf, sizeof(buf), " %.17g", coord[d]);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

/// One full message-mode scenario: warm-up epoch (creates the runtime so
/// submissions are billed), query submission, churn-driven epochs, then the
/// overlay + traffic fingerprint and the index state.
std::string RunMessageScenario(uint64_t seed,
                               const msg::RuntimeParams& mp =
                                   msg::RuntimeParams()) {
  auto eng = MakeEngine(MsgEngineOptions(seed, /*jitter=*/0.05));
  const query::WorkloadParams wp = TestWorkloadParams();
  eng->SetCatalog(MakeCatalog(eng->sbon(), wp, seed * 31 + 7));
  const auto specs =
      MakeQueries(eng->sbon(), eng->catalog(), wp, 4, seed * 131 + 13);

  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = mp;
  eng->AdvanceEpoch(epoch);  // creates the msg runtime before any placement

  for (const query::QuerySpec& spec : specs) {
    auto handle = eng->Submit(spec);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  }

  net::ChurnModel::Params cp;
  cp.crash_rate = 0.4;
  cp.partition_rate = 0.25;
  cp.partition_duration_epochs = 2;
  cp.seed = seed * 1000003 + 17;
  net::ChurnModel churn(eng->sbon().overlay_nodes(), cp);
  epoch.churn = &churn;
  for (size_t e = 0; e < 8; ++e) {
    const Status st = eng->AdvanceEpoch(epoch);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  EXPECT_TRUE(snapshot.decentralized.has_value());
  std::string fp = OverlayFingerprint(eng->sbon());
  if (snapshot.decentralized.has_value()) {
    fp += TrafficRender(*snapshot.decentralized);
  }
  return fp + IndexStateRender(eng->sbon());
}

TEST(MsgEngine, MessageModeProducesTrafficSummaryAndOracleDoesNot) {
  auto oracle = MakeEngine(MsgEngineOptions(21));
  engine::EpochOptions epoch;
  epoch.vivaldi_samples = 1;
  oracle->AdvanceEpoch(epoch);
  EXPECT_FALSE(oracle->Snapshot().decentralized.has_value());
  EXPECT_EQ(oracle->msg_runtime(), nullptr);

  auto messaged = MakeEngine(MsgEngineOptions(21));
  engine::EpochOptions mepoch = MessageEpoch();
  for (size_t e = 0; e < 4; ++e) messaged->AdvanceEpoch(mepoch);
  const engine::EngineSnapshot snapshot = messaged->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_EQ(t.epochs, 4u);
  // Every epoch pings once per overlay node and heartbeats once per ring
  // member; the first epoch also publishes whatever load drift displaced.
  EXPECT_GT(t.protocol_msgs[static_cast<size_t>(msg::Protocol::kVivaldi)], 0u);
  EXPECT_GT(t.protocol_msgs[static_cast<size_t>(msg::Protocol::kRing)], 0u);
  EXPECT_GT(t.msgs_delivered, 0u);
  EXPECT_GT(t.bytes_per_node_per_epoch, 0.0);
  EXPECT_TRUE(t.converged);  // no churn ran
}

TEST(MsgEngine, PlacementsAfterRuntimeCreationAreBilledAndStamped) {
  auto eng = MakeEngine(MsgEngineOptions(33));
  engine::EpochOptions epoch = MessageEpoch();
  eng->AdvanceEpoch(epoch);

  const query::WorkloadParams wp = TestWorkloadParams();
  eng->SetCatalog(MakeCatalog(eng->sbon(), wp, 333));
  const auto specs = MakeQueries(eng->sbon(), eng->catalog(), wp, 3, 334);
  for (const query::QuerySpec& spec : specs) {
    ASSERT_TRUE(eng->Submit(spec).ok());
  }

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_GT(t.protocol_msgs[static_cast<size_t>(msg::Protocol::kPlacement)],
            0u)
      << "placement probes after runtime creation must be billed";
  EXPECT_GT(t.staleness_samples, 0u)
      << "every placed vertex must contribute a staleness sample";
}

TEST(MsgEngine, ReoptimizationLookupsAreBilled) {
  // Both re-optimization modes query the index; message mode bills that
  // traffic whether or not the re-optimization changed anything.
  auto eng = MakeEngine(MsgEngineOptions(35));
  eng->AdvanceEpoch(MessageEpoch());
  const query::WorkloadParams wp = TestWorkloadParams();
  eng->SetCatalog(MakeCatalog(eng->sbon(), wp, 353));
  const auto specs = MakeQueries(eng->sbon(), eng->catalog(), wp, 3, 354);
  std::vector<engine::QueryHandle> handles;
  for (const query::QuerySpec& spec : specs) {
    auto h = eng->Submit(spec);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(*h);
  }
  const auto placement_msgs = [&] {
    return eng->Snapshot().decentralized->protocol_msgs[static_cast<size_t>(
        msg::Protocol::kPlacement)];
  };
  const auto msgs_of = [](const dht::IndexQueryCost& c) {
    return c.lookups + c.routing_hops + c.ring_probes;
  };

  engine::ReoptPolicy local;
  local.mode = engine::ReoptPolicy::Mode::kLocal;
  const size_t before_local = placement_msgs();
  auto lo = eng->Reoptimize(handles[0], local);
  ASSERT_TRUE(lo.ok()) << lo.status().ToString();
  const size_t local_msgs = msgs_of(lo->local.mapping.dht_cost);
  EXPECT_GT(local_msgs, 0u);
  EXPECT_EQ(placement_msgs() - before_local, local_msgs);

  engine::ReoptPolicy full;
  full.mode = engine::ReoptPolicy::Mode::kFull;
  full.config.replan_threshold = 1.0;  // no candidate can clear the bar
  const size_t before_full = placement_msgs();
  auto fo = eng->Reoptimize(handles[1], full);
  ASSERT_TRUE(fo.ok()) << fo.status().ToString();
  ASSERT_FALSE(fo->full.redeployed);
  const size_t full_msgs = msgs_of(fo->full.candidate.mapping.dht_cost);
  EXPECT_GT(full_msgs, 0u);
  EXPECT_EQ(placement_msgs() - before_full, full_msgs);
}

TEST(MsgEngine, FiveSeedBitIdenticalReplay) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string first = RunMessageScenario(seed);
    const std::string replay = RunMessageScenario(seed);
    EXPECT_EQ(first, replay) << "same-seed replay diverged";
  }
}

TEST(MsgEngine, MessageCoordinatesTrackOracleAtZeroChurn) {
  // Same seed, no jitter, no churn: after K epochs of online sampling the
  // message-mode embedding must predict latencies about as well as the
  // oracle sweep's — the bounded peer set and pong round trips re-derive
  // the same springs, just over explicit traffic.
  auto oracle = MakeEngine(MsgEngineOptions(55));
  auto messaged = MakeEngine(MsgEngineOptions(55));

  engine::EpochOptions oepoch;
  oepoch.dt = 0.0;
  oepoch.tick_network = false;
  oepoch.vivaldi_samples = 2;
  engine::EpochOptions mepoch = oepoch;
  mepoch.exec_mode = engine::ExecMode::kMessage;

  for (size_t e = 0; e < 30; ++e) {
    oracle->AdvanceEpoch(oepoch);
    messaged->AdvanceEpoch(mepoch);
  }

  auto embedding_error = [](const engine::StreamEngine& eng) {
    const coords::VivaldiSystem* vivaldi = eng.sbon().coords().vivaldi();
    EXPECT_NE(vivaldi, nullptr);
    const auto& nodes = eng.sbon().overlay_nodes();
    double abs_err = 0.0, total = 0.0;
    size_t pairs = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = i + 1; j < nodes.size(); j += 3) {  // sampled pairs
        const double actual = eng.sbon().latency().Latency(nodes[i], nodes[j]);
        abs_err += std::fabs(vivaldi->Predict(nodes[i], nodes[j]) - actual);
        total += actual;
        ++pairs;
      }
    }
    return pairs > 0 ? abs_err / total : 0.0;
  };

  const double oracle_err = embedding_error(*oracle);
  const double msg_err = embedding_error(*messaged);
  // Both embeddings must be usable (relative error well under 1) and the
  // message-mode one must stay within shouting distance of the oracle's.
  EXPECT_LT(oracle_err, 0.5);
  EXPECT_LT(msg_err, 0.5);
  EXPECT_LT(msg_err, oracle_err * 2.0 + 0.05);
}

TEST(MsgEngine, PartitionDropsTrafficWhileActive) {
  auto eng = MakeEngine(MsgEngineOptions(77));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});

  // Cut off a third of the overlay for three epochs.
  const auto& nodes = eng->sbon().overlay_nodes();
  net::ChurnEvent start;
  start.type = net::ChurnEventType::kPartitionStart;
  start.group.assign(nodes.begin(), nodes.begin() + nodes.size() / 3);
  start.severity = 8.0;
  churn.ScheduleAt(1, start);
  net::ChurnEvent heal;
  heal.type = net::ChurnEventType::kPartitionHeal;
  churn.ScheduleAt(4, heal);

  engine::EpochOptions epoch = MessageEpoch();
  epoch.churn = &churn;
  for (size_t e = 0; e < 6; ++e) eng->AdvanceEpoch(epoch);

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  EXPECT_GT(snapshot.decentralized->msgs_dropped_partition, 0u)
      << "cross-cut control traffic must drop while the partition is active";
  EXPECT_GE(snapshot.decentralized->msgs_sent,
            snapshot.decentralized->msgs_delivered);
}

TEST(MsgEngine, RingReconvergesAfterScriptedCrashBurst) {
  auto eng = MakeEngine(MsgEngineOptions(91));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  const auto& nodes = eng->sbon().overlay_nodes();
  ASSERT_GE(nodes.size(), 9u);
  for (size_t k = 0; k < 3; ++k) {
    net::ChurnEvent crash;
    crash.type = net::ChurnEventType::kCrash;
    crash.node = nodes[2 + 3 * k];
    churn.ScheduleAt(2, crash);
  }

  // Static network and load: the crash burst is the only perturbation.
  // Sampling stays on through the burst (so in-flight pings to the dead
  // nodes drop and repairs see moving coordinates), then stops — once
  // nothing displaces coordinates anymore, the displacement-gated publishes
  // drain to zero and the ring re-quiesces, which is what the convergence
  // clock measures.
  engine::EpochOptions epoch = MessageEpoch();
  epoch.dt = 0.0;
  epoch.tick_network = false;
  epoch.refresh_epsilon = 1.0;
  epoch.churn = &churn;
  for (size_t e = 0; e < 5; ++e) eng->AdvanceEpoch(epoch);
  epoch.vivaldi_samples = 0;
  for (size_t e = 5; e < 12; ++e) eng->AdvanceEpoch(epoch);

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_TRUE(t.converged)
      << "the ring must re-quiesce within the epoch budget";
  EXPECT_GE(t.convergence_epochs, 1u);
  EXPECT_LT(t.convergence_epochs, 12u);
  EXPECT_GT(t.msgs_dropped_dead, 0u)
      << "in-flight traffic addressed to the crashed nodes must drop";
}

// --------------------- chaos mode (engine + agents) ---------------------

TEST(MsgEngine, RuntimeParamsAreValidatedAtTheFirstMessageEpoch) {
  struct Case {
    const char* what;
    void (*break_params)(msg::RuntimeParams*);
  };
  const Case cases[] = {
      {"non-positive epoch_ms",
       [](msg::RuntimeParams* p) { p->bus.epoch_ms = 0.0; }},
      {"loss above 1",
       [](msg::RuntimeParams* p) {
         p->bus.faults.protocol[0].loss = 1.5;
       }},
      {"negative delay jitter",
       [](msg::RuntimeParams* p) {
         p->bus.faults.protocol[1].delay_jitter_ms = -1.0;
       }},
      {"reliability with zero retry wait",
       [](msg::RuntimeParams* p) {
         p->reliability.enabled = true;
         p->reliability.retry_after_epochs = 0;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto eng = MakeEngine(MsgEngineOptions(11));
    engine::EpochOptions epoch = MessageEpoch();
    c.break_params(&epoch.msg);
    const Status st = eng->AdvanceEpoch(epoch);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(eng->msg_runtime(), nullptr)
        << "a rejected first message epoch must not create the runtime";

    // Oracle epochs never consult the message params: the same broken
    // knobs are inert outside message mode.
    engine::EpochOptions oracle;
    oracle.msg = epoch.msg;
    EXPECT_TRUE(eng->AdvanceEpoch(oracle).ok());
  }
}

TEST(MsgEngine, ReliabilityRetriesLostPublishesUntilAcked) {
  // 40% ring loss with reliability on: publishes (and their acks) keep
  // getting lost, the pending queue times out and retransmits with capped
  // backoff, and the retry traffic is billed as real bytes.
  msg::RuntimeParams mp;
  mp.bus.faults.protocol[static_cast<size_t>(msg::Protocol::kRing)].loss =
      0.4;
  mp.reliability.enabled = true;
  mp.reliability.retry_after_epochs = 1;

  auto eng = MakeEngine(MsgEngineOptions(63));
  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = mp;
  for (size_t e = 0; e < 12; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
  }

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_GT(t.msgs_dropped_fault, 0u);
  EXPECT_GT(t.acks, 0u) << "delivered reliable kinds must be acked";
  EXPECT_GT(t.retries, 0u) << "lost publishes must be retransmitted";
  EXPECT_GT(t.retry_bytes, 0u) << "retransmissions are real traffic";
  EXPECT_LE(t.retry_pending, mp.reliability.max_pending);
  EXPECT_GE(t.msgs_sent, t.msgs_delivered + t.msgs_dropped_dead +
                             t.msgs_dropped_partition + t.msgs_dropped_fault);
}

TEST(MsgEngine, DuplicatedDeliveryIsIdempotentForEveryHandler) {
  // Certain duplication of every message vs. no faults at all, both with
  // the dedup windows on, across a scripted crash + rejoin (so every kind
  // is exercised: ping/pong, publish, stabilize, leave fanout, join, ack).
  // The overlay must end bit-identical: the windows suppress every second
  // copy before it reaches a handler side effect.
  auto run = [](const msg::RuntimeParams& mp) {
    auto eng = MakeEngine(MsgEngineOptions(47));
    engine::EpochOptions epoch = MessageEpoch();
    epoch.msg = mp;
    EXPECT_TRUE(eng->AdvanceEpoch(epoch).ok());

    net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
    const NodeId victim = eng->sbon().overlay_nodes()[3];
    net::ChurnEvent crash;
    crash.type = net::ChurnEventType::kCrash;
    crash.node = victim;
    churn.ScheduleAt(1, crash);
    net::ChurnEvent rejoin;
    rejoin.type = net::ChurnEventType::kRejoin;
    rejoin.node = victim;
    churn.ScheduleAt(4, rejoin);

    epoch.churn = &churn;
    for (size_t e = 0; e < 8; ++e) {
      EXPECT_TRUE(eng->AdvanceEpoch(epoch).ok());
    }
    const engine::EngineSnapshot snapshot = eng->Snapshot();
    EXPECT_TRUE(snapshot.decentralized.has_value());
    return std::make_pair(OverlayFingerprint(eng->sbon()),
                          *snapshot.decentralized);
  };

  const auto clean = run(ChaosParams(0.0, 0.0, 0.0, /*reliability=*/true,
                                     /*detector=*/false));
  const auto duplicated = run(ChaosParams(0.0, 1.0, 0.0, /*reliability=*/true,
                                          /*detector=*/false));

  EXPECT_EQ(clean.first, duplicated.first)
      << "network duplication leaked into overlay state";
  EXPECT_EQ(clean.second.msgs_duplicated, 0u)
      << "the clean run's network must make no copies";
  EXPECT_GT(duplicated.second.msgs_duplicated, 0u);
  // The clean run may suppress the odd crash-induced *retransmission* (the
  // windows exist for those too); the duplicated run must suppress far
  // more — every network copy that reaches a handler.
  EXPECT_GT(duplicated.second.dup_suppressed, clean.second.dup_suppressed)
      << "the dedup windows must be doing the suppression";
}

TEST(MsgEngine, RetransmitQueueIsBoundedAndOverflowCounts) {
  // A two-slot pending queue under heavy ring loss: most displacement
  // publishes can't be tracked. They still go out once (best effort), the
  // overflow is counted, and the queue never exceeds its bound.
  msg::RuntimeParams mp;
  mp.bus.faults.protocol[static_cast<size_t>(msg::Protocol::kRing)].loss =
      0.5;
  mp.reliability.enabled = true;
  mp.reliability.max_pending = 2;
  mp.reliability.retry_after_epochs = 1;

  auto eng = MakeEngine(MsgEngineOptions(29));
  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = mp;
  for (size_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
  }

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_GT(t.retransmit_overflow, 0u);
  EXPECT_LE(t.retry_pending, 2u);
}

TEST(MsgEngine, FailureDetectorConfirmsACrashAndDrivesRepair) {
  // Scripted crash with the detector on: the node's endpoint goes dark but
  // the overlay is not told. Silence builds suspicion, the confirmation
  // timeout expires, and only then does the engine run FailNode + repair.
  // With the detector's (suspect, confirm) windows of (2, 2) the crash
  // at epoch 2 confirms at epoch 5: detection latency exactly 3 epochs.
  auto eng = MakeEngine(MsgEngineOptions(44));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  const NodeId victim = eng->sbon().overlay_nodes()[4];
  net::ChurnEvent crash;
  crash.type = net::ChurnEventType::kCrash;
  crash.node = victim;
  churn.ScheduleAt(2, crash);

  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = ChaosParams(0.0, 0.0, 0.0, /*reliability=*/false,
                          /*detector=*/true);
  epoch.churn = &churn;

  size_t confirmed_at = 0;
  for (size_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
    if (e >= 2 && e < 5) {
      EXPECT_TRUE(eng->sbon().IsAlive(victim))
          << "the overlay must not learn of the crash before confirmation";
      EXPECT_EQ(eng->Snapshot().repair.crashes, 0u);
    }
    if (confirmed_at == 0 && !eng->sbon().IsAlive(victim)) confirmed_at = e;
  }

  EXPECT_EQ(confirmed_at, 5u);
  EXPECT_FALSE(eng->sbon().IsAlive(victim));
  const engine::EngineSnapshot snapshot = eng->Snapshot();
  EXPECT_EQ(snapshot.repair.crashes, 1u) << "confirmation must drive repair";
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_EQ(t.crash_confirmations, 1u);
  ASSERT_EQ(t.detection_samples, 1u);
  EXPECT_EQ(t.detection_p50, 3.0);
  EXPECT_GE(t.suspicions, 1u);
}

TEST(MsgEngine, RejoinBeforeConfirmationCancelsThePendingCrash) {
  // The node comes back while the detector is still counting silence: the
  // endpoint is simply restored, no failure or repair ever happens, and
  // the suspicion is written off as false.
  auto eng = MakeEngine(MsgEngineOptions(46));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  const NodeId victim = eng->sbon().overlay_nodes()[4];
  net::ChurnEvent crash;
  crash.type = net::ChurnEventType::kCrash;
  crash.node = victim;
  churn.ScheduleAt(2, crash);
  net::ChurnEvent rejoin;
  rejoin.type = net::ChurnEventType::kRejoin;
  rejoin.node = victim;
  churn.ScheduleAt(4, rejoin);

  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = ChaosParams(0.0, 0.0, 0.0, /*reliability=*/false,
                          /*detector=*/true);
  epoch.churn = &churn;
  for (size_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
  }

  EXPECT_TRUE(eng->sbon().IsAlive(victim));
  const engine::EngineSnapshot snapshot = eng->Snapshot();
  EXPECT_EQ(snapshot.repair.crashes, 0u);
  EXPECT_EQ(snapshot.repair.rejoins, 0u)
      << "an un-noticed crash needs no ring re-join";
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_EQ(t.crash_confirmations, 0u);
  EXPECT_EQ(t.detection_samples, 0u);
  EXPECT_GE(t.false_suspicions, 1u)
      << "the aborted suspicion must be accounted";
  EXPECT_GE(t.suspicions_refuted, 1u) << "the rejoin's heartbeat refutes it";
  EXPECT_EQ(t.confirmations_vetoed, 0u) << "nothing was ever confirmed";
  EXPECT_EQ(t.suspicions_refuted + t.confirmations_vetoed,
            t.false_suspicions);
}

TEST(MsgEngine, PartitionSilenceIsAFalseSuspicionNotACrash) {
  // A long partition starves cross-cut heartbeats. The detector suspects —
  // and even confirms — members that are perfectly alive; the engine
  // rejects those verdicts (the nodes never went through CrashEndpoint)
  // and the detector starts over. Nobody is ever failed.
  auto eng = MakeEngine(MsgEngineOptions(48));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  const auto& nodes = eng->sbon().overlay_nodes();
  net::ChurnEvent start;
  start.type = net::ChurnEventType::kPartitionStart;
  start.group.assign(nodes.begin(), nodes.begin() + nodes.size() / 3);
  start.severity = 8.0;
  churn.ScheduleAt(1, start);
  net::ChurnEvent heal;
  heal.type = net::ChurnEventType::kPartitionHeal;
  churn.ScheduleAt(8, heal);

  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = ChaosParams(0.0, 0.0, 0.0, /*reliability=*/false,
                          /*detector=*/true);
  epoch.churn = &churn;
  for (size_t e = 0; e < 10; ++e) {
    ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
  }

  for (NodeId n : eng->sbon().overlay_nodes()) {
    EXPECT_TRUE(eng->sbon().IsAlive(n));
  }
  const engine::EngineSnapshot snapshot = eng->Snapshot();
  EXPECT_EQ(snapshot.repair.crashes, 0u)
      << "partition-starved members must never be failed";
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_GT(t.suspicions, 0u);
  EXPECT_GT(t.false_suspicions, 0u);
  EXPECT_GT(t.confirmations_vetoed, 0u)
      << "partition silence outlasts the confirmation timeout";
  EXPECT_EQ(t.suspicions_refuted + t.confirmations_vetoed,
            t.false_suspicions);
  EXPECT_EQ(t.crash_confirmations, 0u);
  EXPECT_EQ(t.detection_samples, 0u);
}

TEST(MsgEngine, RingReconvergesUnderChaosWithDetector) {
  // The acceptance scenario: 10% loss + 5% duplication on every protocol,
  // reliability + detector on, and a scripted three-node crash burst. The
  // detector must confirm all three (with its fixed 3-epoch latency), the
  // deferred repairs must run, and the ring must still re-quiesce within
  // the epoch budget despite retries and lost publishes.
  msg::RuntimeParams mp = ChaosParams(0.10, 0.05, 0.0, /*reliability=*/true,
                                      /*detector=*/true);
  // Tight retry schedule so exhausted transfers stop echoing publishes
  // well inside the budget (worst chain: 5 + 1 + 2 + 2 epochs).
  mp.reliability.retry_after_epochs = 1;
  mp.reliability.max_backoff_epochs = 2;
  mp.reliability.max_retries = 3;

  auto eng = MakeEngine(MsgEngineOptions(91));
  net::ChurnModel churn(eng->sbon().overlay_nodes(), {});
  const auto& nodes = eng->sbon().overlay_nodes();
  ASSERT_GE(nodes.size(), 9u);
  for (size_t k = 0; k < 3; ++k) {
    net::ChurnEvent crash;
    crash.type = net::ChurnEventType::kCrash;
    crash.node = nodes[2 + 3 * k];
    churn.ScheduleAt(2, crash);
  }

  engine::EpochOptions epoch = MessageEpoch();
  epoch.msg = mp;
  epoch.dt = 0.0;
  epoch.tick_network = false;
  epoch.refresh_epsilon = 1.0;
  epoch.churn = &churn;
  for (size_t e = 0; e < 5; ++e) ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());
  epoch.vivaldi_samples = 0;
  for (size_t e = 5; e < 20; ++e) ASSERT_TRUE(eng->AdvanceEpoch(epoch).ok());

  const engine::EngineSnapshot snapshot = eng->Snapshot();
  EXPECT_EQ(snapshot.repair.crashes, 3u);
  ASSERT_TRUE(snapshot.decentralized.has_value());
  const msg::TrafficSummary& t = *snapshot.decentralized;
  EXPECT_EQ(t.crash_confirmations, 3u);
  EXPECT_EQ(t.detection_samples, 3u);
  EXPECT_EQ(t.detection_p50, 3.0)
      << "silent nodes confirm on the fixed detector schedule";
  EXPECT_TRUE(t.converged)
      << "the ring must re-quiesce under chaos within the epoch budget";
  EXPECT_GT(t.msgs_dropped_fault, 0u);
  EXPECT_GT(t.msgs_duplicated, 0u);
  EXPECT_LE(t.retry_pending, mp.reliability.max_pending);
  EXPECT_GE(t.msgs_sent, t.msgs_delivered + t.msgs_dropped_dead +
                             t.msgs_dropped_partition + t.msgs_dropped_fault);
}

TEST(MsgEngine, ChaosRunsReplayBitIdentically) {
  // The full chaos stack (loss + duplication + delay jitter + reliability
  // + detector) over random churn: the run must be a pure function of the
  // seed — same fingerprint (overlay + every chaos counter) on a second
  // run.
  msg::RuntimeParams mp = ChaosParams(0.10, 0.05, 10.0, /*reliability=*/true,
                                      /*detector=*/true);
  for (uint64_t seed : {6u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string first = RunMessageScenario(seed, mp);
    const std::string replay = RunMessageScenario(seed, mp);
    EXPECT_EQ(first, replay) << "same-seed chaos replay diverged";
  }
}

TEST(MsgEngine, MessageModeStateMatchesPinnedGolden) {
  // Pins the whole message-mode end state, polite and under full chaos:
  // placement, every traffic and chaos counter, the ring membership and
  // every published coordinate. A change to how the bus drains or how the
  // ring applies delivered publishes must leave all of it bit-identical.
  const msg::RuntimeParams chaos = ChaosParams(
      0.10, 0.05, 10.0, /*reliability=*/true, /*detector=*/true);
  std::string state = "== seed 3 polite\n" + RunMessageScenario(3);
  for (uint64_t seed : {6u, 7u}) {
    state += "== seed " + std::to_string(seed) + " chaos\n" +
             RunMessageScenario(seed, chaos);
  }
  EXPECT_EQ("", CheckGolden("msg_state", state));
}

TEST(MsgEngine, ScenarioMatrixHoldsInvariantsUnderChaos) {
  // The chaos acceptance sweep: every matrix cell runs with 10% loss + 5%
  // duplication + delay jitter, reliability and detector on, random crash
  // churn and partitions — and the matrix's invariant battery (orphan
  // scan, load books, conservation with dropped_fault, bounded pending,
  // bit-identical replay) must hold in every cell.
  MatrixOptions mo;
  mo.size = TopologySize::kTiny;
  mo.queries = 4;
  mo.epochs = 8;
  mo.exec_mode = engine::ExecMode::kMessage;
  mo.churn.partition_rate = 0.2;
  mo.churn.partition_duration_epochs = 2;
  mo.msg = ChaosParams(0.10, 0.05, 5.0, /*reliability=*/true,
                       /*detector=*/true);
  ScenarioMatrix matrix(mo);
  const auto cells = ScenarioMatrix::Rotation(
      {0.0, 0.5}, {0.0, 0.05}, {0.0, 0.3}, {"integrated"},
      {401, 402, 403});
  const auto outcomes = matrix.Run(cells);
  EXPECT_EQ(outcomes.size(), cells.size());
  for (const CellOutcome& o : outcomes) {
    EXPECT_GT(o.queries_submitted, 0u);
    EXPECT_NE(o.fingerprint.find("drop_fault"), std::string::npos)
        << "chaos fingerprints must pin the fault counters";
  }
}

TEST(MsgEngine, ScenarioMatrixHoldsInvariantsInMessageMode) {
  MatrixOptions mo;
  mo.size = TopologySize::kTiny;
  mo.queries = 4;
  mo.epochs = 6;
  mo.exec_mode = engine::ExecMode::kMessage;
  mo.churn.partition_rate = 0.2;
  mo.churn.partition_duration_epochs = 2;
  ScenarioMatrix matrix(mo);
  const auto cells = ScenarioMatrix::Rotation(
      {0.0, 0.5}, {0.0, 0.05}, {0.0, 0.3}, {"integrated"},
      {101, 202, 303});
  const auto outcomes = matrix.Run(cells);
  EXPECT_EQ(outcomes.size(), cells.size());
  for (const CellOutcome& o : outcomes) {
    EXPECT_GT(o.queries_submitted, 0u);
    EXPECT_NE(o.fingerprint.find("traffic "), std::string::npos)
        << "message-mode fingerprints must pin the traffic counters";
  }
}

}  // namespace
}  // namespace sbon::test
