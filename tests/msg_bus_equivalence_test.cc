// Equivalence of msg::MessageBus with the heap-only reference bus
// (harness/reference_message_bus.h). MessageBus sorts the keys sent outside
// a drain once per epoch and merges them with a heap of the keys handlers
// send during the drain; the reference pushes every key onto one heap. Both
// must deliver the same envelopes in the same (deliver_ms, seq) order.
//
// Seeded random programs drive the two buses in lockstep over one fabric:
// equal delivery-time ties (repeated pairs, zero-latency self-sends and
// undelayed network duplicates), replies and zero-latency sends from
// handlers, loss / duplication / extra-delay fault plans, endpoints that
// die between send and delivery, partitions, epochs short enough that keys
// carry over across several of them, and batches of a few keys and of a
// few hundred. One plan runs on a full mesh of equal links, an even
// multiple of the epoch long, so a reply carried past the horizon falls
// due with the sends of a later epoch: ties between carried keys and fresh
// ones, which the run counts. After every epoch each delivered
// (seq, tid, send_ms, deliver_ms, from, to, kind), the queue size and the
// traffic counters must match exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/fixtures.h"
#include "harness/reference_message_bus.h"
#include "msg/fault.h"
#include "msg/message.h"
#include "msg/message_bus.h"
#include "net/fabric.h"

namespace sbon::test {
namespace {

struct Delivery {
  uint64_t seq;
  uint64_t tid;
  double send_ms;
  double deliver_ms;
  NodeId from;
  NodeId to;
  msg::MsgKind kind;

  bool operator==(const Delivery&) const = default;
};

std::string Describe(const Delivery& d) {
  return "seq=" + std::to_string(d.seq) + " tid=" + std::to_string(d.tid) +
         " sent=" + std::to_string(d.send_ms) +
         " at=" + std::to_string(d.deliver_ms) + " " + std::to_string(d.from) +
         "->" + std::to_string(d.to) +
         " kind=" + std::to_string(static_cast<int>(d.kind));
}

msg::Envelope Make(msg::Protocol proto, msg::MsgKind kind, NodeId from,
                   NodeId to, size_t bytes) {
  msg::Envelope e;
  e.proto = proto;
  e.kind = kind;
  e.from = from;
  e.to = to;
  e.subject = from;
  e.bytes = bytes;
  return e;
}

/// Logs every delivery on `bus` and answers by a fixed rule of the
/// envelope alone, so both buses send the same replies: a ping gets a pong
/// back, and every third ping also a zero-latency ack the receiver sends
/// itself; a pong sets off one to three publishes to the receiver's next
/// node, which share one delivery time. Publishes, acks and heartbeats end
/// their chains.
template <typename Bus>
void WireHandlers(Bus* bus, size_t num_nodes, std::vector<Delivery>* log) {
  const auto record = [log](const msg::Envelope& e) {
    log->push_back(
        Delivery{e.seq, e.tid, e.send_ms, e.deliver_ms, e.from, e.to, e.kind});
  };
  bus->SetHandler(msg::Protocol::kVivaldi, [=](const msg::Envelope& e) {
    record(e);
    if (e.kind == msg::MsgKind::kPing) {
      (void)bus->Send(Make(msg::Protocol::kVivaldi, msg::MsgKind::kPong, e.to,
                           e.from, 56));
      if (e.seq % 3 == 0) {
        (void)bus->Send(
            Make(msg::Protocol::kRing, msg::MsgKind::kAck, e.to, e.to, 16));
      }
    } else if (e.kind == msg::MsgKind::kPong) {
      const NodeId next = static_cast<NodeId>((e.to + 1) % num_nodes);
      for (uint64_t i = 0; i <= e.seq % 3; ++i) {
        (void)bus->Send(Make(msg::Protocol::kRing, msg::MsgKind::kPublish,
                             e.to, next, 64));
      }
    }
  });
  bus->SetHandler(msg::Protocol::kRing, record);
}

void ExpectSameTraffic(const msg::TrafficStats& got,
                       const msg::TrafficStats& want) {
  for (size_t p = 0; p < msg::kNumProtocols; ++p) {
    SCOPED_TRACE(msg::ProtocolName(static_cast<msg::Protocol>(p)));
    const msg::TrafficCounters& a = got.protocol[p];
    const msg::TrafficCounters& b = want.protocol[p];
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped_dead, b.dropped_dead);
    EXPECT_EQ(a.dropped_partition, b.dropped_partition);
    EXPECT_EQ(a.dropped_fault, b.dropped_fault);
    EXPECT_EQ(a.duplicated, b.duplicated);
    EXPECT_EQ(a.bytes, b.bytes);
  }
  EXPECT_EQ(got.node_msgs, want.node_msgs);
  EXPECT_EQ(got.node_bytes, want.node_bytes);
  EXPECT_EQ(got.epochs, want.epochs);
}

struct Config {
  const char* name;
  double epoch_ms;
  double loss;
  double duplicate;
  double delay_jitter_ms;
  /// Latency of every link of a full mesh; 0 runs on a transit-stub
  /// topology instead.
  double uniform_latency_ms = 0.0;
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

class BusEquivalenceTest : public testing::TestWithParam<Config> {};

// `n` nodes, each pair joined by one link of `latency_ms`: every message
// between two nodes takes exactly that long.
net::Topology MakeFullMesh(size_t n, double latency_ms) {
  net::Topology topo;
  for (size_t i = 0; i < n; ++i) topo.AddNode(net::NodeKind::kHost);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      EXPECT_TRUE(topo.AddLink(a, b, latency_ms).ok());
    }
  }
  return topo;
}

// Counts the runs of equal delivery times in one epoch's `log` that hold
// both a key carried in from an earlier epoch (sent before `epoch_start`)
// and one sent in this epoch.
size_t CountCarriedTies(const std::vector<Delivery>& log,
                        double epoch_start) {
  size_t ties = 0;
  for (size_t i = 0; i < log.size();) {
    size_t end = i;
    bool carried = false;
    bool fresh = false;
    for (; end < log.size() && log[end].deliver_ms == log[i].deliver_ms;
         ++end) {
      (log[end].send_ms < epoch_start ? carried : fresh) = true;
    }
    if (carried && fresh) ++ties;
    i = end;
  }
  return ties;
}

// One seeded program: per epoch, partition and endpoint churn, a batch of
// sends (a few or a few hundred, some between epochs), deaths between send
// and delivery, then EndEpoch on both buses and a full comparison. Adds
// each epoch's CountCarriedTies to `*carried_ties`.
void RunProgram(const Config& config, uint64_t seed, size_t* carried_ties) {
  net::Topology topo =
      config.uniform_latency_ms > 0.0
          ? MakeFullMesh(24, config.uniform_latency_ms)
          : MakeTransitStubTopology(TopologySize::kTiny, seed);
  Rng fabric_rng(seed);
  net::NetworkFabric::Options fabric_options;
  fabric_options.base_mode = net::NetworkFabric::BaseMode::kDense;
  net::NetworkFabric fabric(topo, /*jitter_sigma=*/0.0, &fabric_rng,
                            fabric_options);
  const size_t n = fabric.NumNodes();

  msg::MessageBus::Options options;
  options.seed = seed;
  options.epoch_ms = config.epoch_ms;
  options.faults.seed = seed * 7 + 1;
  for (msg::FaultRates& r : options.faults.protocol) {
    r.loss = config.loss;
    r.duplicate = config.duplicate;
    r.delay_jitter_ms = config.delay_jitter_ms;
  }
  msg::MessageBus bus(&fabric, options);
  ReferenceMessageBus ref(&fabric, options);
  std::vector<Delivery> got;
  std::vector<Delivery> want;
  WireHandlers(&bus, n, &got);
  WireHandlers(&ref, n, &want);

  Rng rng(seed * 1000003 + 17);
  const auto node = [&] { return static_cast<NodeId>(rng.UniformInt(n)); };
  const auto send_batch = [&](size_t count) {
    NodeId from = node();
    NodeId to = node();
    for (size_t i = 0; i < count; ++i) {
      const uint64_t shape = rng.UniformInt(10);
      if (shape < 6) {  // a fresh pair; otherwise repeat the last one
        from = node();
        to = shape == 0 ? from : node();  // self-sends have zero latency
      }
      const uint64_t kind = rng.UniformInt(3);
      msg::Envelope e =
          kind == 0   ? Make(msg::Protocol::kVivaldi, msg::MsgKind::kPing,
                             from, to, 24)
          : kind == 1 ? Make(msg::Protocol::kRing, msg::MsgKind::kStabilize,
                             from, to, 16)
                      : Make(msg::Protocol::kRing, msg::MsgKind::kPublish,
                             from, to, 64);
      if (rng.UniformInt(50) == 0) e.bytes = 0;  // rejected by both
      const Status a = bus.Send(e);
      const Status b = ref.Send(e);
      ASSERT_EQ(a.code(), b.code());
    }
  };

  for (size_t epoch = 0; epoch < 80; ++epoch) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " epoch " +
                 std::to_string(epoch));
    if (!fabric.partition_active() && rng.UniformInt(8) == 0) {
      std::vector<NodeId> group;
      for (NodeId v = 0; v < n; ++v) {
        if (rng.UniformInt(3) == 0) group.push_back(v);
      }
      ASSERT_TRUE(fabric.BeginPartition(group, 4.0).ok());
    } else if (fabric.partition_active() && rng.UniformInt(3) == 0) {
      ASSERT_TRUE(fabric.EndPartition().ok());
    }
    // Mostly revivals, so deaths below do not pile up.
    for (size_t i = rng.UniformInt(4); i > 0; --i) {
      fabric.SetEndpointDown(node(), rng.UniformInt(4) == 0);
    }
    // Sends between epochs queue for the next drain, as within one.
    send_batch(rng.UniformInt(4));
    if (testing::Test::HasFatalFailure()) return;
    bus.BeginEpoch();
    ref.BeginEpoch();
    ASSERT_EQ(bus.now_ms(), ref.now_ms());
    const double epoch_start = bus.now_ms();
    // Batches of a few keys and of a few hundred.
    send_batch(rng.UniformInt(2) == 0 ? rng.UniformInt(40)
                                      : 150 + rng.UniformInt(250));
    if (testing::Test::HasFatalFailure()) return;
    // Deaths between send and delivery (the churn stage runs mid-epoch).
    for (size_t i = rng.UniformInt(3); i > 0; --i) {
      fabric.SetEndpointDown(node(), true);
    }
    got.clear();
    want.clear();
    bus.EndEpoch();
    ref.EndEpoch();

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "delivery " << i << ": got "
                                 << Describe(got[i]) << ", want "
                                 << Describe(want[i]);
    }
    ASSERT_EQ(bus.pending(), ref.pending());
    ASSERT_EQ(bus.now_ms(), ref.now_ms());
    ExpectSameTraffic(bus.stats(), ref.stats());
    if (testing::Test::HasFailure()) return;
    *carried_ties += CountCarriedTies(got, epoch_start);
  }
}

TEST_P(BusEquivalenceTest, DeliversLikeTheHeapOnlyBus) {
  size_t carried_ties = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunProgram(GetParam(), seed, &carried_ties);
    if (HasFatalFailure() || HasFailure()) return;
  }
  // The mesh plan exists for these ties: it must really produce them.
  if (GetParam().uniform_latency_ms > 0.0) {
    EXPECT_GT(carried_ties, 0u);
  }
}

// Epochs of 2 ms are shorter than most links, so keys carry over across
// several epochs; 100 ms is the engine's default. On the 4 ms mesh a
// drain's reply to a delivery at t falls due at t + 4 ms, with the fresh
// sends of the epoch that starts at t.
INSTANTIATE_TEST_SUITE_P(
    Plans, BusEquivalenceTest,
    testing::Values(Config{"polite", 100.0, 0.0, 0.0, 0.0},
                    Config{"polite_short", 2.0, 0.0, 0.0, 0.0},
                    Config{"loss", 100.0, 0.2, 0.0, 0.0},
                    Config{"duplication", 2.0, 0.0, 0.3, 0.0},
                    Config{"delay", 2.0, 0.0, 0.0, 5.0},
                    Config{"chaos", 2.0, 0.1, 0.05, 0.0},
                    Config{"all", 2.0, 0.1, 0.2, 3.0},
                    Config{"mesh_ties", 2.0, 0.0, 0.3, 0.0, 4.0}),
    [](const testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sbon::test
