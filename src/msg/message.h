#ifndef SBON_MSG_MESSAGE_H_
#define SBON_MSG_MESSAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/vec.h"

namespace sbon::msg {

/// Control-plane protocol a message belongs to (the traffic-accounting
/// dimension: the paper claims decentralized placement is cheap, so the
/// bytes each protocol costs per node per epoch is the headline number).
enum class Protocol : uint8_t {
  kVivaldi = 0,    ///< ping/pong coordinate sampling
  kRing = 1,       ///< join/leave/stabilize/publish ring maintenance
  kPlacement = 2,  ///< k-nearest / placement probes
};
inline constexpr size_t kNumProtocols = 3;

inline const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kVivaldi:
      return "vivaldi";
    case Protocol::kRing:
      return "ring";
    case Protocol::kPlacement:
      return "placement";
  }
  return "?";
}

/// Message type within a protocol.
enum class MsgKind : uint8_t {
  kPing,       ///< Vivaldi RTT probe (carries the sender's send time)
  kPong,       ///< Vivaldi reply (peer coordinate + error + echoed time)
  kPublish,    ///< routed coordinate (re)publish toward the key's owner
  kStabilize,  ///< ring successor heartbeat
  kJoin,       ///< routed ring join of a rejoining node
  kLeave,      ///< leaf-set notification that a member died
  kAck,        ///< reliability ack of a kPublish/kJoin (carries its tid)
};

/// One typed message on the bus. Envelopes are plain values: the payload
/// fields double up across kinds (documented per field) instead of a
/// variant, so the bus slab holds them flat and heap-free (the coordinate
/// is an inline Vec). The bus orders them by small keys and moves each
/// envelope once, out of its slot at delivery.
struct Envelope {
  Protocol proto = Protocol::kVivaldi;
  MsgKind kind = MsgKind::kPing;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// Accounted wire size. Set by the sending agent from its size model.
  size_t bytes = 0;
  /// Stamped by MessageBus::Send / delivery scheduling.
  double send_ms = 0.0;
  double deliver_ms = 0.0;
  uint64_t seq = 0;  ///< send order; the deterministic delivery tiebreak
  /// Transfer id: stable across retransmissions and network duplication
  /// (the dedup/ack key), unlike `seq` which is fresh per wire copy. The
  /// bus stamps an unset (0) tid at Send; reliable senders pre-assign via
  /// MessageBus::IssueTid so they can match acks to pending transfers.
  uint64_t tid = 0;

  /// kPong: the coordinate's owner == from. kPublish/kJoin: the node whose
  /// coordinate is being (re)published (usually == from; the routed hop
  /// count is billed separately). kLeave: the dead member.
  NodeId subject = kInvalidNode;
  Vec coord;         ///< kPong / kPublish: the carried coordinate
  double aux0 = 0.0; ///< kPing/kPong: originating send time (rtt echo)
  double aux1 = 0.0; ///< kPong: the peer's local error estimate
};

/// Per-protocol send/delivery counters. Conservation holds exactly:
/// sent == delivered + dropped_dead + dropped_partition + dropped_fault
/// + (messages still queued on the bus) — duplicates count as sent wire
/// copies, so both sides of the equation see them.
struct TrafficCounters {
  size_t sent = 0;               ///< wire copies handed to the network
  size_t delivered = 0;          ///< messages that reached their handler
  size_t dropped_dead = 0;       ///< sender or receiver endpoint was down
  size_t dropped_partition = 0;  ///< crossed an active partition cut
  size_t dropped_fault = 0;      ///< lost by the fault injector
  size_t duplicated = 0;         ///< extra copies the injector enqueued
  size_t bytes = 0;              ///< bytes sent (drops still paid for)
};

/// Protocol-hardening counters (ack/retry/backoff + dedup windows), bumped
/// by the agents; all stay zero while reliability is disabled.
struct ReliabilityCounters {
  size_t acks = 0;                ///< kAck messages sent
  size_t retries = 0;             ///< retransmissions sent after timeout
  size_t retry_bytes = 0;         ///< bytes of those retransmissions
  size_t dup_suppressed = 0;      ///< deliveries discarded by dedup windows
  size_t retry_exhausted = 0;     ///< transfers abandoned (max retries, or
                                  ///< the subject died while pending)
  size_t retransmit_overflow = 0; ///< transfers never tracked: queue full
};

/// Failure-detector counters; all stay zero while the detector is disabled.
struct DetectorCounters {
  size_t suspicions = 0;            ///< nodes that entered the suspect state
  size_t suspicions_refuted = 0;    ///< suspicions cleared by a heartbeat
  size_t confirmations_vetoed = 0;  ///< confirmations of live nodes the
                                    ///< engine rejected
  size_t crash_confirmations = 0;   ///< verdicts the engine acted on
  /// Epochs from physical crash to confirmed verdict, one per confirmation.
  std::vector<uint32_t> detection_latency_samples;
};

/// Everything the message-mode epoch loop accounts: per-protocol traffic,
/// per-node volume, churn convergence, and placement staleness. Owned by
/// the MessageBus (counters) and msg::Runtime (convergence/staleness).
struct TrafficStats {
  TrafficCounters protocol[kNumProtocols];
  ReliabilityCounters reliability;
  DetectorCounters detector;
  /// Messages/bytes *sent by* each node (drops included — the sender paid
  /// for the transmission whether or not it arrived).
  std::vector<uint64_t> node_msgs;
  std::vector<uint64_t> node_bytes;
  /// Engine epochs the bus has drained.
  size_t epochs = 0;

  /// Convergence tracking: epoch of the most recent churn event, whether
  /// the ring has re-quiesced since (zero publish sends in an epoch), and
  /// the churn->quiet gap last measured.
  size_t last_churn_epoch = 0;
  bool churn_pending = false;
  size_t convergence_epochs = 0;

  /// Placement staleness: for every placement decision, the age (epochs
  /// since last ring publish) of each chosen host's coordinate view.
  std::vector<uint32_t> staleness_samples;

  size_t TotalSent() const {
    size_t s = 0;
    for (const TrafficCounters& c : protocol) s += c.sent;
    return s;
  }
  size_t TotalDelivered() const {
    size_t s = 0;
    for (const TrafficCounters& c : protocol) s += c.delivered;
    return s;
  }
  size_t TotalBytes() const {
    size_t s = 0;
    for (const TrafficCounters& c : protocol) s += c.bytes;
    return s;
  }
};

/// Flat summary of a TrafficStats for snapshots and bench JSON (no vectors;
/// percentiles precomputed).
struct TrafficSummary {
  size_t epochs = 0;
  size_t msgs_sent = 0;
  size_t msgs_delivered = 0;
  size_t msgs_dropped_dead = 0;
  size_t msgs_dropped_partition = 0;
  size_t msgs_dropped_fault = 0;
  size_t msgs_duplicated = 0;
  size_t bytes_total = 0;
  double bytes_per_node_per_epoch = 0.0;
  size_t protocol_msgs[kNumProtocols] = {0, 0, 0};
  size_t protocol_bytes[kNumProtocols] = {0, 0, 0};
  /// Epochs from the last churn event to ring quiescence (0 = no churn
  /// observed yet); `converged` is false while churn is still settling.
  size_t convergence_epochs = 0;
  bool converged = true;
  double staleness_p50 = 0.0;
  double staleness_p95 = 0.0;
  size_t staleness_samples = 0;
  /// Reliability layer (all zero while it is disabled).
  size_t retries = 0;
  size_t retry_bytes = 0;
  size_t acks = 0;
  size_t dup_suppressed = 0;
  size_t retry_exhausted = 0;
  size_t retransmit_overflow = 0;
  /// Transfers still awaiting an ack at summary time (folded in by
  /// msg::Runtime, which can see the agents; Summarize leaves it 0).
  size_t retry_pending = 0;
  /// Failure detector (all zero while it is disabled).
  size_t suspicions = 0;
  /// suspicions_refuted + confirmations_vetoed.
  size_t false_suspicions = 0;
  size_t suspicions_refuted = 0;
  size_t confirmations_vetoed = 0;
  size_t crash_confirmations = 0;
  double detection_p50 = 0.0;
  double detection_p95 = 0.0;
  size_t detection_samples = 0;
};

/// Percentile (nearest-rank) over an unsorted copy of `samples`.
inline double StalenessPercentile(const std::vector<uint32_t>& samples,
                                  double p) {
  if (samples.empty()) return 0.0;
  std::vector<uint32_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

inline TrafficSummary Summarize(const TrafficStats& stats, size_t num_nodes) {
  TrafficSummary s;
  s.epochs = stats.epochs;
  s.msgs_sent = stats.TotalSent();
  s.msgs_delivered = stats.TotalDelivered();
  s.bytes_total = stats.TotalBytes();
  for (size_t p = 0; p < kNumProtocols; ++p) {
    s.protocol_msgs[p] = stats.protocol[p].sent;
    s.protocol_bytes[p] = stats.protocol[p].bytes;
    s.msgs_dropped_dead += stats.protocol[p].dropped_dead;
    s.msgs_dropped_partition += stats.protocol[p].dropped_partition;
    s.msgs_dropped_fault += stats.protocol[p].dropped_fault;
    s.msgs_duplicated += stats.protocol[p].duplicated;
  }
  if (num_nodes > 0 && stats.epochs > 0) {
    s.bytes_per_node_per_epoch =
        static_cast<double>(s.bytes_total) /
        (static_cast<double>(num_nodes) * static_cast<double>(stats.epochs));
  }
  s.convergence_epochs = stats.convergence_epochs;
  s.converged = !stats.churn_pending;
  s.staleness_p50 = StalenessPercentile(stats.staleness_samples, 0.50);
  s.staleness_p95 = StalenessPercentile(stats.staleness_samples, 0.95);
  s.staleness_samples = stats.staleness_samples.size();
  s.retries = stats.reliability.retries;
  s.retry_bytes = stats.reliability.retry_bytes;
  s.acks = stats.reliability.acks;
  s.dup_suppressed = stats.reliability.dup_suppressed;
  s.retry_exhausted = stats.reliability.retry_exhausted;
  s.retransmit_overflow = stats.reliability.retransmit_overflow;
  s.suspicions = stats.detector.suspicions;
  s.suspicions_refuted = stats.detector.suspicions_refuted;
  s.confirmations_vetoed = stats.detector.confirmations_vetoed;
  s.false_suspicions = s.suspicions_refuted + s.confirmations_vetoed;
  s.crash_confirmations = stats.detector.crash_confirmations;
  s.detection_p50 =
      StalenessPercentile(stats.detector.detection_latency_samples, 0.50);
  s.detection_p95 =
      StalenessPercentile(stats.detector.detection_latency_samples, 0.95);
  s.detection_samples = stats.detector.detection_latency_samples.size();
  return s;
}

}  // namespace sbon::msg

#endif  // SBON_MSG_MESSAGE_H_
