#ifndef SBON_MSG_AGENTS_H_
#define SBON_MSG_AGENTS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/coord_block.h"
#include "common/ids.h"
#include "common/status.h"
#include "dht/coord_index.h"
#include "msg/message.h"
#include "msg/message_bus.h"
#include "net/churn.h"
#include "overlay/circuit.h"
#include "overlay/sbon.h"

namespace sbon::msg {

/// Ack/timeout/retransmission hardening for the reliable ring kinds
/// (kPublish, kJoin) plus the dedup windows that make every handler
/// idempotent under network duplication. Off by default: with
/// `enabled == false` no tid is pre-assigned, no dedup scan runs and no
/// ack is ever sent, so fault-free runs stay bit-identical.
struct ReliabilityParams {
  bool enabled = false;
  /// Epochs to wait for an ack before the first retransmission; each retry
  /// doubles the wait, capped at `max_backoff_epochs`.
  size_t retry_after_epochs = 2;
  size_t max_backoff_epochs = 8;
  /// Retransmissions per transfer before giving up (counted as exhausted).
  size_t max_retries = 4;
  /// Bound on simultaneously tracked transfers; overflow transfers are
  /// sent once, never tracked, and counted (graceful degradation, never
  /// unbounded memory).
  size_t max_pending = 1024;
};

/// Decentralized failure detection from kStabilize heartbeat silence.
/// Off by default: message mode then keeps the instant-oracle crash
/// notification (Sbon::FailNode at the churn event).
struct DetectorParams {
  bool enabled = false;
};

struct RuntimeParams {
  MessageBus::Options bus;
  ReliabilityParams reliability;
  DetectorParams detector;
};

/// InvalidArgument when any knob is out of range (non-positive epoch_ms,
/// probabilities outside [0, 1], zeroed reliability windows while
/// enabled). The engine validates at construction, mirroring Sbon::Options
/// validation.
Status ValidateRuntimeParams(const RuntimeParams& params);

/// Per-node bounded ring buffer of recently seen transfer ids: the dedup
/// window that makes delivery handlers idempotent under duplication.
/// Lookup is a branch-free scan of one node's whole window (windows are
/// tens of entries); insertion overwrites the oldest slot, so memory is
/// fixed at num_nodes * window ids.
class DedupWindow {
 public:
  DedupWindow(size_t num_nodes, size_t window)
      : window_(window),
        slots_(num_nodes * window, 0),
        cursor_(num_nodes, 0) {}

  /// True the first time `tid` is seen at `node` (recording it); false for
  /// a repeat still inside the window — the caller suppresses the delivery.
  bool FirstSighting(NodeId node, uint64_t tid) {
    uint64_t* base = &slots_[static_cast<size_t>(node) * window_];
    // An OR over the whole window instead of an early exit, so the compiler
    // can vectorize the scan. x | -x has its top bit set for every nonzero
    // x, so ~(x | -x) has it set only where a slot holds `tid`: baseline
    // x86-64 (SSE2) has no 64-bit vector compare, but it has this.
    uint64_t hit = 0;
    for (size_t i = 0; i < window_; ++i) {
      const uint64_t x = base[i] ^ tid;
      hit |= ~(x | (0 - x));
    }
    if ((hit >> 63) != 0) return false;
    base[cursor_[node]] = tid;
    cursor_[node] = (cursor_[node] + 1) % window_;
    return true;
  }

 private:
  size_t window_;
  std::vector<uint64_t> slots_;  ///< 0 = empty slot (tids start at 1)
  std::vector<size_t> cursor_;
};

/// Decentralized crash detection from heartbeat silence. Every epoch the
/// runtime sweeps the ring membership: a member whose kStabilize heartbeat
/// was not heard for 2 consecutive epochs becomes suspect; a suspect silent
/// for another 2 epochs is confirmed crashed — the verdict the engine's
/// repair path consumes. A heartbeat from a suspect clears it and counts a
/// refuted suspicion (the detector can be fooled by partitions; the engine
/// vetoes confirmations of nodes that are actually alive via
/// Runtime::NoteSpuriousConfirm).
class FailureDetector {
 public:
  explicit FailureDetector(size_t num_nodes);

  /// A kStabilize heartbeat from `from` was delivered this epoch.
  void NoteHeartbeat(NodeId from) { heard_[from] = 1; }
  /// End-of-epoch sweep over the current ring membership: updates
  /// suspicion state, bumps `counters`, appends newly confirmed crashes to
  /// `confirmed`. Pass an empty member list when the ring is too small to
  /// heartbeat (< 2 members) — nothing is monitored then.
  void Step(const std::vector<NodeId>& members, DetectorCounters* counters,
            std::vector<NodeId>* confirmed);
  /// Forgets all state about `n` (its verdict was consumed or rejected).
  void Reset(NodeId n);

 private:
  std::vector<uint8_t> heard_;        ///< heartbeat seen this epoch
  std::vector<uint32_t> missed_;      ///< consecutive silent epochs
  std::vector<uint8_t> suspect_;
  std::vector<uint32_t> suspect_for_; ///< epochs spent in suspect state
};

/// Node-local Vivaldi sampling as explicit traffic: each epoch every alive
/// overlay node pings a round-robin slice of its bounded peer set; peers
/// answer with their coordinate + error; the pong applies the spring update
/// at the sampler. RTT is half the measured round trip — the same one-way
/// live latency the oracle sweep samples, plus whatever extra delay an
/// active partition or queued epoch boundary added.
class VivaldiAgent {
 public:
  VivaldiAgent(MessageBus* bus, overlay::Sbon* sbon,
               const ReliabilityParams& reliability);

  /// Sends this epoch's pings (`samples_per_node` per alive overlay node).
  void StepEpoch(size_t samples_per_node);
  void HandleMessage(const Envelope& e);

 private:
  /// The peer in `slot` for `self`, (re)sampled from the currently alive
  /// overlay nodes when empty or dead. Draws come from the bus Rng in
  /// deterministic (node, slot) order.
  NodeId PeerFor(NodeId self, size_t slot);

  MessageBus* bus_;
  overlay::Sbon* sbon_;
  ReliabilityParams reliability_;
  DedupWindow dedup_;          ///< suppresses duplicated pings and pongs
  std::vector<NodeId> peers_;  ///< n * kPeerSetSize, kInvalidNode = empty
  size_t round_ = 0;           ///< round-robin cursor over peer slots
};

/// Ring maintenance as explicit traffic: displacement-gated coordinate
/// publishes routed to the key's owner (hop counts billed from the real
/// Chord route), per-member successor heartbeats, join routing for rejoins
/// and leaf-set leave notifications for crashes. State transitions
/// themselves ride the oracle path (Sbon::FailNode / RejoinNode keep the
/// ring correct for repair placement — idealized instant failure
/// detection); the agent carries the *cost* and the staleness clock.
///
/// A delivered kPublish does not touch the ring at once: the handler
/// records its subject, and ApplyDeliveredPublishes lands the whole drain's
/// publishes as one ring batch after the drain. That is bitwise the
/// per-delivery result: no handler reads the ring or the index, a node's
/// full coordinate cannot change before the post-drain Vivaldi sync, and
/// a batch equals sequential Leave + Join, nodes that move twice included.
class RingAgent {
 public:
  RingAgent(MessageBus* bus, overlay::Sbon* sbon,
            const ReliabilityParams& reliability);

  /// The message-mode refresh: collects nodes displaced beyond `epsilon`
  /// and sends each a kPublish to the owner of its new ring point
  /// (`epsilon < 0` skips the scan — refresh disabled this epoch), then one
  /// kStabilize heartbeat from every ring member to its successor. The
  /// batch's full coordinates and ring points are derived lane-wise. A
  /// publish is routed from that owner itself, so it travels 0 hops and
  /// bills no forwarding; routing it from where the node sits is the
  /// ROADMAP item "Displacement publishes route 0 hops".
  void StepEpoch(double epsilon);
  void HandleMessage(const Envelope& e);
  /// Republishes, as one ring batch, the alive subjects of the kPublish
  /// messages delivered since the last call, in delivery order. Call once
  /// after each drain, before anything reads the ring or the index.
  void ApplyDeliveredPublishes();

  void OnCrash(NodeId n);
  void OnRejoin(NodeId n);

  /// kPublish sends this epoch (the ring-quiescence signal convergence
  /// tracking watches).
  size_t publishes_sent_epoch() const { return publishes_sent_epoch_; }
  /// Engine epoch each node's coordinate was last published at (the
  /// staleness clock placement decisions are stamped against).
  const std::vector<uint32_t>& publish_epoch() const { return publish_epoch_; }

  /// Transfers still awaiting an ack (bounded by max_pending).
  size_t pending_size() const { return pending_live_; }
  /// Wires the failure detector in: kStabilize deliveries report
  /// heartbeats to it. Null (the default) disables reporting.
  void set_detector(FailureDetector* detector) { detector_ = detector; }

 private:
  /// One tracked reliable transfer awaiting its ack.
  struct PendingTransfer {
    Envelope env;               ///< resend template (route/coord re-read)
    size_t attempts = 0;        ///< retransmissions sent so far
    size_t backoff_epochs = 0;  ///< current wait between retries
    size_t retry_epoch = 0;     ///< bus epoch of the next retry
    bool acked = false;         ///< done; compacted out by RetryPending
  };

  /// Starts tracking a reliable send (tid just issued, so above every
  /// tracked tid); counts an overflow instead when the queue is full.
  void TrackReliable(const Envelope& e);
  /// Marks the tracked transfer `tid` acked; a repeated or unknown tid is a
  /// no-op.
  void Acknowledge(uint64_t tid);
  /// Retransmits every tracked transfer whose timer expired, with capped
  /// exponential backoff, in ascending tid order; exhausted or moot
  /// transfers are dropped and counted, and acked ones compacted out in the
  /// same pass. Runs even when refresh is disabled so retries always drain.
  void RetryPending();
  /// Fills `full_` (slot j = nodes[j]) with the nodes' current full
  /// coordinates and `points_` with their ring points, lane-wise
  /// (CostSpace::FullCoordsInto, HilbertQuantizer::KeyLanes): bitwise
  /// FullCoord and quantizer().Key of each node.
  void RingPointsOf(const std::vector<NodeId>& nodes);
  /// Acks a delivered reliable envelope back to its sender.
  void SendAck(const Envelope& e);
  /// Routes toward `key` on the current ring; falls back to (self, 0
  /// hops) when the lookup is unavailable.
  dht::ChordRing::LookupResult Route(const dht::U128& key,
                                     const dht::U128& origin, NodeId self);
  /// Bills `hops` forwarding messages to `via` without enqueueing them
  /// (intermediate hops relay; only the final delivery is simulated).
  void BillHops(NodeId via, size_t hops);
  /// First alive overlay node strictly after `n` in node-id order (wraps);
  /// kInvalidNode when none.
  NodeId NextAliveAfter(NodeId n) const;

  MessageBus* bus_;
  overlay::Sbon* sbon_;
  ReliabilityParams reliability_;
  DedupWindow dedup_;
  FailureDetector* detector_ = nullptr;  ///< owned by the Runtime
  /// Tracked reliable transfers in ascending tid order (tids are issued
  /// increasing), acked ones included until the next RetryPending.
  std::vector<PendingTransfer> pending_;
  /// pending_[i].env.tid at i: the ascending array Acknowledge searches.
  std::vector<uint64_t> pending_tids_;
  size_t pending_live_ = 0;  ///< entries of pending_ not yet acked
  std::vector<uint32_t> publish_epoch_;  ///< by node id
  size_t publishes_sent_epoch_ = 0;
  std::vector<NodeId> displaced_;  ///< scratch for the displacement scan
  /// RetryPending's reused buffers: the due transfers' pending_ slots and
  /// subjects.
  std::vector<size_t> retry_slots_;
  std::vector<NodeId> retry_nodes_;
  /// RingPointsOf output: full coordinates, cell lanes and ring points.
  CoordBlock full_;
  std::vector<uint32_t> cells_;
  std::vector<dht::U128> points_;
  /// Alive subjects of the kPublish deliveries since the last
  /// ApplyDeliveredPublishes, in delivery order.
  std::vector<NodeId> delivered_publishes_;
};

/// The message-mode execution runtime the engine drives: owns the bus and
/// agents, exposes the per-epoch steps AdvanceEpoch schedules in message
/// mode, and folds placement billing + churn notifications into the
/// TrafficStats the snapshot/bench surface.
class Runtime {
 public:
  Runtime(overlay::Sbon* sbon, const RuntimeParams& params);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Advances the bus clock to this engine epoch (the msg-coords stage).
  void BeginEpoch() { bus_.BeginEpoch(); }
  /// Fans out this epoch's Vivaldi pings.
  void StepVivaldi(size_t samples_per_node) {
    vivaldi_.StepEpoch(samples_per_node);
  }
  /// Records a churn event the engine just applied: restarts the
  /// convergence clock and sends the ring's join/leave traffic. A crash
  /// arrives when the overlay's membership transition runs: at once
  /// without the detector, at the detector's confirmation with it, and
  /// then `detection_latency_epochs` records the confirmation and how long
  /// detection took.
  void NotifyChurn(const net::ChurnEvent& ev,
                   std::optional<size_t> detection_latency_epochs = {});
  /// The msg-refresh stage: displacement publishes + heartbeats, the epoch
  /// drain, the drain's delivered publishes as one ring batch, the
  /// Vivaldi -> cost-space sync, and the convergence bookkeeping.
  /// `refresh` mirrors EpochOptions::refresh_index.
  void FinishEpoch(bool refresh, double epsilon);

  /// Bills the DHT traffic of one placement run (`delta` of the index's
  /// cumulative query cost) as kPlacement messages, attributed to the
  /// deployed circuit's root host, and stamps each placed (non-pinned)
  /// vertex with the staleness of its host's published coordinate.
  void BillPlacement(const dht::IndexQueryCost& delta,
                     const overlay::Circuit* circuit);

  // --- failure-detector interface (engine's deferred-crash repair path) ---

  bool detector_enabled() const { return detector_enabled_; }
  size_t bus_epoch() const { return bus_.epoch(); }
  /// Crashes the detector has confirmed since the last call (cleared).
  std::vector<NodeId> TakeConfirmedCrashes() {
    std::vector<NodeId> out;
    out.swap(confirmed_crashes_);
    return out;
  }
  /// The engine rejected a confirmation (the node is actually alive — e.g.
  /// heartbeat-starved by a partition): counted as a vetoed confirmation, and
  /// the detector's state about the node is wiped so suspicion must
  /// rebuild from fresh silence.
  void NoteSpuriousConfirm(NodeId n);

  MessageBus& bus() { return bus_; }
  TrafficStats& stats() { return bus_.stats(); }
  const TrafficStats& stats() const { return bus_.stats(); }
  TrafficSummary Summary() const {
    TrafficSummary s = Summarize(bus_.stats(), sbon_->topology().NumNodes());
    s.retry_pending = ring_.pending_size();
    return s;
  }

 private:
  overlay::Sbon* sbon_;
  MessageBus bus_;
  VivaldiAgent vivaldi_;
  RingAgent ring_;
  FailureDetector detector_;
  bool detector_enabled_ = false;
  std::vector<NodeId> confirmed_crashes_;  ///< verdicts awaiting the engine
  std::vector<NodeId> members_scratch_;    ///< detector sweep scratch
};

}  // namespace sbon::msg

#endif  // SBON_MSG_AGENTS_H_
