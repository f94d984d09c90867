#include "msg/agents.h"

#include <algorithm>
#include <utility>

namespace sbon::msg {

namespace {

// The wire-size model: bytes per message, with coordinate payloads adding
// 8 bytes per dimension on top of a base.
constexpr size_t kPingBytes = 24;
constexpr size_t kPongBaseBytes = 32;
constexpr size_t kPublishBaseBytes = 40;
constexpr size_t kRingHopBytes = 32;  // each Chord routing hop forwards this
constexpr size_t kStabilizeBytes = 16;
constexpr size_t kJoinBaseBytes = 48;
constexpr size_t kLeaveBytes = 24;
constexpr size_t kAckBytes = 16;
constexpr size_t kLookupBytes = 40;
constexpr size_t kPlacementHopBytes = 32;
constexpr size_t kProbeBytes = 48;

// Long-lived sampled peers per node. Bounds each node's view: message mode
// samples this set round-robin instead of the oracle's any-alive global
// draw, re-sampling a slot only when its peer is found dead.
constexpr size_t kPeerSetSize = 8;
// kLeave notifications fanned out by a crash detector (the leaf-set size a
// real ring would inform).
constexpr size_t kLeafFanout = 4;
// A reliable transfer's retry wait multiplies by this per retry (capped at
// ReliabilityParams::max_backoff_epochs): capped exponential backoff.
constexpr size_t kBackoffFactor = 2;
// Recent transfer ids remembered per node for duplicate suppression.
constexpr size_t kDedupWindow = 64;
// Consecutive silent epochs before a member becomes suspect, and epochs a
// suspect must stay silent before its crash is confirmed.
constexpr size_t kSuspectAfterMissed = 2;
constexpr size_t kConfirmAfterSuspect = 2;

}  // namespace

// --- VivaldiAgent ----------------------------------------------------------

VivaldiAgent::VivaldiAgent(MessageBus* bus, overlay::Sbon* sbon,
                           const ReliabilityParams& reliability)
    : bus_(bus),
      sbon_(sbon),
      reliability_(reliability),
      dedup_(sbon->topology().NumNodes(),
             reliability.enabled ? kDedupWindow : 1) {
  peers_.assign(sbon_->topology().NumNodes() * kPeerSetSize, kInvalidNode);
  bus_->SetHandler(Protocol::kVivaldi,
                   [this](const Envelope& e) { HandleMessage(e); });
}

NodeId VivaldiAgent::PeerFor(NodeId self, size_t slot) {
  NodeId& peer =
      peers_[static_cast<size_t>(self) * kPeerSetSize + slot % kPeerSetSize];
  if (peer == kInvalidNode || !sbon_->IsAlive(peer)) {
    // Re-sample a dead/empty slot from the currently alive overlay nodes
    // (the caller guarantees at least two, so the self-rejection loop
    // terminates).
    const std::vector<NodeId>& alive = sbon_->overlay_nodes();
    do {
      peer = alive[bus_->rng().UniformInt(
          static_cast<uint64_t>(alive.size()))];
    } while (peer == self);
  }
  return peer;
}

void VivaldiAgent::StepEpoch(size_t samples_per_node) {
  if (sbon_->overlay_nodes().size() < 2) return;
  if (sbon_->coords().vivaldi() == nullptr) return;
  for (NodeId self : sbon_->overlay_nodes()) {
    for (size_t s = 0; s < samples_per_node; ++s) {
      Envelope ping;
      ping.proto = Protocol::kVivaldi;
      ping.kind = MsgKind::kPing;
      ping.from = self;
      ping.to = PeerFor(self, round_ + s);
      ping.bytes = kPingBytes;
      bus_->Send(std::move(ping));
    }
  }
  // Next epoch pings the following round-robin slice of each peer set, so a
  // node cycles its whole bounded view instead of hammering one slot.
  round_ += samples_per_node;
}

void VivaldiAgent::HandleMessage(const Envelope& e) {
  if (reliability_.enabled && !dedup_.FirstSighting(e.to, e.tid)) {
    // Duplicated ping or pong: suppress before any side effect (a repeated
    // pong would apply the spring update twice; a repeated ping would send
    // a second pong).
    ++bus_->stats().reliability.dup_suppressed;
    return;
  }
  const coords::VivaldiSystem* vivaldi = sbon_->coords().vivaldi();
  if (vivaldi == nullptr) return;
  switch (e.kind) {
    case MsgKind::kPing: {
      Envelope pong;
      pong.proto = Protocol::kVivaldi;
      pong.kind = MsgKind::kPong;
      pong.from = e.to;
      pong.to = e.from;
      pong.subject = e.to;
      pong.coord = vivaldi->Coord(e.to);
      pong.aux0 = e.send_ms;  // echo: the sampler recovers the round trip
      pong.aux1 = vivaldi->LocalError(e.to);
      pong.bytes = kPongBaseBytes + 8 * vivaldi->dims();
      bus_->Send(std::move(pong));
      break;
    }
    case MsgKind::kPong: {
      // One-way latency estimate: half the measured round trip (the oracle
      // sweep samples the one-way live latency directly).
      const double rtt = (bus_->now_ms() - e.aux0) * 0.5;
      sbon_->mutable_coords().ApplyRemoteSample(e.to, e.from, e.coord, e.aux1,
                                                rtt);
      break;
    }
    default:
      break;
  }
}

// --- RingAgent -------------------------------------------------------------

RingAgent::RingAgent(MessageBus* bus, overlay::Sbon* sbon,
                     const ReliabilityParams& reliability)
    : bus_(bus),
      sbon_(sbon),
      reliability_(reliability),
      dedup_(sbon->topology().NumNodes(),
             reliability.enabled ? kDedupWindow : 1) {
  publish_epoch_.assign(sbon_->topology().NumNodes(), 0);
  bus_->SetHandler(Protocol::kRing,
                   [this](const Envelope& e) { HandleMessage(e); });
}

dht::ChordRing::LookupResult RingAgent::Route(const dht::U128& key,
                                              const dht::U128& origin,
                                              NodeId self) {
  auto result = sbon_->index().ring().Lookup(key, origin);
  if (result.ok()) return *result;
  // Degenerate ring (e.g. a single member): apply locally, zero hops.
  dht::ChordRing::LookupResult local;
  local.node = self;
  local.key = key;
  return local;
}

void RingAgent::BillHops(NodeId via, size_t hops) {
  if (hops == 0) return;
  // Intermediate hops relay the message; they are billed as sent ring
  // traffic (attributed to the originator's account — per-relay attribution
  // would need the route's member list, which Lookup doesn't expose) but
  // not enqueued: only the final delivery is simulated.
  TrafficStats& stats = bus_->stats();
  TrafficCounters& c = stats.protocol[static_cast<size_t>(Protocol::kRing)];
  c.sent += hops;
  c.bytes += hops * kRingHopBytes;
  stats.node_msgs[via] += hops;
  stats.node_bytes[via] += hops * kRingHopBytes;
}

NodeId RingAgent::NextAliveAfter(NodeId n) const {
  const std::vector<NodeId>& alive = sbon_->overlay_nodes();
  if (alive.empty()) return kInvalidNode;
  auto it = std::upper_bound(alive.begin(), alive.end(), n);
  return it == alive.end() ? alive.front() : *it;
}

void RingAgent::RingPointsOf(const std::vector<NodeId>& nodes) {
  const size_t count = nodes.size();
  const dht::HilbertQuantizer& quantizer = sbon_->index().quantizer();
  full_.Reset(quantizer.dims(), count);
  sbon_->cost_space().FullCoordsInto(nodes.data(), count, &full_);
  cells_.resize(quantizer.dims() * count);
  points_.resize(count);
  quantizer.KeyLanes(full_, count, cells_.data(), points_.data());
}

void RingAgent::StepEpoch(double epsilon) {
  publishes_sent_epoch_ = 0;
  // Retries first, outside the epsilon guard: pending transfers keep
  // draining even in epochs where refresh is disabled.
  RetryPending();
  const dht::CoordinateIndex& index = sbon_->index();
  if (epsilon >= 0.0) {
    displaced_.clear();
    sbon_->mutable_coords().CollectDisplaced(sbon_->overlay_nodes(), epsilon,
                                             &displaced_);
    RingPointsOf(displaced_);
    for (size_t j = 0; j < displaced_.size(); ++j) {
      const NodeId n = displaced_[j];
      // Routed from the new point's own owner, so 0 hops: the publish is
      // billed no forwarding (ROADMAP: "Displacement publishes route 0
      // hops").
      const dht::ChordRing::LookupResult route =
          Route(points_[j], points_[j], n);
      BillHops(n, route.hops);
      Envelope publish;
      publish.proto = Protocol::kRing;
      publish.kind = MsgKind::kPublish;
      publish.from = n;
      publish.to = route.node;
      publish.subject = n;
      publish.coord = full_.NodeVec(j);
      publish.bytes = kPublishBaseBytes + 8 * full_.dims();
      if (reliability_.enabled) {
        publish.tid = bus_->IssueTid();
        TrackReliable(publish);
      }
      bus_->Send(std::move(publish));
      ++publishes_sent_epoch_;
    }
  }
  // Successor heartbeats: the steady-state ring maintenance every member
  // pays every epoch whether or not anything moved.
  const std::vector<dht::ChordRing::Member>& members = index.ring().members();
  if (members.size() >= 2) {
    for (size_t i = 0; i < members.size(); ++i) {
      Envelope beat;
      beat.proto = Protocol::kRing;
      beat.kind = MsgKind::kStabilize;
      beat.from = members[i].node;
      beat.to = members[(i + 1) % members.size()].node;
      beat.bytes = kStabilizeBytes;
      bus_->Send(std::move(beat));
    }
  }
}

void RingAgent::HandleMessage(const Envelope& e) {
  if (reliability_.enabled) {
    if (e.kind == MsgKind::kAck) {
      // The ack carries its transfer's tid; acking is idempotent, so a
      // duplicated ack needs no dedup of its own.
      Acknowledge(e.tid);
      return;
    }
    if (!dedup_.FirstSighting(e.to, e.tid)) {
      ++bus_->stats().reliability.dup_suppressed;
      // A duplicate of a reliable kind still re-acks: the copy that
      // produced the first sighting may have had its ack lost, and the
      // sender is retransmitting because of it.
      if (e.kind == MsgKind::kPublish || e.kind == MsgKind::kJoin) {
        SendAck(e);
      }
      return;
    }
  }
  switch (e.kind) {
    case MsgKind::kPublish:
      // The owner records the (re)published coordinate: the node's current
      // full coordinate, which holds still until the post-drain Vivaldi
      // sync, so the ring batch after the drain applies the same value.
      if (sbon_->IsAlive(e.subject)) {
        delivered_publishes_.push_back(e.subject);
        publish_epoch_[e.subject] = static_cast<uint32_t>(bus_->epoch());
      }
      if (reliability_.enabled) SendAck(e);
      break;
    case MsgKind::kJoin:
      // Ring membership already transitioned at RejoinNode (instant
      // idealized detection); the join message landing is when the node's
      // published view stops being stale.
      publish_epoch_[e.subject] = static_cast<uint32_t>(bus_->epoch());
      if (reliability_.enabled) SendAck(e);
      break;
    case MsgKind::kStabilize:
      if (detector_ != nullptr) detector_->NoteHeartbeat(e.from);
      break;
    case MsgKind::kLeave:
      break;  // notification traffic: cost only
    default:
      break;
  }
}

void RingAgent::ApplyDeliveredPublishes() {
  sbon_->mutable_coords().Publish(delivered_publishes_);
  delivered_publishes_.clear();
}

void RingAgent::TrackReliable(const Envelope& e) {
  ReliabilityCounters& r = bus_->stats().reliability;
  if (pending_live_ >= reliability_.max_pending) {
    // Bounded retransmit queue: the transfer goes out once, untracked.
    ++r.retransmit_overflow;
    return;
  }
  PendingTransfer& p = pending_.emplace_back();
  p.env = e;
  p.backoff_epochs = reliability_.retry_after_epochs;
  p.retry_epoch = bus_->epoch() + p.backoff_epochs;
  pending_tids_.push_back(e.tid);
  ++pending_live_;
}

void RingAgent::Acknowledge(uint64_t tid) {
  const auto it =
      std::lower_bound(pending_tids_.begin(), pending_tids_.end(), tid);
  if (it == pending_tids_.end() || *it != tid) return;
  PendingTransfer& p =
      pending_[static_cast<size_t>(it - pending_tids_.begin())];
  if (p.acked) return;
  p.acked = true;
  --pending_live_;
}

void RingAgent::RetryPending() {
  if (!reliability_.enabled || pending_.empty()) return;
  const size_t epoch = bus_->epoch();
  ReliabilityCounters& r = bus_->stats().reliability;
  // One pass in tid order compacts out acked and abandoned transfers and
  // lists the due ones; their ring points are then derived lane-wise, and
  // a second pass retransmits them, still in tid order. Nothing between
  // the passes moves the ring or a coordinate, so this sends what
  // retransmitting inside the first pass would.
  retry_slots_.clear();
  retry_nodes_.clear();
  size_t kept = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingTransfer& p = pending_[i];
    if (p.acked) continue;
    if (p.retry_epoch <= epoch) {
      if (p.attempts >= reliability_.max_retries ||
          !sbon_->IsAlive(p.env.subject)) {
        // Give up: retries are spent, or the subject left the overlay (its
        // publish/join could no longer be applied anyway).
        ++r.retry_exhausted;
        --pending_live_;
        continue;
      }
      retry_slots_.push_back(kept);
      retry_nodes_.push_back(p.env.subject);
    }
    if (kept != i) {
      pending_[kept] = std::move(p);
      pending_tids_[kept] = pending_tids_[i];
    }
    ++kept;
  }
  pending_.resize(kept);
  pending_tids_.resize(kept);

  RingPointsOf(retry_nodes_);
  for (size_t j = 0; j < retry_slots_.size(); ++j) {
    PendingTransfer& p = pending_[retry_slots_[j]];
    // Retransmit with a fresh route and the subject's *current* full
    // coordinate — the same re-serialization semantics a real datagram
    // retry has (the ring may have repaired and the node drifted since).
    Envelope again = p.env;
    const dht::ChordRing::LookupResult route =
        Route(points_[j], points_[j], again.subject);
    BillHops(again.subject, route.hops);
    again.to = route.node;
    again.coord = full_.NodeVec(j);
    p.env.to = route.node;  // remember the refreshed destination
    ++p.attempts;
    p.backoff_epochs = std::min(p.backoff_epochs * kBackoffFactor,
                                reliability_.max_backoff_epochs);
    p.retry_epoch = epoch + p.backoff_epochs;
    ++r.retries;
    r.retry_bytes += again.bytes;
    if (again.kind == MsgKind::kPublish) ++publishes_sent_epoch_;
    bus_->Send(std::move(again));
  }
}

void RingAgent::SendAck(const Envelope& e) {
  Envelope ack;
  ack.proto = Protocol::kRing;
  ack.kind = MsgKind::kAck;
  ack.from = e.to;
  ack.to = e.from;
  ack.subject = e.subject;
  ack.tid = e.tid;  // identifies the acked transfer; acks aren't tracked
  ack.bytes = kAckBytes;
  ++bus_->stats().reliability.acks;
  bus_->Send(std::move(ack));
}

void RingAgent::OnCrash(NodeId n) {
  // Idealized fast failure detection: the dead node's ring neighborhood
  // learns of the crash within the epoch. The detector (its successor in
  // node-id order) notifies kLeafFanout leaf-set members.
  const NodeId detector = NextAliveAfter(n);
  if (detector == kInvalidNode) return;
  const std::vector<NodeId>& alive = sbon_->overlay_nodes();
  auto it = std::upper_bound(alive.begin(), alive.end(), detector);
  size_t idx = static_cast<size_t>(it - alive.begin()) % alive.size();
  for (size_t k = 0; k < kLeafFanout && k + 1 < alive.size();
       ++k, idx = (idx + 1) % alive.size()) {
    if (alive[idx] == detector) break;  // wrapped the whole membership
    Envelope leave;
    leave.proto = Protocol::kRing;
    leave.kind = MsgKind::kLeave;
    leave.from = detector;
    leave.to = alive[idx];
    leave.subject = n;
    leave.bytes = kLeaveBytes;
    bus_->Send(std::move(leave));
  }
}

void RingAgent::OnRejoin(NodeId n) {
  // The rejoining node routes a join toward its key's owner from the
  // deterministic bootstrap origin (the ring's first member).
  const Vec full = sbon_->cost_space().FullCoord(n);
  const dht::U128 key = sbon_->index().quantizer().Key(full);
  auto result = sbon_->index().ring().Lookup(key);
  dht::ChordRing::LookupResult route;
  if (result.ok()) {
    route = *result;
  } else {
    route.node = n;
    route.key = key;
  }
  BillHops(n, route.hops);
  Envelope join;
  join.proto = Protocol::kRing;
  join.kind = MsgKind::kJoin;
  join.from = n;
  join.to = route.node;
  join.subject = n;
  join.bytes = kJoinBaseBytes + 8 * full.dims();
  if (reliability_.enabled) {
    join.tid = bus_->IssueTid();
    TrackReliable(join);
  }
  bus_->Send(std::move(join));
}

// --- FailureDetector -------------------------------------------------------

FailureDetector::FailureDetector(size_t num_nodes)
    : heard_(num_nodes, 0),
      missed_(num_nodes, 0),
      suspect_(num_nodes, 0),
      suspect_for_(num_nodes, 0) {}

void FailureDetector::Reset(NodeId n) {
  heard_[n] = 0;
  missed_[n] = 0;
  suspect_[n] = 0;
  suspect_for_[n] = 0;
}

void FailureDetector::Step(const std::vector<NodeId>& members,
                           DetectorCounters* counters,
                           std::vector<NodeId>* confirmed) {
  for (NodeId n : members) {
    if (heard_[n]) {
      // Alive by evidence. A heartbeat from a suspect is the detector
      // catching its own mistake before the confirmation timeout fired.
      if (suspect_[n]) ++counters->suspicions_refuted;
      Reset(n);
      continue;
    }
    ++missed_[n];
    if (!suspect_[n]) {
      if (missed_[n] >= kSuspectAfterMissed) {
        suspect_[n] = 1;
        suspect_for_[n] = 0;
        ++counters->suspicions;
      }
      continue;
    }
    if (++suspect_for_[n] >= kConfirmAfterSuspect) {
      confirmed->push_back(n);
      Reset(n);  // the verdict is out; state rebuilds if the engine rejects
    }
  }
  std::fill(heard_.begin(), heard_.end(), 0);
}

// --- Runtime ---------------------------------------------------------------

Status ValidateRuntimeParams(const RuntimeParams& p) {
  if (!(p.bus.epoch_ms > 0.0)) {
    return Status::InvalidArgument("RuntimeParams: bus.epoch_ms must be > 0");
  }
  for (const FaultRates& r : p.bus.faults.protocol) {
    if (r.loss < 0.0 || r.loss > 1.0 || r.duplicate < 0.0 ||
        r.duplicate > 1.0 || r.delay_jitter_ms < 0.0) {
      return Status::InvalidArgument(
          "RuntimeParams: fault rates must be probabilities in [0, 1] and "
          "delay jitter must be >= 0");
    }
  }
  if (p.reliability.enabled) {
    if (p.reliability.retry_after_epochs == 0 ||
        p.reliability.max_backoff_epochs == 0 ||
        p.reliability.max_pending == 0) {
      return Status::InvalidArgument(
          "RuntimeParams: enabled reliability needs nonzero "
          "retry_after_epochs, max_backoff_epochs and max_pending");
    }
  }
  return Status::OK();
}

Runtime::Runtime(overlay::Sbon* sbon, const RuntimeParams& params)
    : sbon_(sbon),
      bus_(&sbon->fabric(), params.bus),
      vivaldi_(&bus_, sbon, params.reliability),
      ring_(&bus_, sbon, params.reliability),
      detector_(sbon->topology().NumNodes()),
      detector_enabled_(params.detector.enabled) {
  if (detector_enabled_) ring_.set_detector(&detector_);
}

void Runtime::NotifyChurn(const net::ChurnEvent& ev,
                          std::optional<size_t> detection_latency_epochs) {
  TrafficStats& stats = bus_.stats();
  stats.last_churn_epoch = bus_.epoch();
  stats.churn_pending = true;
  switch (ev.type) {
    case net::ChurnEventType::kCrash:
      if (detection_latency_epochs) {
        ++stats.detector.crash_confirmations;
        stats.detector.detection_latency_samples.push_back(
            static_cast<uint32_t>(*detection_latency_epochs));
      }
      ring_.OnCrash(ev.node);
      break;
    case net::ChurnEventType::kRejoin:
      ring_.OnRejoin(ev.node);
      break;
    case net::ChurnEventType::kPartitionStart:
    case net::ChurnEventType::kPartitionHeal:
      break;  // connectivity-only: no membership traffic, clock still marked
  }
}

void Runtime::FinishEpoch(bool refresh, double epsilon) {
  ring_.StepEpoch(refresh ? epsilon : -1.0);
  bus_.EndEpoch();
  ring_.ApplyDeliveredPublishes();
  sbon_->mutable_coords().SyncVectorCoords();

  TrafficStats& stats = bus_.stats();
  const size_t completed = bus_.epoch() - 1;  // EndEpoch advanced the count
  if (stats.churn_pending && completed > stats.last_churn_epoch &&
      ring_.publishes_sent_epoch() == 0) {
    // First fully quiet ring epoch after churn: membership and coordinates
    // have re-converged.
    stats.convergence_epochs = completed - stats.last_churn_epoch;
    stats.churn_pending = false;
  }

  if (detector_enabled_) {
    // Detector sweep over the current ring membership, after the drain so
    // every heartbeat that could land this epoch has been heard. A ring
    // below two members sends no heartbeats — monitor nothing.
    members_scratch_.clear();
    const std::vector<dht::ChordRing::Member>& members =
        sbon_->index().ring().members();
    if (members.size() >= 2) {
      for (const dht::ChordRing::Member& m : members) {
        members_scratch_.push_back(m.node);
      }
    }
    detector_.Step(members_scratch_, &stats.detector, &confirmed_crashes_);
  }
}

void Runtime::NoteSpuriousConfirm(NodeId n) {
  ++bus_.stats().detector.confirmations_vetoed;
  detector_.Reset(n);
}

void Runtime::BillPlacement(const dht::IndexQueryCost& delta,
                            const overlay::Circuit* circuit) {
  const size_t msgs = delta.lookups + delta.routing_hops + delta.ring_probes;
  TrafficStats& stats = bus_.stats();
  if (msgs > 0) {
    const size_t bytes = delta.lookups * kLookupBytes +
                         delta.routing_hops * kPlacementHopBytes +
                         delta.ring_probes * kProbeBytes;
    TrafficCounters& c =
        stats.protocol[static_cast<size_t>(Protocol::kPlacement)];
    // Placement probes are synchronous RPCs resolved within the placement
    // run; request and response are collapsed into one accounted message.
    c.sent += msgs;
    c.delivered += msgs;
    c.bytes += bytes;
    if (circuit != nullptr) {
      for (const overlay::CircuitVertex& v : circuit->vertices()) {
        if (v.host != kInvalidNode) {
          stats.node_msgs[v.host] += msgs;
          stats.node_bytes[v.host] += bytes;
          break;  // billed to the circuit's root host
        }
      }
    }
  }
  if (circuit != nullptr) {
    // Staleness stamp: how old (in epochs) the published coordinate view of
    // each chosen host was when this placement committed. Pinned endpoints
    // are spec constraints, not index decisions.
    const uint32_t now = static_cast<uint32_t>(bus_.epoch());
    for (const overlay::CircuitVertex& v : circuit->vertices()) {
      if (v.pinned || v.host == kInvalidNode) continue;
      const uint32_t published = ring_.publish_epoch()[v.host];
      stats.staleness_samples.push_back(now >= published ? now - published
                                                         : 0);
    }
  }
}

}  // namespace sbon::msg
