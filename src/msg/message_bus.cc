#include "msg/message_bus.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sbon::msg {

MessageBus::MessageBus(const net::NetworkFabric* fabric,
                       const Options& options)
    : fabric_(fabric),
      options_(options),
      rng_(options.seed),
      faults_(options.faults) {
  stats_.node_msgs.assign(fabric_->NumNodes(), 0);
  stats_.node_bytes.assign(fabric_->NumNodes(), 0);
}

void MessageBus::SetHandler(Protocol proto, Handler handler) {
  handlers_[static_cast<size_t>(proto)] = std::move(handler);
}

Status MessageBus::Send(Envelope e) {
  if (e.bytes == 0) {
    return Status::InvalidArgument("Send: envelope has bytes == 0");
  }
  const size_t pi = static_cast<size_t>(e.proto);
  if (!handlers_[pi]) {
    return Status::FailedPrecondition(
        std::string("Send: no handler registered for protocol ") +
        ProtocolName(e.proto));
  }
  TrafficCounters& c = stats_.protocol[pi];
  ++c.sent;
  c.bytes += e.bytes;
  stats_.node_msgs[e.from] += 1;
  stats_.node_bytes[e.from] += e.bytes;
  e.send_ms = now_ms_;
  e.seq = next_seq_++;
  if (e.tid == 0) e.tid = next_tid_++;
  if (fabric_->EndpointDown(e.from) || fabric_->EndpointDown(e.to)) {
    ++c.dropped_dead;
    return Status::OK();
  }
  if (fabric_->CrossesPartition(e.from, e.to)) {
    ++c.dropped_partition;
    return Status::OK();
  }
  const double latency = fabric_->live().Latency(e.from, e.to);
  if (std::isinf(latency)) {
    // Unreachable by the fabric's own account (dead-endpoint sentinel or a
    // disconnected topology component): the datagram is lost, not parked
    // on the queue forever.
    ++c.dropped_dead;
    return Status::OK();
  }
  // Chaos layer: only messages the polite network would have delivered are
  // eligible for injected loss / duplication / delay (drops above already
  // have their own counters; double-counting would break conservation).
  const FaultInjector::Decision fault = faults_.Decide(e.proto);
  if (fault.drop) {
    ++c.dropped_fault;
    return Status::OK();
  }
  e.deliver_ms = now_ms_ + latency + fault.extra_delay_ms;
  if (fault.duplicate) {
    // The duplicate is a real wire copy: same transfer id (dedup windows
    // key on it), fresh seq (the delivery total order needs uniqueness),
    // its own delay draw, and it is billed as sent bytes — but not against
    // the sender's node counters, which measure what the node transmitted.
    Envelope dup = e;
    dup.seq = next_seq_++;
    dup.deliver_ms = now_ms_ + latency + fault.dup_extra_delay_ms;
    ++c.sent;
    ++c.duplicated;
    c.bytes += dup.bytes;
    Enqueue(std::move(dup));
  }
  Enqueue(std::move(e));
  return Status::OK();
}

void MessageBus::Enqueue(Envelope&& e) {
  size_t slot;
  if (free_.empty()) {
    slot = slab_.size();
    slab_.push_back(std::move(e));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(e);
  }
  heap_.push_back(Key{slab_[slot].deliver_ms, slab_[slot].seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later());
}

void MessageBus::BeginEpoch() {
  now_ms_ = static_cast<double>(stats_.epochs) * options_.epoch_ms;
}

void MessageBus::EndEpoch() {
  const double horizon =
      static_cast<double>(stats_.epochs + 1) * options_.epoch_ms;
  while (!heap_.empty() && heap_.front().deliver_ms <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    const size_t slot = heap_.back().slot;
    heap_.pop_back();
    // Out of the slab before the handler: its Sends may grow the slab (and
    // reuse this slot first).
    const Envelope e = std::move(slab_[slot]);
    free_.push_back(slot);
    now_ms_ = e.deliver_ms;
    // Endpoints can die between send and delivery (the churn stage runs
    // mid-epoch): a message addressed to a now-dead node is lost.
    if (fabric_->EndpointDown(e.to)) {
      ++stats_.protocol[static_cast<size_t>(e.proto)].dropped_dead;
      continue;
    }
    TrafficCounters& c = stats_.protocol[static_cast<size_t>(e.proto)];
    ++c.delivered;
    const Handler& h = handlers_[static_cast<size_t>(e.proto)];
    if (h) h(e);
  }
  now_ms_ = horizon;
  ++stats_.epochs;
}

}  // namespace sbon::msg
