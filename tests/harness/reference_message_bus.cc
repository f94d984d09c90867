#include "harness/reference_message_bus.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace sbon::test {

ReferenceMessageBus::ReferenceMessageBus(
    const net::NetworkFabric* fabric, const msg::MessageBus::Options& options)
    : fabric_(fabric), options_(options), faults_(options.faults) {
  stats_.node_msgs.assign(fabric_->NumNodes(), 0);
  stats_.node_bytes.assign(fabric_->NumNodes(), 0);
}

void ReferenceMessageBus::SetHandler(msg::Protocol proto, Handler handler) {
  handlers_[static_cast<size_t>(proto)] = std::move(handler);
}

Status ReferenceMessageBus::Send(msg::Envelope e) {
  if (e.bytes == 0) {
    return Status::InvalidArgument("Send: envelope has bytes == 0");
  }
  const size_t pi = static_cast<size_t>(e.proto);
  if (!handlers_[pi]) {
    return Status::FailedPrecondition(
        std::string("Send: no handler registered for protocol ") +
        msg::ProtocolName(e.proto));
  }
  msg::TrafficCounters& c = stats_.protocol[pi];
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
    ++c.dropped_dead;
    return Status::OK();
  }
  const msg::FaultInjector::Decision fault = faults_.Decide(e.proto);
  if (fault.drop) {
    ++c.dropped_fault;
    return Status::OK();
  }
  e.deliver_ms = now_ms_ + latency + fault.extra_delay_ms;
  if (fault.duplicate) {
    msg::Envelope dup = e;
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

void ReferenceMessageBus::Enqueue(msg::Envelope&& e) {
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

void ReferenceMessageBus::BeginEpoch() {
  now_ms_ = static_cast<double>(stats_.epochs) * options_.epoch_ms;
}

void ReferenceMessageBus::EndEpoch() {
  const double horizon =
      static_cast<double>(stats_.epochs + 1) * options_.epoch_ms;
  while (!heap_.empty() && heap_.front().deliver_ms <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    const size_t slot = heap_.back().slot;
    heap_.pop_back();
    const msg::Envelope e = std::move(slab_[slot]);
    free_.push_back(slot);
    now_ms_ = e.deliver_ms;
    if (fabric_->EndpointDown(e.to)) {
      ++stats_.protocol[static_cast<size_t>(e.proto)].dropped_dead;
      continue;
    }
    ++stats_.protocol[static_cast<size_t>(e.proto)].delivered;
    const Handler& h = handlers_[static_cast<size_t>(e.proto)];
    if (h) h(e);
  }
  now_ms_ = horizon;
  ++stats_.epochs;
}

}  // namespace sbon::test
