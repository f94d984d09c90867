#include "msg/message_bus.h"

#include <algorithm>
#include <bit>
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
  const Key key{slab_[slot].deliver_ms, slab_[slot].seq, slot};
  if (!draining_) {
    KeepSortRoom(keys_.size() + 1);
    keys_.push_back(key);
    return;
  }
  keys_.push_back(key);
  std::push_heap(keys_.begin() + static_cast<ptrdiff_t>(heap_begin_),
                 keys_.end(), Later());
}

void MessageBus::KeepSortRoom(size_t n) {
  if (2 * n > keys_.capacity()) keys_.reserve(4 * n);
}

void MessageBus::SortBatch() {
  const size_t n = keys_.size();
  if (n < 2) return;
  // LSD radix sort over the deliver_ms bytes that vary in the batch: a
  // delivery time is never negative, so its bit pattern orders as the
  // value does. One pass counts every such byte, then one stable scatter
  // per byte, least significant first. On `chaos` it beats std::sort (~600
  // keys a round); below ~100 keys std::sort would be faster, but such a
  // sort costs a few µs.
  constexpr size_t kBuckets = 256;
  constexpr size_t kMaxPasses = 8;  // the 8 bytes of deliver_ms
  const auto bits = [](const Key& k) {
    return std::bit_cast<uint64_t>(k.deliver_ms);
  };
  uint64_t varying = 0;
  const uint64_t time0 = bits(keys_[0]);
  for (const Key& k : keys_) varying |= bits(k) ^ time0;
  unsigned shifts[kMaxPasses];
  size_t passes = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & (kBuckets - 1)) != 0) shifts[passes++] = shift;
  }
  size_t offsets[kMaxPasses][kBuckets];
  for (size_t p = 0; p < passes; ++p) std::fill_n(offsets[p], kBuckets, 0);
  for (const Key& k : keys_) {
    for (size_t p = 0; p < passes; ++p) {
      ++offsets[p][(bits(k) >> shifts[p]) & (kBuckets - 1)];
    }
  }
  // The passes scatter back and forth between the batch and the n slots
  // behind it, which Enqueue has kept within the buffer's capacity (only a
  // carried-over batch no Send followed may still need them).
  KeepSortRoom(n);
  keys_.resize(2 * n);
  Key* from = keys_.data();
  Key* to = from + n;
  for (size_t p = 0; p < passes; ++p) {
    size_t* offset = offsets[p];
    size_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    for (const Key* k = from; k != from + n; ++k) {
      to[offset[(bits(*k) >> shifts[p]) & (kBuckets - 1)]++] = *k;
    }
    std::swap(from, to);
  }
  if (from != keys_.data()) std::copy(from, from + n, keys_.data());
  keys_.resize(n);
  // The sort is stable, so each run of equal delivery times is in batch
  // position order, which is not always seq order: a network duplicate is
  // queued before its original but takes the later seq, and the keys a
  // drain carried over from its heap keep the heap's layout. An insertion
  // pass under (deliver_ms, seq) moves keys only within their runs, which
  // are short.
  for (size_t i = 1; i < n; ++i) {
    const Key key = keys_[i];
    size_t j = i;
    for (; j > 0 && Later()(keys_[j - 1], key); --j) keys_[j] = keys_[j - 1];
    keys_[j] = key;
  }
}

void MessageBus::BeginEpoch() {
  now_ms_ = static_cast<double>(stats_.epochs) * options_.epoch_ms;
}

void MessageBus::EndEpoch() {
  const double horizon =
      static_cast<double>(stats_.epochs + 1) * options_.epoch_ms;
  // Every key queued so far is in the batch; sorted once, it merges with
  // the heap of keys the handlers queue behind it below. Handlers never
  // append to the batch, so it stays put while the loop reads it (by
  // index: a handler's Send may move the buffer).
  SortBatch();
  heap_begin_ = keys_.size();
  draining_ = true;
  size_t next = 0;  // the batch's first undelivered key
  for (;;) {
    const bool heap_empty = keys_.size() == heap_begin_;
    const bool from_batch =
        next < heap_begin_ &&
        (heap_empty || Later()(keys_[heap_begin_], keys_[next]));
    if (!from_batch && heap_empty) break;
    const Key key = keys_[from_batch ? next : heap_begin_];
    if (key.deliver_ms > horizon) break;
    const size_t slot = key.slot;
    if (from_batch) {
      ++next;
    } else {
      std::pop_heap(keys_.begin() + static_cast<ptrdiff_t>(heap_begin_),
                    keys_.end(), Later());
      keys_.pop_back();
    }
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
  draining_ = false;
  // Keys past the horizon, from either place, carry over as the batch.
  keys_.erase(keys_.begin(), keys_.begin() + static_cast<ptrdiff_t>(next));
  now_ms_ = horizon;
  ++stats_.epochs;
}

}  // namespace sbon::msg
