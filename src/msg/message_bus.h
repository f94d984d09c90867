#ifndef SBON_MSG_MESSAGE_BUS_H_
#define SBON_MSG_MESSAGE_BUS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/fabric.h"
#include "msg/fault.h"
#include "msg/message.h"

namespace sbon::msg {

/// Deterministic discrete-event message loop over the live network fabric.
///
/// The bus is the delivery substrate of message-mode execution: agents Send
/// typed envelopes, the bus schedules each at `now + live one-way latency`
/// between the endpoints (read from net::NetworkFabric — jitter and
/// partition penalties delay messages exactly as they delay everything
/// else), and EndEpoch drains deliveries due within the epoch's simulated
/// duration in (deliver time, send sequence) order. Messages slower than an
/// epoch carry over and deliver in a later epoch — convergence lag under
/// partition emerges from the latency model instead of being scripted.
///
/// Drop semantics (counted per protocol, never delivered):
///  - either endpoint is down (`NetworkFabric::EndpointDown`), or the live
///    latency reads +inf (the fabric's dead-endpoint sentinel);
///  - the pair crosses an active partition cut: a soft partition inflates
///    latency for the oracle, but control-plane datagrams across the cut
///    are treated as lost, which is what makes staleness measurable.
///
/// Queue layout: envelopes sit still in a slab (a freed slot is reused LIFO)
/// and are ordered by 24-byte `{deliver_ms, seq, slot}` keys, so ordering
/// never moves an envelope. Keys live in one buffer, in two places. A Send
/// outside a drain (pings, heartbeats, publishes, joins, leaves, retries)
/// appends its key to a plain batch; EndEpoch sorts the batch once (an LSD
/// radix sort over the deliver_ms bytes that vary, scattering into the
/// buffer past the batch, then an insertion pass that puts each run of
/// equal delivery times in seq order), then drains by merging that sorted
/// run with a binary min-heap behind it, which holds only the keys that
/// handlers Send during the drain (pongs, acks). Keys past the horizon,
/// from either place, move to the front as the batch for the next epoch.
/// A delivery moves its envelope out of the slab before the handler runs
/// (handlers Send, which may grow the slab). The buffer grows before a
/// batch fills half of it, so the sort always has room and a new
/// high-water mark costs one allocation. Buffer, slab and free list keep their high-water capacity:
/// a steady-state Send + EndEpoch round is heap-free.
///
/// Determinism: single-threaded by contract (like every substrate here);
/// delivery order is a total order (deliver_ms, then send seq — unique, so
/// neither the sort nor the heap's layout decides a tie); the bus owns a
/// private seeded Rng that agents draw peer samples from, so message-mode
/// never perturbs the overlay's oracle RNG stream.
class MessageBus {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Simulated wall-clock duration of one engine epoch, in ms. Messages
    /// whose one-way latency exceeds the remaining epoch budget deliver in
    /// a later epoch.
    double epoch_ms = 100.0;
    /// Chaos plan for the fault injector. The default (all-zero rates) is
    /// provably inert: no fault Rng draw ever happens and the bus is
    /// bit-identical to one without an injector.
    FaultPlan faults;
  };

  using Handler = std::function<void(const Envelope&)>;

  MessageBus(const net::NetworkFabric* fabric, const Options& options);

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Registers the delivery handler for one protocol (replacing any
  /// previous one). Handlers may Send — replies scheduled within the
  /// current epoch's horizon deliver in the same drain.
  void SetHandler(Protocol proto, Handler handler);

  /// Queues `e` for delivery (stamping send_ms/deliver_ms/seq/bytes
  /// accounting) or drops it per the class-comment semantics, then runs
  /// the fault injector (loss / duplication / extra delay) on anything
  /// still deliverable. `e.bytes` must be set by the caller; a zero-byte
  /// envelope or a protocol with no registered handler is a programming
  /// error and fails loudly instead of vanishing into the drop counters.
  Status Send(Envelope e);

  /// Hands out the next transfer id. Reliable senders pre-assign tids so
  /// acks can be matched to pending transfers; the bus stamps unset (0)
  /// tids itself at Send from the same counter.
  uint64_t IssueTid() { return next_tid_++; }

  /// Advances the clock to the start of the next engine epoch.
  void BeginEpoch();
  /// Drains every message due by the end of the current epoch, advancing
  /// `now_ms` to each delivery time, then to the epoch boundary.
  void EndEpoch();

  double now_ms() const { return now_ms_; }
  /// Engine epochs fully drained so far.
  size_t epoch() const { return stats_.epochs; }
  size_t pending() const { return keys_.size(); }
  Rng& rng() { return rng_; }
  const net::NetworkFabric& fabric() const { return *fabric_; }
  size_t NumNodes() const { return fabric_->NumNodes(); }

  TrafficStats& stats() { return stats_; }
  const TrafficStats& stats() const { return stats_; }

 private:
  /// Queue entry of one envelope: its delivery order and its slot.
  struct Key {
    double deliver_ms;
    uint64_t seq;
    size_t slot;
  };
  /// Heap comparator: the earliest (deliver_ms, seq) rises to the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.deliver_ms != b.deliver_ms) return a.deliver_ms > b.deliver_ms;
      return a.seq > b.seq;
    }
  };

  /// Parks `e` (fully stamped) in a slab slot and queues its key: on the
  /// heap during a drain, in the batch otherwise.
  void Enqueue(Envelope&& e);
  /// Grows `keys_` (geometrically) until a batch of `n` keys leaves room
  /// for SortBatch's scatter behind it.
  void KeepSortRoom(size_t n);
  /// Sorts the batch (all of `keys_`, outside a drain) by (deliver_ms, seq).
  void SortBatch();

  const net::NetworkFabric* fabric_;
  Options options_;
  Rng rng_;
  FaultInjector faults_;
  double now_ms_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_tid_ = 1;  ///< 0 means "unset" on an Envelope
  bool draining_ = false;        ///< inside EndEpoch's delivery loop
  std::vector<Key> keys_;        ///< the batch (keys queued outside a
                                 ///< drain); during a drain, the sorted
                                 ///< batch, then from `heap_begin_` the
                                 ///< keys handlers queued, a min-heap
                                 ///< under Later
  size_t heap_begin_ = 0;        ///< batch size while draining
  std::vector<Envelope> slab_;   ///< queued envelopes, addressed by slot
  std::vector<size_t> free_;     ///< free slab slots, reused LIFO
  Handler handlers_[kNumProtocols];
  TrafficStats stats_;
};

}  // namespace sbon::msg

#endif  // SBON_MSG_MESSAGE_BUS_H_
