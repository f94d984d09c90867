#ifndef SBON_TESTS_HARNESS_REFERENCE_MESSAGE_BUS_H_
#define SBON_TESTS_HARNESS_REFERENCE_MESSAGE_BUS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "msg/fault.h"
#include "msg/message.h"
#include "msg/message_bus.h"
#include "net/fabric.h"

namespace sbon::test {

/// The heap-only message bus msg::MessageBus must match: every Send pushes
/// its `{deliver_ms, seq, slot}` key onto one binary min-heap, and EndEpoch
/// pops keys due by the horizon in (deliver_ms, seq) order. Send's stamping,
/// drop rules, fault draws and counters are msg::MessageBus's, so the two
/// buses deliver the same sequence and count the same traffic.
class ReferenceMessageBus {
 public:
  using Handler = std::function<void(const msg::Envelope&)>;

  ReferenceMessageBus(const net::NetworkFabric* fabric,
                      const msg::MessageBus::Options& options);

  ReferenceMessageBus(const ReferenceMessageBus&) = delete;
  ReferenceMessageBus& operator=(const ReferenceMessageBus&) = delete;

  void SetHandler(msg::Protocol proto, Handler handler);
  Status Send(msg::Envelope e);
  void BeginEpoch();
  void EndEpoch();

  double now_ms() const { return now_ms_; }
  size_t pending() const { return heap_.size(); }
  const msg::TrafficStats& stats() const { return stats_; }

 private:
  struct Key {
    double deliver_ms;
    uint64_t seq;
    size_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.deliver_ms != b.deliver_ms) return a.deliver_ms > b.deliver_ms;
      return a.seq > b.seq;
    }
  };

  void Enqueue(msg::Envelope&& e);

  const net::NetworkFabric* fabric_;
  msg::MessageBus::Options options_;
  msg::FaultInjector faults_;
  double now_ms_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_tid_ = 1;
  std::vector<Key> heap_;
  std::vector<msg::Envelope> slab_;
  std::vector<size_t> free_;
  Handler handlers_[msg::kNumProtocols];
  msg::TrafficStats stats_;
};

}  // namespace sbon::test

#endif  // SBON_TESTS_HARNESS_REFERENCE_MESSAGE_BUS_H_
