#ifndef SBON_MSG_FAULT_H_
#define SBON_MSG_FAULT_H_

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "msg/message.h"

namespace sbon::msg {

/// Per-protocol fault rates of a chaos plan. All-zero rates are the inert
/// plan: the injector draws nothing and delivery is bit-identical to a bus
/// without an injector at all.
struct FaultRates {
  /// Probability an otherwise-deliverable message is silently lost.
  double loss = 0.0;
  /// Probability the network delivers a second copy (same transfer id,
  /// fresh send sequence, its own extra-delay draw).
  double duplicate = 0.0;
  /// Mean of the exponential extra delivery delay, in ms (0 = none).
  /// Independent per-message draws make reordering emerge: a delayed
  /// message can land after ones sent later.
  double delay_jitter_ms = 0.0;
};

/// Everything the injector needs, pinned at bus construction. The fault Rng
/// is dedicated (seeded from `seed`), so enabling faults never perturbs the
/// bus's peer-sampling stream and a faulty run replays bit-identically from
/// its plan.
struct FaultPlan {
  FaultRates protocol[kNumProtocols];
  uint64_t seed = 0xfa017;
};

/// Seeded chaos layer inside MessageBus::Send: decides, per otherwise-
/// deliverable message, whether it is lost, duplicated, or delayed.
///
/// Determinism contract: a draw happens only when the governing rate is
/// nonzero (zero-rate plans are provably inert — the Rng is never
/// advanced), and the draw order per message is fixed (loss, then
/// duplication, then delays), so a fixed plan replays bit-identically
/// across runs.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// What the network does to one message.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    double extra_delay_ms = 0.0;      ///< added to the original's latency
    double dup_extra_delay_ms = 0.0;  ///< added to the duplicate's latency
  };
  Decision Decide(Protocol proto);

 private:
  FaultPlan plan_;
  Rng rng_;
};

}  // namespace sbon::msg

#endif  // SBON_MSG_FAULT_H_
