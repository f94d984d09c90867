#include "msg/fault.h"

namespace sbon::msg {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {}

FaultInjector::Decision FaultInjector::Decide(Protocol proto) {
  Decision d;
  const FaultRates& r = plan_.protocol[static_cast<size_t>(proto)];
  // Fixed draw order, each gated on its own rate: a zero-rate knob never
  // advances the Rng, so turning one fault on cannot perturb another's
  // stream and the all-zero plan is provably inert.
  if (r.loss > 0.0 && rng_.Bernoulli(r.loss)) {
    d.drop = true;
    return d;  // a lost message has no duplicate and no delay to draw
  }
  if (r.duplicate > 0.0 && rng_.Bernoulli(r.duplicate)) d.duplicate = true;
  if (r.delay_jitter_ms > 0.0) {
    d.extra_delay_ms = rng_.Exponential(1.0 / r.delay_jitter_ms);
    if (d.duplicate) {
      d.dup_extra_delay_ms = rng_.Exponential(1.0 / r.delay_jitter_ms);
    }
  }
  return d;
}

}  // namespace sbon::msg
