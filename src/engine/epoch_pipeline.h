#ifndef SBON_ENGINE_EPOCH_PIPELINE_H_
#define SBON_ENGINE_EPOCH_PIPELINE_H_

#include <chrono>
#include <vector>

namespace sbon::engine {

/// One stage of an AdvanceEpoch run, as executed.
struct EpochStageTrace {
  const char* name = "";  ///< stage name (stable across epochs)
  bool ran = false;       ///< stage was enabled this epoch
  double ns = 0.0;        ///< wall time spent in the stage
};

/// The explicit staged runner behind StreamEngine::AdvanceEpoch. An epoch
/// is a fixed sequence of named stages over the overlay substrates
/// (jitter -> load -> coords -> churn+repair -> refresh); the pipeline runs
/// each enabled stage in order and records a per-stage trace (what ran,
/// how long it took) for introspection.
///
/// Stage *order* is the determinism backbone: every stage observes exactly
/// the state the previous stages produced, so a fixed seed yields one
/// answer.
class EpochPipeline {
 public:
  /// Runs `fn()` as the next stage when `enabled`; always records the trace
  /// entry (disabled stages record ran=false with zero time).
  template <typename Fn>
  void Run(const char* name, bool enabled, Fn&& fn) {
    EpochStageTrace entry;
    entry.name = name;
    if (enabled) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      entry.ran = true;
      entry.ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    trace_.push_back(entry);
  }

  const std::vector<EpochStageTrace>& trace() const { return trace_; }

 private:
  std::vector<EpochStageTrace> trace_;
};

}  // namespace sbon::engine

#endif  // SBON_ENGINE_EPOCH_PIPELINE_H_
