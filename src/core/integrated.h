#ifndef SBON_CORE_INTEGRATED_H_
#define SBON_CORE_INTEGRATED_H_

#include <memory>
#include <vector>

#include "core/optimizer.h"

namespace sbon::core {

/// The paper's integrated cost-space optimizer (Sec. 3.3): enumerate a set
/// of candidate plans, virtually place each one in the cost space —
/// "this yields exactly one candidate circuit per plan, with the cost of
/// the circuit representing the current node and network state" — and
/// select the cheapest candidate circuit.
///
/// Virtual placement is computationally inexpensive (no services are
/// instantiated), which is what makes considering placement for every
/// candidate plan tractable at overlay scale. Physical mapping is not: it
/// costs one DHT lookup per service. So the candidates are mapped best
/// first, in ascending virtual network usage, vertex by vertex, and a
/// candidate stops mapping as soon as `EstimateCostLowerBound` shows it
/// cannot win — a cost-limit branch and bound (Graefe & McKenna, "The
/// Volcano Optimizer Generator", ICDE'93). The bound is valid, so the
/// pruning is exact: the winner is the least (estimated cost, enumeration
/// index) over all candidates, the circuit that mapping every one of them
/// in full would pick, bit for bit.
///
/// With `enumeration.top_k = 1` this is the classical two-step baseline
/// (Sec. 2.3): network-blind dynamic programming picks the one plan of
/// least intermediate data volume, and only that plan is placed.
class IntegratedOptimizer : public Optimizer {
 public:
  IntegratedOptimizer(OptimizerConfig config,
                      std::shared_ptr<const placement::VirtualPlacer> placer);

  StatusOr<OptimizeResult> Optimize(const query::QuerySpec& spec,
                                    const query::Catalog& catalog,
                                    overlay::Sbon* sbon) override;

  const OptimizerConfig& config() const { return config_; }
  const placement::VirtualPlacer& placer() const { return *placer_; }

 private:
  // A virtually placed candidate plan. Candidates are mapped in ascending
  // (virtual_usage, index); virtual network usage orders the mapping and
  // bounds nothing.
  struct Candidate {
    double virtual_usage = 0.0;
    size_t index = 0;  // enumeration index, the tie-break between equal costs
    overlay::Circuit circuit;
  };

  OptimizerConfig config_;
  std::shared_ptr<const placement::VirtualPlacer> placer_;
  // Scratch kept across Optimize calls: a warm Optimize allocates only the
  // candidate plans and circuits.
  query::PlanEnumerator enumerator_;
  std::vector<Candidate> candidates_;
  std::vector<NodeId> mapping_candidates_;
};

}  // namespace sbon::core

#endif  // SBON_CORE_INTEGRATED_H_
