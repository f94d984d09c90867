#ifndef SBON_CORE_MULTI_QUERY_H_
#define SBON_CORE_MULTI_QUERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/optimizer.h"

namespace sbon::core {

/// Multi-query optimization with cost-space pruning (paper Sec. 3.4).
///
/// When a new circuit is optimized, existing service instances can be
/// reused — but only instances whose hosts fall within a hyper-sphere of
/// radius `OptimizerConfig::reuse_radius` around the new service's virtual
/// coordinate are considered ("query plans that involve operators hosted
/// on physical nodes that are far away in the cost space are less likely
/// to be useful and thus can be ignored"). The sphere search runs over the
/// Hilbert/Chord coordinate index, so pruning also bounds DHT traffic.
///
/// radius = 0 disables reuse (degenerates to the integrated optimizer);
/// radius < 0 means unbounded (every compatible instance is considered —
/// the "no pruning" upper baseline whose optimizer work Figure 4 argues is
/// unnecessary).
class MultiQueryOptimizer : public Optimizer {
 public:
  MultiQueryOptimizer(OptimizerConfig config,
                      std::shared_ptr<const placement::VirtualPlacer> placer);

  StatusOr<OptimizeResult> Optimize(const query::QuerySpec& spec,
                                    const query::Catalog& catalog,
                                    overlay::Sbon* sbon) override;

 private:
  // A compatible, in-radius instance for one placeable vertex.
  struct ReuseCandidate {
    int vertex = -1;
    const overlay::ServiceInstance* instance = nullptr;
    double distance = 0.0;
  };

  OptimizerConfig config_;
  std::shared_ptr<const placement::VirtualPlacer> placer_;
  // In-sphere marks, addressed by node id: `sphere_stamp_[n] ==
  // sphere_epoch_` marks a node the current sphere search returned;
  // bumping the epoch clears every mark without touching memory.
  std::vector<uint32_t> sphere_stamp_;
  uint32_t sphere_epoch_ = 0;
  // Scratch kept across Optimize calls. Surviving instances' hosts feed one
  // batched pruning-distance kernel call per service.
  query::PlanEnumerator enumerator_;
  std::vector<NodeId> sphere_nodes_;
  std::vector<const overlay::ServiceInstance*> inst_scratch_;
  std::vector<NodeId> host_scratch_;
  std::vector<double> dist_scratch_;
  std::vector<int> order_;
  std::vector<ReuseCandidate> cands_;
  std::vector<NodeId> mapping_candidates_;
};

}  // namespace sbon::core

#endif  // SBON_CORE_MULTI_QUERY_H_
