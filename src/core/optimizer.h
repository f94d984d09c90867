#ifndef SBON_CORE_OPTIMIZER_H_
#define SBON_CORE_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "dht/coord_index.h"
#include "overlay/sbon.h"
#include "placement/mapping.h"
#include "placement/relaxation.h"
#include "placement/virtual_placement.h"
#include "query/enumerate.h"
#include "query/query_spec.h"

namespace sbon::core {

/// Optimizer configuration.
struct OptimizerConfig {
  /// Weight of the node-load penalty relative to network usage when ranking
  /// candidate circuits. Must be >= 0: `Optimize` rejects anything else with
  /// InvalidArgument (a negative weight would reward load, and the
  /// best-first cost bound rests on it).
  double lambda = 1.0;
  /// Multi-query reuse radius (paper Sec. 3.4): only instances hosted
  /// within this cost-space distance of a new service's virtual coordinate
  /// are considered for reuse. 0 disables reuse, and `Optimizer` is then
  /// exactly the integrated optimizer (Sec. 3.3); below 0 means unbounded.
  /// The registry's "integrated" and "two-step" presets pin it to 0.
  double reuse_radius = 50.0;
  /// Plan enumeration (the optimizer virtually places every one of the
  /// top-K candidates; the two-step baseline is K=1).
  query::EnumerationOptions enumeration;
  /// Physical mapping behaviour.
  placement::MappingOptions mapping;

  bool operator==(const OptimizerConfig&) const = default;
};

/// Everything an optimization run produced: the winning placed circuit plus
/// accounting of the work performed.
struct OptimizeResult {
  overlay::Circuit circuit;  ///< fully placed; not yet installed
  /// Cost-space estimate the optimizer ranked this circuit by (a deployed
  /// optimizer cannot see true latencies; benches measure those separately).
  double estimated_cost = 0.0;
  size_t plans_considered = 0;
  /// Candidate circuits placed and fully mapped, reuse variants included.
  /// A candidate that cannot reuse stops mapping once its cost bound cannot
  /// win and is not counted, so this can be below `plans_considered`.
  size_t placements_evaluated = 0;
  size_t reuse_candidates_considered = 0;
  size_t services_reused = 0;
  placement::MappingReport mapping;
};

/// The paper's cost-space query optimizer, operating against a live SBON.
///
/// Integrated optimization (Sec. 3.3): enumerate a set of candidate plans,
/// virtually place each one in the cost space — "this yields exactly one
/// candidate circuit per plan, with the cost of the circuit representing
/// the current node and network state" — and select the cheapest candidate
/// circuit. Virtual placement is computationally inexpensive (no services
/// are instantiated), which is what makes considering placement for every
/// candidate plan tractable at overlay scale. With `enumeration.top_k = 1`
/// this is the classical two-step baseline (Sec. 2.3): network-blind dynamic
/// programming picks the one plan of least intermediate data volume, and
/// only that plan is placed.
///
/// Physical mapping is not cheap: it costs one DHT lookup per service, so
/// the candidates are mapped best first, in ascending virtual network
/// usage, vertex by vertex. With `reuse_radius != 0` (multi-query
/// optimization, Sec. 3.4), a candidate with a placeable vertex whose reuse
/// signature a deployed instance carries is mapped in full, and greedy
/// reuse passes then bind existing instances into it. Only instances hosted
/// within a hyper-sphere of radius `reuse_radius` around the new service's
/// virtual coordinate are considered ("query plans that involve operators
/// hosted on physical nodes that are far away in the cost space are less
/// likely to be useful and thus can be ignored"); the sphere search runs
/// over the Hilbert/Chord index, so pruning also bounds DHT traffic. Below
/// 0 the radius is unbounded, and the ledger's signature catalog answers
/// with no sphere search: the "no pruning" baseline of Figure 4. Every
/// other candidate stops mapping as soon as `EstimateCostLowerBound` shows
/// it cannot win — a cost-limit branch and bound (Graefe & McKenna, "The
/// Volcano Optimizer Generator", ICDE'93). The bound is valid, so the
/// pruning is exact: the winner is the least (estimated cost, enumeration
/// index), the circuit that mapping (and reusing into) every candidate in
/// enumeration order and keeping the first strictly cheaper picks, bit for
/// bit.
///
/// An instance keeps its scratch across Optimize calls, so calls on one
/// instance must not overlap.
class Optimizer {
 public:
  Optimizer(OptimizerConfig config,
            std::shared_ptr<const placement::VirtualPlacer> placer);

  /// Produces a placed (not installed) circuit answering `spec`.
  StatusOr<OptimizeResult> Optimize(const query::QuerySpec& spec,
                                    const query::Catalog& catalog,
                                    overlay::Sbon* sbon);

  const OptimizerConfig& config() const { return config_; }
  const placement::VirtualPlacer& placer() const { return *placer_; }

 private:
  // The deployed instances of one vertex's reuse signature.
  using SignatureHits = std::span<const overlay::ServiceInstance* const>;
  // A virtually placed candidate plan. Candidates are mapped in ascending
  // (virtual_usage, index); virtual network usage orders the mapping and
  // bounds nothing.
  struct Candidate {
    double virtual_usage = 0.0;
    size_t index = 0;  // enumeration index, the tie-break between equal costs
    // With reuse on, signature_hits_[hits_begin + v] holds vertex v's
    // deployed instances (empty for a vertex that is not placeable).
    size_t hits_begin = 0;
    overlay::Circuit circuit;
  };
  // A compatible, in-radius instance for one placeable vertex.
  struct ReuseCandidate {
    int vertex = -1;
    const overlay::ServiceInstance* instance = nullptr;
    double distance = 0.0;
  };

  // Greedy reuse passes over a mapped candidate whose vertex v has the
  // deployed instances `hits[v]`: each binds the reuse candidate whose
  // variant is strictly cheapest, if any, updating `circuit`, its `cost`
  // and the binding count `reused`; bills `result`.
  Status ReusePasses(const overlay::Sbon& sbon, const SignatureHits* hits,
                     overlay::Circuit* circuit, double* cost, size_t* reused,
                     OptimizeResult* result);
  // Fills `cands_` with the reuse candidates among `instances` for vertex
  // `v` of `current`, closest first, at most a fixed number; bills sphere
  // searches to `dht`.
  Status FindReuseCandidates(const overlay::Circuit& current, int v,
                             SignatureHits instances,
                             const overlay::Sbon& sbon,
                             dht::IndexQueryCost* dht);

  OptimizerConfig config_;
  std::shared_ptr<const placement::VirtualPlacer> placer_;
  // Scratch kept across Optimize calls: a warm Optimize allocates only the
  // candidate plans and circuits (and reuse variants).
  query::PlanEnumerator enumerator_;
  std::vector<Candidate> candidates_;
  std::vector<SignatureHits> signature_hits_;
  std::vector<NodeId> mapping_candidates_;
  // In-sphere marks, addressed by node id: `sphere_stamp_[n] ==
  // sphere_epoch_` marks a node the current sphere search returned;
  // bumping the epoch clears every mark without touching memory.
  std::vector<uint32_t> sphere_stamp_;
  uint32_t sphere_epoch_ = 0;
  // Surviving instances' hosts feed one batched pruning-distance kernel
  // call per service.
  std::vector<NodeId> sphere_nodes_;
  std::vector<const overlay::ServiceInstance*> inst_scratch_;
  std::vector<NodeId> host_scratch_;
  std::vector<double> dist_scratch_;
  std::vector<int> order_;
  std::vector<ReuseCandidate> cands_;
};

/// Places and maps an unplaced circuit in one go (virtual placement with
/// `placer`, then DHT mapping over the caller's `candidates` buffer).
Status PlaceAndMap(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                   const placement::VirtualPlacer& placer,
                   const placement::MappingOptions& mapping,
                   placement::MappingReport* report,
                   std::vector<NodeId>* candidates);

/// The optimizer's ranking metric: cost-space estimate of network
/// usage (rate x host vector distance over physical edges, in edge order)
/// plus lambda times `overlay::LoadPenalty`. Fails unless the circuit is
/// fully placed.
StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda);

/// Lower bound on the `EstimateCost` of every full mapping of a virtually
/// placed, partly mapped circuit (unmapped vertices have host
/// kInvalidNode). Evaluates EstimateCost's expression in the same term
/// order, each term that needs an unmapped host replaced by its lower
/// bound: 0 for a network-usage term, `penalty_floor` x rate for a penalty
/// term. With lambda >= 0, non-negative rates and `penalty_floor` at most
/// every node's `ScalarPenalty`, monotone rounding keeps the bound at or
/// below the mapped cost; on a fully placed circuit it is EstimateCost, bit
/// for bit.
double EstimateCostLowerBound(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda,
                              double penalty_floor);

}  // namespace sbon::core

#endif  // SBON_CORE_OPTIMIZER_H_
