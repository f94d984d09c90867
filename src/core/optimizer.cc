#include "core/optimizer.h"

#include <algorithm>
#include <utility>

#include "overlay/metrics.h"

namespace sbon::core {
namespace {

// Greedy reuse passes per candidate circuit (each pass may bind one more
// existing instance).
constexpr size_t kMaxReuseBindings = 4;
// Cap on instances evaluated per service (closest first).
constexpr size_t kMaxCandidatesPerService = 8;

// EstimateCost's expression, with the bounds EstimateCostLowerBound
// documents for terms that need an unmapped host. Leaving a network-usage
// term out equals adding its bound, 0.
double CostExpression(const overlay::Circuit& circuit,
                      const coords::CostSpace& space, double lambda,
                      double penalty_floor) {
  double network_usage = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const NodeId from = circuit.vertex(e.from).host;
    const NodeId to = circuit.vertex(e.to).host;
    if (from == kInvalidNode || to == kInvalidNode) continue;
    network_usage += e.rate_bytes_per_s * space.VectorDistance(from, to);
  }
  return network_usage +
         lambda * overlay::LoadPenalty(circuit, space, penalty_floor);
}

double UpstreamLatencyOf(const overlay::ServiceInstance& inst,
                         const overlay::Sbon& sbon) {
  for (CircuitId cid : inst.circuits) {
    const overlay::Circuit* src = sbon.ledger().FindCircuit(cid);
    if (src == nullptr) continue;
    auto lat = overlay::UpstreamLatencyToService(*src, inst.id,
                                                 sbon.latency());
    if (lat.ok()) return *lat;
  }
  return 0.0;
}

}  // namespace

Optimizer::Optimizer(OptimizerConfig config,
                     std::shared_ptr<const placement::VirtualPlacer> placer)
    : config_(std::move(config)), placer_(std::move(placer)) {}

StatusOr<OptimizeResult> Optimizer::Optimize(const query::QuerySpec& spec,
                                             const query::Catalog& catalog,
                                             overlay::Sbon* sbon) {
  if (!(config_.lambda >= 0.0)) {
    return Status::InvalidArgument("optimizer lambda must be >= 0");
  }
  auto plans = enumerator_.Enumerate(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  // One virtually placed candidate circuit per plan. Placement reads only
  // the cost space, and mapping writes only the mapped circuit and its
  // report, so placing every plan before mapping any of them answers as
  // placing each one right before its mapping would.
  // With reuse on, each candidate's placeable vertices look up their
  // signature's deployed instances here, once: Optimize changes no ledger,
  // so the views hold for every reuse pass.
  candidates_.clear();
  candidates_.reserve(plans->size());
  signature_hits_.clear();
  const bool reuse = config_.reuse_radius != 0.0;
  const coords::CostSpace& space = sbon->cost_space();
  for (size_t index = 0; index < plans->size(); ++index) {
    auto circuit =
        overlay::Circuit::FromPlan(std::move((*plans)[index]), catalog);
    if (!circuit.ok()) return circuit.status();
    Status st = placer_->Place(&circuit.value(), space);
    if (!st.ok()) return st;
    const double usage = placement::VirtualLinearCost(*circuit, space);
    Candidate& candidate = candidates_.emplace_back(
        Candidate{usage, index, signature_hits_.size(),
                  std::move(circuit.value())});
    if (!reuse) continue;
    const overlay::Circuit& placed = candidate.circuit;
    for (int v = 0; v < static_cast<int>(placed.NumVertices()); ++v) {
      signature_hits_.push_back(
          placed.Placeable(v) ? sbon->ledger().ServicesWithSignature(
                                    placed.plan().OpSignature(v))
                              : SignatureHits());
    }
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.virtual_usage != b.virtual_usage) {
                return a.virtual_usage < b.virtual_usage;
              }
              return a.index < b.index;
            });

  const double penalty_floor = space.PenaltyFloor();
  OptimizeResult result;
  result.plans_considered = candidates_.size();
  Candidate* best = nullptr;
  double best_cost = 0.0;
  size_t best_reused = 0;
  // True if (cost, index) would replace the best so far: the least
  // (estimated cost, enumeration index) wins, as in a loop that maps every
  // candidate in enumeration order and keeps the first strictly cheaper.
  auto beats_best = [&](double cost, size_t index) {
    return best == nullptr || cost < best_cost ||
           (cost == best_cost && index < best->index);
  };
  for (Candidate& candidate : candidates_) {
    overlay::Circuit& circuit = candidate.circuit;
    // Only a candidate that can reuse skips the pruning. A reuse pass binds
    // only instances of a vertex's own signature, and binding only shrinks
    // the placeable set, so a candidate with no signature hit ends at its
    // mapped cost, which EstimateCostLowerBound bounds.
    const SignatureHits* hits =
        reuse ? signature_hits_.data() + candidate.hits_begin : nullptr;
    const bool can_reuse =
        reuse && std::any_of(hits, hits + circuit.NumVertices(),
                             [](SignatureHits h) { return !h.empty(); });
    bool pruned = false;
    for (int v = 0; v < static_cast<int>(circuit.NumVertices()); ++v) {
      if (!circuit.Placeable(v)) continue;
      if (!can_reuse && best != nullptr &&
          !beats_best(EstimateCostLowerBound(circuit, *sbon, config_.lambda,
                                             penalty_floor),
                      candidate.index)) {
        pruned = true;
        break;
      }
      Status st = placement::MapVertex(&circuit, v, *sbon, config_.mapping,
                                       &result.mapping, &mapping_candidates_);
      if (!st.ok()) return st;
    }
    if (pruned) continue;
    ++result.placements_evaluated;
    auto mapped_cost = EstimateCost(circuit, *sbon, config_.lambda);
    if (!mapped_cost.ok()) return mapped_cost.status();
    double cost = *mapped_cost;
    size_t reused = 0;
    if (can_reuse) {
      Status st =
          ReusePasses(*sbon, hits, &circuit, &cost, &reused, &result);
      if (!st.ok()) return st;
    }
    if (beats_best(cost, candidate.index)) {
      best = &candidate;
      best_cost = cost;
      best_reused = reused;
    }
  }
  if (best == nullptr) {
    return Status::Internal("no candidate circuit produced");
  }
  result.circuit = std::move(best->circuit);
  result.estimated_cost = best_cost;
  result.services_reused = best_reused;
  return result;
}

Status Optimizer::ReusePasses(const overlay::Sbon& sbon,
                              const SignatureHits* hits,
                              overlay::Circuit* circuit, double* cost,
                              size_t* reused, OptimizeResult* result) {
  // Variants copy `*circuit`, plan included, so this reference keeps its
  // content when a pass's best variant is moved into `*circuit`.
  const query::LogicalPlan& plan = circuit->plan();
  for (size_t pass = 0; pass < kMaxReuseBindings; ++pass) {
    // Consider larger subtrees first (bigger savings when reused).
    order_.clear();
    for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
      if (circuit->Placeable(v)) order_.push_back(v);
    }
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      return plan.StreamSet(a).size() > plan.StreamSet(b).size();
    });

    bool improved = false;
    overlay::Circuit pass_best;
    double pass_best_cost = *cost;

    for (int v : order_) {
      // A vertex with no deployed instance has no reuse candidate.
      if (hits[v].empty()) continue;
      Status st = FindReuseCandidates(*circuit, v, hits[v], sbon,
                                      &result->mapping.dht_cost);
      if (!st.ok()) return st;
      result->reuse_candidates_considered += cands_.size();

      for (const ReuseCandidate& rc : cands_) {
        overlay::Circuit variant = *circuit;  // deep copy
        variant.BindReusedSubtree(rc.vertex, rc.instance->id,
                                  rc.instance->host,
                                  UpstreamLatencyOf(*rc.instance, sbon));
        st = PlaceAndMap(&variant, sbon, *placer_, config_.mapping,
                         &result->mapping, &mapping_candidates_);
        if (!st.ok()) return st;
        result->placements_evaluated += 1;
        auto vcost = EstimateCost(variant, sbon, config_.lambda);
        if (!vcost.ok()) return vcost.status();
        if (*vcost < pass_best_cost) {
          pass_best = std::move(variant);
          pass_best_cost = *vcost;
          improved = true;
        }
      }
    }
    if (!improved) break;
    *circuit = std::move(pass_best);
    *cost = pass_best_cost;
    ++*reused;
  }
  return Status::OK();
}

Status Optimizer::FindReuseCandidates(const overlay::Circuit& current, int v,
                                      SignatureHits instances,
                                      const overlay::Sbon& sbon,
                                      dht::IndexQueryCost* dht) {
  cands_.clear();

  // Cost-space pruning: keep instances whose hosts fall inside the radius-r
  // hyper-sphere around the service's virtual coordinate.
  if (config_.reuse_radius < 0.0) {
    inst_scratch_.assign(instances.begin(), instances.end());
  } else {
    // Hyper-sphere search via the Hilbert/Chord index, charged as DHT
    // traffic; only nodes the sphere search returns are eligible. Room for
    // every published node: the buffer grows at most once.
    sphere_nodes_.reserve(sbon.index().NumPublished());
    Status st = sbon.index().WithinRadiusInto(
        sbon.cost_space().IdealTarget(current.vertex(v).virtual_coord),
        config_.reuse_radius, dht, &sphere_nodes_);
    if (!st.ok()) return st;
    if (sphere_stamp_.size() < sbon.cost_space().NumNodes()) {
      sphere_stamp_.resize(sbon.cost_space().NumNodes(), 0);
    }
    if (++sphere_epoch_ == 0) {  // wrap-around: invalidate all marks
      std::fill(sphere_stamp_.begin(), sphere_stamp_.end(), 0);
      sphere_epoch_ = 1;
    }
    for (NodeId n : sphere_nodes_) sphere_stamp_[n] = sphere_epoch_;
    inst_scratch_.clear();
    for (const overlay::ServiceInstance* inst : instances) {
      if (sphere_stamp_[inst->host] == sphere_epoch_) {
        inst_scratch_.push_back(inst);
      }
    }
  }
  // One batched distance sweep over the surviving instances' hosts.
  host_scratch_.clear();
  for (const overlay::ServiceInstance* inst : inst_scratch_) {
    host_scratch_.push_back(inst->host);
  }
  dist_scratch_.resize(host_scratch_.size());
  sbon.cost_space().VectorDistancesToMany(
      current.vertex(v).virtual_coord, host_scratch_.data(),
      host_scratch_.size(), dist_scratch_.data());
  for (size_t i = 0; i < inst_scratch_.size(); ++i) {
    cands_.push_back(ReuseCandidate{v, inst_scratch_[i], dist_scratch_[i]});
  }
  std::sort(cands_.begin(), cands_.end(),
            [](const ReuseCandidate& a, const ReuseCandidate& b) {
              return a.distance < b.distance;
            });
  if (cands_.size() > kMaxCandidatesPerService) {
    cands_.resize(kMaxCandidatesPerService);
  }
  return Status::OK();
}

StatusOr<double> EstimateCost(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  return CostExpression(circuit, sbon.cost_space(), lambda, 0.0);
}

double EstimateCostLowerBound(const overlay::Circuit& circuit,
                              const overlay::Sbon& sbon, double lambda,
                              double penalty_floor) {
  return CostExpression(circuit, sbon.cost_space(), lambda, penalty_floor);
}

Status PlaceAndMap(overlay::Circuit* circuit, const overlay::Sbon& sbon,
                   const placement::VirtualPlacer& placer,
                   const placement::MappingOptions& mapping,
                   placement::MappingReport* report,
                   std::vector<NodeId>* candidates) {
  Status st = placer.Place(circuit, sbon.cost_space());
  if (!st.ok()) return st;
  return placement::MapCircuit(circuit, sbon, mapping, report, candidates);
}

}  // namespace sbon::core
