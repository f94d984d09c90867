#include "core/multi_query.h"

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

MultiQueryOptimizer::MultiQueryOptimizer(
    OptimizerConfig config,
    std::shared_ptr<const placement::VirtualPlacer> placer)
    : config_(std::move(config)), placer_(std::move(placer)) {}

StatusOr<OptimizeResult> MultiQueryOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  Status valid = ValidateLambda(config_.lambda);
  if (!valid.ok()) return valid;
  auto plans = enumerator_.Enumerate(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  OptimizeResult best;
  bool have_best = false;
  if (sphere_stamp_.size() < sbon->cost_space().NumNodes()) {
    sphere_stamp_.resize(sbon->cost_space().NumNodes(), 0);
  }

  for (query::LogicalPlan& enumerated : *plans) {
    auto base = overlay::Circuit::FromPlan(std::move(enumerated), catalog);
    if (!base.ok()) return base.status();
    placement::MappingReport report;
    Status st = PlaceAndMap(&base.value(), sbon, *placer_, config_.mapping,
                            &report, &mapping_candidates_);
    if (!st.ok()) return st;
    best.placements_evaluated += 1;

    auto base_cost = EstimateCost(*base, *sbon, config_.lambda);
    if (!base_cost.ok()) return base_cost.status();
    overlay::Circuit current = std::move(base.value());
    // Variants copy `current`, plan included, so this reference keeps its
    // content when a pass's best variant is moved into `current`.
    const query::LogicalPlan& plan = current.plan();
    double current_cost = *base_cost;
    size_t current_reused = 0;

    // Greedy reuse passes.
    for (size_t pass = 0;
         pass < kMaxReuseBindings && config_.reuse_radius != 0.0;
         ++pass) {
      // Consider larger subtrees first (bigger savings when reused).
      order_.clear();
      for (int v = 0; v < static_cast<int>(current.NumVertices()); ++v) {
        if (current.Placeable(v)) order_.push_back(v);
      }
      std::sort(order_.begin(), order_.end(), [&](int a, int b) {
        return plan.StreamSet(a).size() > plan.StreamSet(b).size();
      });

      bool improved = false;
      overlay::Circuit pass_best;
      double pass_best_cost = current_cost;
      size_t pass_best_extra_reused = 0;

      for (int v : order_) {
        const uint64_t sig = plan.OpSignature(v);
        const auto instances = sbon->ledger().ServicesWithSignature(sig);
        if (instances.empty()) continue;

        // Cost-space pruning: keep instances whose hosts fall inside the
        // radius-r hyper-sphere around the service's virtual coordinate.
        cands_.clear();
        if (config_.reuse_radius < 0.0) {
          inst_scratch_.assign(instances.begin(), instances.end());
        } else {
          // Hyper-sphere search via the Hilbert/Chord index, charged as
          // DHT traffic; only nodes the sphere search returns are eligible.
          // Room for every published node: the buffer grows at most once.
          sphere_nodes_.reserve(sbon->index().NumPublished());
          Status sst = sbon->index().WithinRadiusInto(
              sbon->cost_space().IdealTarget(current.vertex(v).virtual_coord),
              config_.reuse_radius, &report.dht_cost, &sphere_nodes_);
          if (!sst.ok()) return sst;
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
        sbon->cost_space().VectorDistancesToMany(
            current.vertex(v).virtual_coord, host_scratch_.data(),
            host_scratch_.size(), dist_scratch_.data());
        for (size_t i = 0; i < inst_scratch_.size(); ++i) {
          cands_.push_back(
              ReuseCandidate{v, inst_scratch_[i], dist_scratch_[i]});
        }
        std::sort(cands_.begin(), cands_.end(),
                  [](const ReuseCandidate& a, const ReuseCandidate& b) {
                    return a.distance < b.distance;
                  });
        if (cands_.size() > kMaxCandidatesPerService) {
          cands_.resize(kMaxCandidatesPerService);
        }
        best.reuse_candidates_considered += cands_.size();

        for (const ReuseCandidate& rc : cands_) {
          overlay::Circuit variant = current;  // deep copy
          variant.BindReusedSubtree(
              rc.vertex, rc.instance->id, rc.instance->host,
              UpstreamLatencyOf(*rc.instance, *sbon));
          Status pst = PlaceAndMap(&variant, sbon, *placer_, config_.mapping,
                                   &report, &mapping_candidates_);
          if (!pst.ok()) return pst;
          best.placements_evaluated += 1;
          auto vcost = EstimateCost(variant, *sbon, config_.lambda);
          if (!vcost.ok()) return vcost.status();
          if (*vcost < pass_best_cost) {
            pass_best = std::move(variant);
            pass_best_cost = *vcost;
            pass_best_extra_reused = 1;
            improved = true;
          }
        }
      }
      if (!improved) break;
      current = std::move(pass_best);
      current_cost = pass_best_cost;
      current_reused += pass_best_extra_reused;
    }

    if (!have_best || current_cost < best.estimated_cost) {
      best.circuit = std::move(current);
      best.estimated_cost = current_cost;
      best.services_reused = current_reused;
      have_best = true;
    }
    best.mapping += report;
  }
  if (!have_best) return Status::Internal("no candidate circuit produced");
  best.plans_considered = plans->size();
  return best;
}

}  // namespace sbon::core
