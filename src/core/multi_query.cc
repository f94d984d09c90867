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

// A compatible, in-radius instance for one placeable vertex.
struct ReuseCandidate {
  int vertex = -1;
  const overlay::ServiceInstance* instance = nullptr;
  double distance = 0.0;
};

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
    std::shared_ptr<const placement::VirtualPlacer> placer, Params params)
    : config_(std::move(config)), placer_(std::move(placer)),
      params_(params) {}

StatusOr<OptimizeResult> MultiQueryOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  Status valid = ValidateLambda(config_.lambda);
  if (!valid.ok()) return valid;
  auto plans = query::EnumeratePlans(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  OptimizeResult best;
  bool have_best = false;

  // Reused across reuse passes: surviving instances and their hosts, so the
  // cost-space pruning distance runs as one batched kernel call per service
  // instead of a per-instance strided probe.
  std::vector<NodeId> sphere_nodes;
  std::vector<const overlay::ServiceInstance*> inst_scratch;
  std::vector<NodeId> host_scratch;
  std::vector<double> dist_scratch;
  std::vector<int> order;
  std::vector<ReuseCandidate> cands;
  if (sphere_stamp_.size() < sbon->cost_space().NumNodes()) {
    sphere_stamp_.resize(sbon->cost_space().NumNodes(), 0);
  }

  for (query::LogicalPlan& enumerated : *plans) {
    auto base = overlay::Circuit::FromPlan(std::move(enumerated), catalog);
    if (!base.ok()) return base.status();
    placement::MappingReport report;
    Status st = PlaceAndMap(&base.value(), sbon, *placer_, config_.mapping,
                            &report);
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
         pass < kMaxReuseBindings && params_.reuse_radius != 0.0;
         ++pass) {
      // Consider larger subtrees first (bigger savings when reused).
      order.clear();
      for (int v = 0; v < static_cast<int>(current.NumVertices()); ++v) {
        if (current.Placeable(v)) order.push_back(v);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return plan.op(a).stream_set.size() > plan.op(b).stream_set.size();
      });

      bool improved = false;
      overlay::Circuit pass_best;
      double pass_best_cost = current_cost;
      size_t pass_best_extra_reused = 0;

      for (int v : order) {
        const uint64_t sig = plan.OpSignature(v);
        const auto instances = sbon->ledger().ServicesWithSignature(sig);
        if (instances.empty()) continue;

        // Cost-space pruning: keep instances whose hosts fall inside the
        // radius-r hyper-sphere around the service's virtual coordinate.
        cands.clear();
        if (params_.reuse_radius < 0.0) {
          inst_scratch.assign(instances.begin(), instances.end());
        } else {
          // Hyper-sphere search via the Hilbert/Chord index, charged as
          // DHT traffic; only nodes the sphere search returns are eligible.
          // Room for every published node: one allocation per Optimize.
          sphere_nodes.reserve(sbon->index().NumPublished());
          Status sst = sbon->index().WithinRadiusInto(
              sbon->cost_space().IdealTarget(current.vertex(v).virtual_coord),
              params_.reuse_radius, &report.dht_cost, &sphere_nodes);
          if (!sst.ok()) return sst;
          if (++sphere_epoch_ == 0) {  // wrap-around: invalidate all marks
            std::fill(sphere_stamp_.begin(), sphere_stamp_.end(), 0);
            sphere_epoch_ = 1;
          }
          for (NodeId n : sphere_nodes) sphere_stamp_[n] = sphere_epoch_;
          inst_scratch.clear();
          for (const overlay::ServiceInstance* inst : instances) {
            if (sphere_stamp_[inst->host] == sphere_epoch_) {
              inst_scratch.push_back(inst);
            }
          }
        }
        // One batched distance sweep over the surviving instances' hosts.
        host_scratch.clear();
        for (const overlay::ServiceInstance* inst : inst_scratch) {
          host_scratch.push_back(inst->host);
        }
        dist_scratch.resize(host_scratch.size());
        sbon->cost_space().VectorDistancesToMany(
            current.vertex(v).virtual_coord, host_scratch.data(),
            host_scratch.size(), dist_scratch.data());
        for (size_t i = 0; i < inst_scratch.size(); ++i) {
          cands.push_back(ReuseCandidate{v, inst_scratch[i], dist_scratch[i]});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const ReuseCandidate& a, const ReuseCandidate& b) {
                    return a.distance < b.distance;
                  });
        if (cands.size() > kMaxCandidatesPerService) {
          cands.resize(kMaxCandidatesPerService);
        }
        best.reuse_candidates_considered += cands.size();

        for (const ReuseCandidate& rc : cands) {
          overlay::Circuit variant = current;  // deep copy
          variant.BindReusedSubtree(
              rc.vertex, rc.instance->id, rc.instance->host,
              UpstreamLatencyOf(*rc.instance, *sbon));
          Status pst = PlaceAndMap(&variant, sbon, *placer_, config_.mapping,
                                   &report);
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
