#include "harness/reference_optimizer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "overlay/metrics.h"
#include "placement/mapping.h"
#include "query/enumerate.h"
#include "query/stats.h"

namespace sbon::test {
namespace {

double ReferenceEstimate(const overlay::Circuit& circuit,
                         const coords::CostSpace& space, double lambda) {
  double network_usage = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    network_usage +=
        e.rate_bytes_per_s * space.VectorDistance(circuit.vertex(e.from).host,
                                                  circuit.vertex(e.to).host);
  }
  return network_usage + lambda * overlay::LoadPenalty(circuit, space);
}

// Greedy reuse passes per candidate circuit and instances evaluated per
// service, closest first: the optimizer's limits.
constexpr size_t kReferenceReuseBindings = 4;
constexpr size_t kReferenceCandidatesPerService = 8;

double ReferenceUpstreamLatency(const overlay::ServiceInstance& inst,
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

// A compatible instance for one vertex and its host's vector distance from
// the vertex's virtual coordinate.
struct ReferenceReuseCandidate {
  const overlay::ServiceInstance* instance = nullptr;
  double distance = 0.0;
};

// The instances of vertex `v`'s signature whose hosts the sphere search
// around its virtual coordinate returns (every one when the radius is
// below 0), closest first, at most kReferenceCandidatesPerService.
StatusOr<std::vector<ReferenceReuseCandidate>> ReferenceReuseCandidates(
    const overlay::Circuit& circuit, int v, double radius,
    const overlay::Sbon& sbon, dht::IndexQueryCost* dht) {
  std::vector<ReferenceReuseCandidate> out;
  const auto instances =
      sbon.ledger().ServicesWithSignature(circuit.plan().OpSignature(v));
  if (instances.empty()) return out;
  std::vector<NodeId> sphere;
  if (radius >= 0.0) {
    Status st = sbon.index().WithinRadiusInto(
        sbon.cost_space().IdealTarget(circuit.vertex(v).virtual_coord),
        radius, dht, &sphere);
    if (!st.ok()) return st;
  }
  for (const overlay::ServiceInstance* inst : instances) {
    if (radius >= 0.0 &&
        std::find(sphere.begin(), sphere.end(), inst->host) == sphere.end()) {
      continue;
    }
    double distance = 0.0;
    sbon.cost_space().VectorDistancesToMany(circuit.vertex(v).virtual_coord,
                                            &inst->host, 1, &distance);
    out.push_back(ReferenceReuseCandidate{inst, distance});
  }
  std::sort(out.begin(), out.end(),
            [](const ReferenceReuseCandidate& a,
               const ReferenceReuseCandidate& b) {
              return a.distance < b.distance;
            });
  if (out.size() > kReferenceCandidatesPerService) {
    out.resize(kReferenceCandidatesPerService);
  }
  return out;
}

// Greedy reuse over a mapped circuit of cost `*cost`: each pass tries every
// reuse candidate of every placeable vertex, larger subtrees first, and
// binds the one whose re-placed and re-mapped variant is strictly
// cheapest. Bills `result` as the optimizer does.
Status ReferenceReusePasses(const core::OptimizerConfig& config,
                            const placement::VirtualPlacer& placer,
                            const overlay::Sbon& sbon,
                            overlay::Circuit* circuit, double* cost,
                            size_t* reused, core::OptimizeResult* result) {
  for (size_t pass = 0; pass < kReferenceReuseBindings; ++pass) {
    const query::LogicalPlan plan = circuit->plan();
    std::vector<int> order;
    for (int v = 0; v < static_cast<int>(circuit->NumVertices()); ++v) {
      if (circuit->Placeable(v)) order.push_back(v);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return plan.StreamSet(a).size() > plan.StreamSet(b).size();
    });
    bool improved = false;
    overlay::Circuit pass_best;
    double pass_best_cost = *cost;
    for (int v : order) {
      auto cands = ReferenceReuseCandidates(*circuit, v, config.reuse_radius,
                                            sbon, &result->mapping.dht_cost);
      if (!cands.ok()) return cands.status();
      result->reuse_candidates_considered += cands->size();
      for (const ReferenceReuseCandidate& rc : *cands) {
        overlay::Circuit variant = *circuit;
        variant.BindReusedSubtree(v, rc.instance->id, rc.instance->host,
                                  ReferenceUpstreamLatency(*rc.instance, sbon));
        Status st = placer.Place(&variant, sbon.cost_space());
        if (!st.ok()) return st;
        st = placement::MapCircuit(&variant, sbon, config.mapping,
                                   &result->mapping);
        if (!st.ok()) return st;
        ++result->placements_evaluated;
        const double vcost =
            ReferenceEstimate(variant, sbon.cost_space(), config.lambda);
        if (vcost < pass_best_cost) {
          pass_best = std::move(variant);
          pass_best_cost = vcost;
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

// A join tree over stream positions of the spec: a leaf when left < 0.
struct TreeNode {
  int left = -1;
  int right = -1;
  size_t leaf_pos = 0;
};

// Every distinct join tree over `mask`, as indices into `arena`, memoized
// per subset. Splits are canonical: the left side holds the lowest bit.
void AllTrees(uint32_t mask, std::vector<TreeNode>* arena,
              std::map<uint32_t, std::vector<int>>* memo) {
  if (memo->count(mask) != 0) return;
  if ((mask & (mask - 1)) == 0) {
    size_t pos = 0;
    while (((mask >> pos) & 1u) == 0) ++pos;
    arena->push_back(TreeNode{-1, -1, pos});
    (*memo)[mask].push_back(static_cast<int>(arena->size()) - 1);
    return;
  }
  const uint32_t lowest = mask & (~mask + 1u);
  for (uint32_t sub = (mask - 1u) & mask; sub != 0; sub = (sub - 1u) & mask) {
    if ((sub & lowest) == 0) continue;
    const uint32_t rest = mask ^ sub;
    AllTrees(sub, arena, memo);
    AllTrees(rest, arena, memo);
    for (int l : (*memo)[sub]) {
      for (int r : (*memo)[rest]) {
        arena->push_back(TreeNode{l, r, 0});
        (*memo)[mask].push_back(static_cast<int>(arena->size()) - 1);
      }
    }
  }
}

// Emits the tree under `node` into `plan`, appending its leaf positions to
// `positions` left to right; returns the subtree's root op.
int EmitTree(const std::vector<TreeNode>& arena, int node,
             const query::QuerySpec& spec, query::LogicalPlan* plan,
             std::vector<size_t>* positions) {
  const TreeNode& t = arena[node];
  if (t.left < 0) {
    int op = plan->AddProducer(spec.streams[t.leaf_pos]);
    const double fsel =
        spec.filter_sel.empty() ? 1.0 : spec.filter_sel[t.leaf_pos];
    if (fsel < 1.0) op = plan->AddSelect(op, fsel);
    positions->push_back(t.leaf_pos);
    return op;
  }
  const size_t begin = positions->size();
  const int l = EmitTree(arena, t.left, spec, plan, positions);
  const size_t mid = positions->size();
  const int r = EmitTree(arena, t.right, spec, plan, positions);
  const std::span<const size_t> all(*positions);
  const double sel = query::CrossSelectivity(
      all.subspan(begin, mid - begin), all.subspan(mid), spec.join_sel);
  return plan->AddJoin(l, r, sel);
}

// One kept DP partial of the reference enumerator: its tree in the arena
// and the structural hash it is deduplicated by.
struct RefPartial {
  double tuple_rate = 0.0;
  double tuple_size = 0.0;
  double cost = 0.0;
  int tree = -1;
  uint64_t shape_hash = 0;
};

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

std::vector<size_t> MaskPositions(uint32_t mask) {
  std::vector<size_t> out;
  for (size_t i = 0; mask != 0; ++i, mask >>= 1) {
    if (mask & 1u) out.push_back(i);
  }
  return out;
}

// Annotated plan of the tree under `root`, as query::EnumeratePlans emits
// it.
StatusOr<query::LogicalPlan> FinishPlan(const std::vector<TreeNode>& arena,
                                        int root, const query::QuerySpec& spec,
                                        const query::Catalog& catalog) {
  query::LogicalPlan plan;
  std::vector<size_t> positions;
  int op = EmitTree(arena, root, spec, &plan, &positions);
  if (spec.aggregate_factor < 1.0) {
    op = plan.AddAggregate(op, spec.aggregate_factor);
  }
  plan.SetConsumer(op, spec.consumer);
  Status st = plan.AnnotateRates(catalog, spec.join_window_s);
  if (!st.ok()) return st;
  return plan;
}

}  // namespace

StatusOr<std::vector<query::LogicalPlan>> EnumerateAllPlansExhaustive(
    const query::QuerySpec& spec, const query::Catalog& catalog) {
  Status valid = spec.Validate(catalog);
  if (!valid.ok()) return valid;
  const size_t n = spec.NumStreams();
  if (n > 7) {
    return Status::InvalidArgument("exhaustive enumeration limited to n<=7");
  }
  std::vector<TreeNode> arena;
  std::map<uint32_t, std::vector<int>> memo;
  const uint32_t full = (1u << n) - 1u;
  AllTrees(full, &arena, &memo);
  std::vector<query::LogicalPlan> plans;
  for (int root : memo[full]) {
    auto plan = FinishPlan(arena, root, spec, catalog);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(plan.value()));
  }
  std::sort(plans.begin(), plans.end(),
            [](const query::LogicalPlan& a, const query::LogicalPlan& b) {
              return a.IntermediateDataRate() < b.IntermediateDataRate();
            });
  return plans;
}

StatusOr<std::vector<query::LogicalPlan>> ReferenceEnumeratePlans(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    size_t top_k) {
  Status valid = spec.Validate(catalog);
  if (!valid.ok()) return valid;
  const size_t n = spec.NumStreams();
  if (n > query::kMaxStreams) {
    return Status::InvalidArgument("too many streams for subset DP");
  }
  if (top_k == 0) return Status::InvalidArgument("top_k must be >= 1");
  const std::vector<std::vector<double>>& psel = spec.join_sel;

  std::vector<TreeNode> arena;
  std::vector<std::vector<RefPartial>> dp(1u << n);
  for (size_t i = 0; i < n; ++i) {
    const query::StreamDef& sd = catalog.stream(spec.streams[i]);
    const double fsel = spec.filter_sel.empty() ? 1.0 : spec.filter_sel[i];
    RefPartial p;
    p.tuple_rate = query::SelectOutputRate(sd.tuple_rate_per_s, fsel);
    p.tuple_size = sd.tuple_size_bytes;
    p.cost = fsel < 1.0 ? sd.BytesPerSecond() : 0.0;
    arena.push_back(TreeNode{-1, -1, i});
    p.tree = static_cast<int>(arena.size()) - 1;
    p.shape_hash = MixHash(0x51ea5ULL, i);
    dp[1u << i].push_back(p);
  }

  const uint32_t full = (1u << n) - 1u;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;
    const uint32_t lowest = mask & (~mask + 1u);
    // Every join of every canonical split, each with its own arena node.
    std::vector<RefPartial> candidates;
    for (uint32_t sub = (mask - 1u) & mask; sub != 0;
         sub = (sub - 1u) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint32_t rest = mask ^ sub;
      const double sel = query::CrossSelectivity(
          MaskPositions(sub), MaskPositions(rest), psel);
      for (const RefPartial& a : dp[sub]) {
        for (const RefPartial& b : dp[rest]) {
          RefPartial p;
          p.tuple_rate = query::JoinOutputRate(a.tuple_rate, b.tuple_rate,
                                               sel, spec.join_window_s);
          p.tuple_size =
              query::JoinOutputTupleSize(a.tuple_size, b.tuple_size);
          p.cost = a.cost + b.cost + a.tuple_rate * a.tuple_size +
                   b.tuple_rate * b.tuple_size;
          const uint64_t ha = a.shape_hash, hb = b.shape_hash;
          p.shape_hash = MixHash(std::min(ha, hb), std::max(ha, hb));
          arena.push_back(TreeNode{a.tree, b.tree, 0});
          p.tree = static_cast<int>(arena.size()) - 1;
          candidates.push_back(p);
        }
      }
    }
    // Sort by (cost, shape hash), then keep the first copy of each shape
    // until top_k are kept.
    std::sort(candidates.begin(), candidates.end(),
              [](const RefPartial& a, const RefPartial& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.shape_hash < b.shape_hash;
              });
    for (const RefPartial& c : candidates) {
      if (dp[mask].size() == top_k) break;
      const bool dup = std::any_of(
          dp[mask].begin(), dp[mask].end(),
          [&](const RefPartial& q) { return q.shape_hash == c.shape_hash; });
      if (!dup) dp[mask].push_back(c);
    }
  }

  std::vector<query::LogicalPlan> plans;
  for (const RefPartial& p : dp[full]) {
    auto plan = FinishPlan(arena, p.tree, spec, catalog);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(plan.value()));
  }
  return plans;
}

StatusOr<core::OptimizeResult> ExhaustiveOptimize(
    const core::OptimizerConfig& config,
    const placement::VirtualPlacer& placer, const query::QuerySpec& spec,
    const query::Catalog& catalog, const overlay::Sbon& sbon) {
  auto plans = query::EnumeratePlans(spec, catalog, config.enumeration);
  if (!plans.ok()) return plans.status();
  core::OptimizeResult best;
  bool have_best = false;
  for (query::LogicalPlan& plan : *plans) {
    auto circuit = overlay::Circuit::FromPlan(std::move(plan), catalog);
    if (!circuit.ok()) return circuit.status();
    Status st = placer.Place(&circuit.value(), sbon.cost_space());
    if (!st.ok()) return st;
    st = placement::MapCircuit(&circuit.value(), sbon, config.mapping,
                               &best.mapping);
    if (!st.ok()) return st;
    ++best.placements_evaluated;
    double cost =
        ReferenceEstimate(*circuit, sbon.cost_space(), config.lambda);
    size_t reused = 0;
    if (config.reuse_radius != 0.0) {
      st = ReferenceReusePasses(config, placer, sbon, &circuit.value(),
                                &cost, &reused, &best);
      if (!st.ok()) return st;
    }
    if (!have_best || cost < best.estimated_cost) {
      best.circuit = std::move(circuit.value());
      best.estimated_cost = cost;
      best.services_reused = reused;
      have_best = true;
    }
  }
  if (!have_best) return Status::Internal("no candidate circuit produced");
  best.plans_considered = plans->size();
  return best;
}

std::string CircuitDiff(const overlay::Circuit& a, const overlay::Circuit& b) {
  const query::LogicalPlan& pa = a.plan();
  const query::LogicalPlan& pb = b.plan();
  if (pa.NumOps() != pb.NumOps() || a.NumVertices() != b.NumVertices()) {
    return "op counts differ: " + pa.Canonical() + " vs " + pb.Canonical();
  }
  for (int i = 0; i < static_cast<int>(pa.NumOps()); ++i) {
    const query::PlanOp& x = pa.op(i);
    const query::PlanOp& y = pb.op(i);
    if (x.kind != y.kind || x.stream != y.stream ||
        x.children != y.children || x.out_bytes_per_s != y.out_bytes_per_s) {
      return "op " + std::to_string(i) + " differs: " + pa.Canonical() +
             " vs " + pb.Canonical();
    }
    const overlay::CircuitVertex& va = a.vertex(i);
    const overlay::CircuitVertex& vb = b.vertex(i);
    if (va.host != vb.host || va.reused != vb.reused ||
        va.service != vb.service) {
      return "vertex " + std::to_string(i) + " (host, reused, service) (" +
             std::to_string(va.host) + ", " + std::to_string(va.reused) +
             ", " + std::to_string(va.service) + ") vs (" +
             std::to_string(vb.host) + ", " + std::to_string(vb.reused) +
             ", " + std::to_string(vb.service) + ")";
    }
  }
  return "";
}

}  // namespace sbon::test
