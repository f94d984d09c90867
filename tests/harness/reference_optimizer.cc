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
    query::LogicalPlan plan;
    std::vector<size_t> positions;
    int op = EmitTree(arena, root, spec, &plan, &positions);
    if (spec.aggregate_factor < 1.0) {
      op = plan.AddAggregate(op, spec.aggregate_factor);
    }
    plan.SetConsumer(op, spec.consumer);
    Status st = plan.AnnotateRates(catalog, spec.join_window_s);
    if (!st.ok()) return st;
    plans.push_back(std::move(plan));
  }
  std::sort(plans.begin(), plans.end(),
            [](const query::LogicalPlan& a, const query::LogicalPlan& b) {
              return a.IntermediateDataRate() < b.IntermediateDataRate();
            });
  return plans;
}

StatusOr<core::OptimizeResult> ExhaustiveIntegratedOptimize(
    const core::OptimizerConfig& config,
    const placement::VirtualPlacer& placer, const query::QuerySpec& spec,
    const query::Catalog& catalog, overlay::Sbon* sbon) {
  auto plans = query::EnumeratePlans(spec, catalog, config.enumeration);
  if (!plans.ok()) return plans.status();
  core::OptimizeResult best;
  bool have_best = false;
  for (query::LogicalPlan& plan : *plans) {
    auto circuit = overlay::Circuit::FromPlan(std::move(plan), catalog);
    if (!circuit.ok()) return circuit.status();
    Status st = placer.Place(&circuit.value(), sbon->cost_space());
    if (!st.ok()) return st;
    st = placement::MapCircuit(&circuit.value(), *sbon, config.mapping,
                               &best.mapping);
    if (!st.ok()) return st;
    ++best.placements_evaluated;
    const double cost =
        ReferenceEstimate(*circuit, sbon->cost_space(), config.lambda);
    if (!have_best || cost < best.estimated_cost) {
      best.circuit = std::move(circuit.value());
      best.estimated_cost = cost;
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
    if (a.vertex(i).host != b.vertex(i).host) {
      return "vertex " + std::to_string(i) + " host " +
             std::to_string(a.vertex(i).host) + " vs " +
             std::to_string(b.vertex(i).host);
    }
  }
  return "";
}

}  // namespace sbon::test
