#include "query/enumerate.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "query/stats.h"

namespace sbon::query {
namespace {

// Join-tree arena node over stream *positions* of the spec.
struct TreeNode {
  int left = -1;
  int right = -1;
  size_t leaf_pos = 0;  // valid when left < 0
};

// A partial DP result over one stream subset.
struct Partial {
  double tuple_rate = 0.0;
  double tuple_size = 0.0;
  double cost = 0.0;  // bytes/s shipped on edges internal to the subtree
  int tree = -1;
  uint64_t shape_hash = 0;  // order-insensitive structural hash for dedupe
};

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

// Stream positions of a subset or a subtree's leaves, in a fixed array:
// the subset DP caps a query at 31 streams.
struct Positions {
  std::array<size_t, 31> at{};
  size_t size = 0;

  void push_back(size_t pos) { at[size++] = pos; }
  std::span<const size_t> view(size_t begin, size_t end) const {
    return std::span<const size_t>(at).subspan(begin, end - begin);
  }
};

// Positions of the set bits of `mask`, ascending.
Positions MaskPositions(uint32_t mask) {
  Positions out;
  for (size_t i = 0; mask != 0; ++i, mask >>= 1) {
    if (mask & 1u) out.push_back(i);
  }
  return out;
}

// Builds a LogicalPlan from a join tree over spec positions, appending the
// tree's leaf positions to `positions` in left-to-right order: a join's
// left and right leaf lists are adjacent ranges of it.
int EmitTree(const std::vector<TreeNode>& arena, int node,
             const QuerySpec& spec,
             const std::vector<std::vector<double>>& pair_sel,
             LogicalPlan* plan, Positions* positions) {
  const TreeNode& t = arena[node];
  if (t.left < 0) {
    const size_t pos = t.leaf_pos;
    int op = plan->AddProducer(spec.streams[pos]);
    const double fsel = spec.filter_sel.empty() ? 1.0 : spec.filter_sel[pos];
    if (fsel < 1.0) op = plan->AddSelect(op, fsel);
    positions->push_back(pos);
    return op;
  }
  const size_t begin = positions->size;
  const int l = EmitTree(arena, t.left, spec, pair_sel, plan, positions);
  const size_t mid = positions->size;
  const int r = EmitTree(arena, t.right, spec, pair_sel, plan, positions);
  const double sel =
      CrossSelectivity(positions->view(begin, mid),
                       positions->view(mid, positions->size), pair_sel);
  return plan->AddJoin(l, r, sel);
}

StatusOr<LogicalPlan> FinishPlan(const std::vector<TreeNode>& arena, int root,
                                 const QuerySpec& spec,
                                 const std::vector<std::vector<double>>& psel,
                                 const Catalog& catalog) {
  LogicalPlan plan;
  Positions positions;
  int op = EmitTree(arena, root, spec, psel, &plan, &positions);
  if (spec.aggregate_factor < 1.0) {
    op = plan.AddAggregate(op, spec.aggregate_factor);
  }
  plan.SetConsumer(op, spec.consumer);
  Status s = plan.AnnotateRates(catalog, spec.join_window_s);
  if (!s.ok()) return s;
  return plan;
}

}  // namespace

StatusOr<std::vector<LogicalPlan>> EnumeratePlans(
    const QuerySpec& spec, const Catalog& catalog,
    const EnumerationOptions& options) {
  Status valid = spec.Validate(catalog);
  if (!valid.ok()) return valid;
  const size_t n = spec.NumStreams();
  if (n > options.max_streams || n > 31) {
    return Status::InvalidArgument("too many streams for subset DP");
  }
  if (options.top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1");
  }
  // Pairwise selectivities; empty when the spec has no join predicates.
  const std::vector<std::vector<double>>& psel = spec.join_sel;

  std::vector<TreeNode> arena;
  // dp[mask] = up to top_k best partials, sorted by cost.
  std::vector<std::vector<Partial>> dp(1u << n);

  for (size_t i = 0; i < n; ++i) {
    const StreamDef& sd = catalog.stream(spec.streams[i]);
    const double fsel = spec.filter_sel.empty() ? 1.0 : spec.filter_sel[i];
    Partial p;
    p.tuple_rate = SelectOutputRate(sd.tuple_rate_per_s, fsel);
    p.tuple_size = sd.tuple_size_bytes;
    // A pushed-down filter receives the raw stream over a local edge.
    p.cost = fsel < 1.0 ? sd.BytesPerSecond() : 0.0;
    arena.push_back(TreeNode{-1, -1, i});
    p.tree = static_cast<int>(arena.size()) - 1;
    p.shape_hash = MixHash(0x51ea5ULL, i);
    dp[1u << i].push_back(p);
  }

  const uint32_t full = (n >= 31) ? 0x7fffffffu : ((1u << n) - 1u);
  // Every split's joins of one subset, reused across subsets; only the
  // kept top_k are copied into dp.
  std::vector<Partial> candidates;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons already seeded
    const uint32_t lowest = mask & (~mask + 1u);
    candidates.clear();
    // Iterate proper submasks containing the lowest bit (canonical split).
    for (uint32_t sub = (mask - 1u) & mask; sub != 0;
         sub = (sub - 1u) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint32_t rest = mask ^ sub;
      if (options.left_deep_only) {
        const bool sub_single = (sub & (sub - 1)) == 0;
        const bool rest_single = (rest & (rest - 1)) == 0;
        if (!sub_single && !rest_single) continue;
      }
      const Positions left_pos = MaskPositions(sub);
      const Positions right_pos = MaskPositions(rest);
      const double sel =
          CrossSelectivity(left_pos.view(0, left_pos.size),
                           right_pos.view(0, right_pos.size), psel);
      for (const Partial& a : dp[sub]) {
        for (const Partial& b : dp[rest]) {
          Partial p;
          p.tuple_rate = JoinOutputRate(a.tuple_rate, b.tuple_rate, sel,
                                        spec.join_window_s);
          p.tuple_size = JoinOutputTupleSize(a.tuple_size, b.tuple_size);
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
    // Keep the top_k cheapest distinct shapes.
    std::sort(candidates.begin(), candidates.end(),
              [](const Partial& a, const Partial& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                return a.shape_hash < b.shape_hash;
              });
    // Compacted in place: the kept prefix never overtakes the scan.
    size_t kept = 0;
    for (size_t i = 0; i < candidates.size() && kept < options.top_k; ++i) {
      const uint64_t hash = candidates[i].shape_hash;
      const bool dup =
          std::any_of(candidates.begin(), candidates.begin() + kept,
                      [&](const Partial& q) { return q.shape_hash == hash; });
      if (!dup) candidates[kept++] = candidates[i];
    }
    dp[mask].assign(candidates.begin(), candidates.begin() + kept);
  }

  std::vector<LogicalPlan> plans;
  for (const Partial& p : dp[full]) {
    auto plan = FinishPlan(arena, p.tree, spec, psel, catalog);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(plan.value()));
  }
  if (plans.empty()) return Status::Internal("enumeration produced no plans");
  return plans;
}

}  // namespace sbon::query
