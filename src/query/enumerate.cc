#include "query/enumerate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "query/stats.h"

namespace sbon::query {
namespace {

using internal::Partial;

// Rank order of a row: ascending cost, then shape hash.
bool Precedes(const Partial& a, const Partial& b) {
  return a.cost != b.cost ? a.cost < b.cost : a.shape_hash < b.shape_hash;
}

// A view of the DP table: one row of `width` slots per stream subset, of
// which the first `kept[mask]` hold the subset's cheapest distinct shapes
// in rank order.
struct Table {
  size_t width;
  Partial* slots;
  uint32_t* kept;

  const Partial& at(uint32_t mask, uint32_t slot) const {
    return slots[mask * width + slot];
  }

  // Bounded insert: a costlier copy of a kept shape is dropped, a cheaper
  // one replaces it, and a new shape evicts a full row's last entry if it
  // precedes it. So the row is the sorted, deduplicated top `width` of all
  // offers: an evicted shape re-enters only by beating the last entry.
  void Offer(uint32_t mask, const Partial& p) {
    Partial* r = slots + mask * width;
    const size_t n = kept[mask];
    size_t free = n;  // the slot the insertion shift ends at
    if (n == width) {
      if (!Precedes(p, r[n - 1])) return;
      free = n - 1;
    }
    for (size_t i = 0; i < n; ++i) {
      if (r[i].shape_hash != p.shape_hash) continue;
      if (!Precedes(p, r[i])) return;
      free = i;
      break;
    }
    if (free == n) ++kept[mask];
    size_t pos = free;
    for (; pos > 0 && Precedes(p, r[pos - 1]); --pos) r[pos] = r[pos - 1];
    r[pos] = p;
  }
};

// Distinct join trees over n leaves, (2n-3)!!, capped at `top_k`: no
// subset's row can hold more shapes.
size_t RowWidth(size_t n, size_t top_k) {
  size_t trees = 1;
  for (size_t f = 3; f + 3 <= 2 * n && trees < top_k; f += 2) trees *= f;
  return std::min(trees, top_k);
}

uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

// Stream positions of a subset or a subtree's leaves, in a fixed array.
struct Positions {
  std::array<size_t, kMaxStreams> at{};
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

// Builds the plan subtree of the partial in `slot` of `mask`'s row,
// appending the tree's leaf positions to `positions` in left-to-right
// order: a join's left and right leaf lists are adjacent ranges of it. A
// join's selectivity is taken over those tree-order positions, not over
// the ascending ones the DP ranked it with.
int EmitTree(const Table& table, uint32_t mask, uint32_t slot,
             const QuerySpec& spec, LogicalPlan* plan, Positions* positions) {
  if ((mask & (mask - 1)) == 0) {
    const size_t pos = static_cast<size_t>(std::countr_zero(mask));
    int op = plan->AddProducer(spec.streams[pos]);
    const double fsel = spec.filter_sel.empty() ? 1.0 : spec.filter_sel[pos];
    if (fsel < 1.0) op = plan->AddSelect(op, fsel);
    positions->push_back(pos);
    return op;
  }
  const Partial& p = table.at(mask, slot);
  const size_t begin = positions->size;
  const int l = EmitTree(table, p.left, p.left_slot, spec, plan, positions);
  const size_t mid = positions->size;
  const int r =
      EmitTree(table, mask ^ p.left, p.right_slot, spec, plan, positions);
  const double sel =
      CrossSelectivity(positions->view(begin, mid),
                       positions->view(mid, positions->size), spec.join_sel);
  return plan->AddJoin(l, r, sel);
}

StatusOr<LogicalPlan> FinishPlan(const Table& table, uint32_t full,
                                 uint32_t slot, const QuerySpec& spec,
                                 const Catalog& catalog) {
  const size_t n = spec.NumStreams();
  size_t filters = 0;
  for (double fsel : spec.filter_sel) filters += fsel < 1.0 ? 1 : 0;
  LogicalPlan plan;
  // n producers, their filters, n - 1 joins, an aggregate, the consumer.
  plan.Reserve(2 * n + filters + (spec.aggregate_factor < 1.0 ? 1 : 0));
  Positions positions;
  int op = EmitTree(table, full, slot, spec, &plan, &positions);
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
  return PlanEnumerator().Enumerate(spec, catalog, options);
}

StatusOr<std::vector<LogicalPlan>> PlanEnumerator::Enumerate(
    const QuerySpec& spec, const Catalog& catalog,
    const EnumerationOptions& options) {
  Status valid = spec.Validate(catalog);
  if (!valid.ok()) return valid;
  const size_t n = spec.NumStreams();
  if (n > kMaxStreams) {
    return Status::InvalidArgument("too many streams for subset DP");
  }
  if (options.top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1");
  }
  // Pairwise selectivities; empty when the spec has no join predicates.
  const std::vector<std::vector<double>>& psel = spec.join_sel;

  // Slots are only read below a row's kept count, so a warm table keeps
  // its old contents and only the counts are cleared.
  const size_t width = RowWidth(n, options.top_k);
  const size_t rows = size_t{1} << n;
  if (slots_.size() < rows * width) slots_.resize(rows * width);
  kept_.assign(rows, 0);
  Table table{width, slots_.data(), kept_.data()};
  for (size_t i = 0; i < n; ++i) {
    const StreamDef& sd = catalog.stream(spec.streams[i]);
    const double fsel = spec.filter_sel.empty() ? 1.0 : spec.filter_sel[i];
    Partial p;
    p.tuple_rate = SelectOutputRate(sd.tuple_rate_per_s, fsel);
    p.tuple_size = sd.tuple_size_bytes;
    // A pushed-down filter receives the raw stream over a local edge.
    p.cost = fsel < 1.0 ? sd.BytesPerSecond() : 0.0;
    p.shape_hash = MixHash(0x51ea5ULL, i);
    table.Offer(1u << i, p);
  }

  const uint32_t full = (1u << n) - 1u;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singletons already seeded
    const uint32_t lowest = mask & (~mask + 1u);
    // Iterate proper submasks containing the lowest bit (canonical split).
    for (uint32_t sub = (mask - 1u) & mask; sub != 0;
         sub = (sub - 1u) & mask) {
      if ((sub & lowest) == 0) continue;
      const uint32_t rest = mask ^ sub;
      const Positions left_pos = MaskPositions(sub);
      const Positions right_pos = MaskPositions(rest);
      const double sel =
          CrossSelectivity(left_pos.view(0, left_pos.size),
                           right_pos.view(0, right_pos.size), psel);
      for (uint32_t i = 0; i < table.kept[sub]; ++i) {
        const Partial& a = table.at(sub, i);
        for (uint32_t j = 0; j < table.kept[rest]; ++j) {
          const Partial& b = table.at(rest, j);
          Partial p;
          p.tuple_rate = JoinOutputRate(a.tuple_rate, b.tuple_rate, sel,
                                        spec.join_window_s);
          p.tuple_size = JoinOutputTupleSize(a.tuple_size, b.tuple_size);
          p.cost = a.cost + b.cost + a.tuple_rate * a.tuple_size +
                   b.tuple_rate * b.tuple_size;
          const uint64_t ha = a.shape_hash, hb = b.shape_hash;
          p.shape_hash = MixHash(std::min(ha, hb), std::max(ha, hb));
          p.left = sub;
          p.left_slot = i;
          p.right_slot = j;
          table.Offer(mask, p);
        }
      }
    }
  }

  std::vector<LogicalPlan> plans;
  plans.reserve(table.kept[full]);
  for (uint32_t slot = 0; slot < table.kept[full]; ++slot) {
    auto plan = FinishPlan(table, full, slot, spec, catalog);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(plan.value()));
  }
  return plans;
}

}  // namespace sbon::query
