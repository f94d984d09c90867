// Bit-identity pin of the plan enumerator: query::EnumeratePlans keeps one
// flat table of top-k rows, fills each row by bounded insertion and emits
// plans by walking back-pointers. The reference (test::
// ReferenceEnumeratePlans) is the subset DP it replaced: an arena node per
// join considered, and per subset a full sort by (cost, shape hash) then a
// dedupe down to the top k. Both must return the same plans, op for op and
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/reference_optimizer.h"
#include "query/catalog.h"
#include "query/enumerate.h"
#include "query/plan.h"
#include "query/query_spec.h"

namespace sbon::query {
namespace {

constexpr size_t kTopKs[] = {1, 2, 3, 8, 16};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The first difference between two plan lists, as text; "" when they are
// identical.
std::string PlanListDiff(const std::vector<LogicalPlan>& got,
                         const std::vector<LogicalPlan>& want) {
  if (got.size() != want.size()) {
    return "plan count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t p = 0; p < got.size(); ++p) {
    const LogicalPlan& g = got[p];
    const LogicalPlan& w = want[p];
    const std::string at = "plan " + std::to_string(p) + " (" +
                           g.Canonical() + " vs " + w.Canonical() + ")";
    if (g.NumOps() != w.NumOps()) return at + ": op count";
    if (g.root() != w.root()) return at + ": root";
    if (g.consumer() != w.consumer()) return at + ": consumer";
    for (int i = 0; i < static_cast<int>(g.NumOps()); ++i) {
      const PlanOp& a = g.op(i);
      const PlanOp& b = w.op(i);
      const std::string op = at + " op " + std::to_string(i) + ": ";
      if (a.kind != b.kind) return op + "kind";
      if (a.stream != b.stream) return op + "stream";
      if (Bits(a.selectivity) != Bits(b.selectivity)) return op + "selectivity";
      if (Bits(a.rate_factor) != Bits(b.rate_factor)) return op + "rate factor";
      if (a.children != b.children) return op + "children";
      if (a.num_parents != b.num_parents) return op + "parent count";
      if (Bits(a.out_tuple_rate) != Bits(b.out_tuple_rate)) {
        return op + "out tuple rate";
      }
      if (Bits(a.out_tuple_size) != Bits(b.out_tuple_size)) {
        return op + "out tuple size";
      }
      if (Bits(a.out_bytes_per_s) != Bits(b.out_bytes_per_s)) {
        return op + "out bytes/s";
      }
      if (!std::ranges::equal(g.StreamSet(i), w.StreamSet(i))) {
        return op + "stream set";
      }
    }
  }
  return "";
}

// Enumerates `spec` both ways and returns the first difference ("" when
// none).
std::string EnumerationDiff(const QuerySpec& spec, const Catalog& catalog,
                            size_t top_k) {
  EnumerationOptions opts;
  opts.top_k = top_k;
  auto got = EnumeratePlans(spec, catalog, opts);
  auto want = test::ReferenceEnumeratePlans(spec, catalog, top_k);
  if (got.ok() != want.ok()) return "status differs";
  if (!got.ok()) return "both failed: " + got.status().message();
  return PlanListDiff(*got, *want);
}

// Eight streams; a few share a rate and a tuple size, so different join
// orders can cost exactly the same.
Catalog RandomCatalog(Rng* rng) {
  Catalog c;
  for (size_t s = 0; s < 8; ++s) {
    const bool tied = rng->Bernoulli(0.3);
    c.AddStream(IndexedStreamName(s),
                tied ? 50.0 : rng->Uniform(1.0, 500.0),
                tied ? 64.0 : rng->Uniform(16.0, 256.0),
                static_cast<NodeId>(rng->UniformInt(64)));
  }
  return c;
}

enum class Graph { kNone, kChain, kStar, kClique };

// A 1-8 stream spec over `catalog` with a random join graph, filters
// (a few dropping everything) and aggregate.
QuerySpec RandomSpec(const Catalog& catalog, Rng* rng) {
  QuerySpec spec;
  spec.consumer = static_cast<NodeId>(rng->UniformInt(64));
  for (StreamId s = 0; s < catalog.NumStreams(); ++s) {
    spec.streams.push_back(s);
  }
  rng->Shuffle(&spec.streams);
  const size_t n = 1 + rng->UniformInt(8);
  spec.streams.resize(n);
  if (rng->Bernoulli(0.6)) {
    for (size_t i = 0; i < n; ++i) {
      const double u = rng->NextDouble();
      spec.filter_sel.push_back(u < 0.05 ? 0.0 : u < 0.5 ? 1.0 : u);
    }
  }
  if (rng->Bernoulli(0.3)) spec.aggregate_factor = rng->Uniform(0.01, 1.0);
  if (rng->Bernoulli(0.2)) spec.join_window_s = rng->Uniform(0.1, 10.0);
  const auto graph = static_cast<Graph>(rng->UniformInt(4));
  if (graph == Graph::kNone) return spec;
  spec.join_sel.assign(n, std::vector<double>(n, 1.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const bool edge = graph == Graph::kClique ||
                        (graph == Graph::kChain && j == i + 1) ||
                        (graph == Graph::kStar && i == 0);
      if (!edge) continue;
      const double sel =
          rng->Bernoulli(0.02) ? 0.0 : std::exp(rng->Uniform(-9.0, 0.0));
      spec.join_sel[i][j] = spec.join_sel[j][i] = sel;
    }
  }
  return spec;
}

TEST(EnumerateEquivalence, RandomSpecsMatchTheSortingReference) {
  Rng rng(0xE7A8);
  size_t cases = 0, multi_plan = 0;
  for (int catalog_round = 0; catalog_round < 30; ++catalog_round) {
    const Catalog catalog = RandomCatalog(&rng);
    for (int s = 0; s < 20; ++s) {
      const QuerySpec spec = RandomSpec(catalog, &rng);
      for (size_t top_k : kTopKs) {
        ASSERT_EQ(EnumerationDiff(spec, catalog, top_k), "")
            << "catalog " << catalog_round << " spec " << s << " n "
            << spec.NumStreams() << " top_k " << top_k;
        ++cases;
        multi_plan += spec.NumStreams() >= 3 && top_k > 1 ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(cases, 3000u);
  EXPECT_GT(multi_plan, 1000u);
}

// Equal-rate streams under one uniform selectivity: every join order of the
// same shape class costs exactly the same, so the rows are ranked by the
// shape-hash tie-break alone.
TEST(EnumerateEquivalence, CostTiesBreakByShapeHash) {
  Catalog catalog;
  for (int s = 0; s < 7; ++s) catalog.AddStream("s", 40.0, 100.0, 0);
  size_t tied = 0;
  for (size_t n = 2; n <= 7; ++n) {
    std::vector<StreamId> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<StreamId>(i));
    for (double sel : {0.001, 0.5, 1.0}) {
      const QuerySpec spec = QuerySpec::SimpleJoin(ids, 3, sel);
      for (size_t top_k : kTopKs) {
        ASSERT_EQ(EnumerationDiff(spec, catalog, top_k), "")
            << "n " << n << " sel " << sel << " top_k " << top_k;
      }
      auto plans = EnumeratePlans(spec, catalog, EnumerationOptions{});
      ASSERT_TRUE(plans.ok());
      for (size_t i = 1; i < plans->size(); ++i) {
        tied += (*plans)[i].IntermediateDataRate() ==
                        (*plans)[i - 1].IntermediateDataRate()
                    ? 1
                    : 0;
      }
    }
  }
  EXPECT_GT(tied, 20u);
}

// The largest query accepted: top_k distinct shapes, cheapest first. (The
// reference's arena grows as 3^n * k^2 and is not run at this size.)
TEST(EnumerateEquivalence, MaxStreamsGivesTopKDistinctShapes) {
  Rng rng(14);
  Catalog catalog;
  std::vector<StreamId> ids;
  for (size_t i = 0; i < kMaxStreams; ++i) {
    ids.push_back(catalog.AddStream("s", rng.Uniform(10.0, 500.0), 128.0,
                                    static_cast<NodeId>(i)));
  }
  const QuerySpec spec = QuerySpec::SimpleJoin(ids, 0, 0.001);
  EnumerationOptions opts;
  opts.top_k = 8;
  auto plans = EnumeratePlans(spec, catalog, opts);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 8u);
  std::set<std::string> shapes;
  for (size_t i = 0; i < plans->size(); ++i) {
    const LogicalPlan& plan = (*plans)[i];
    EXPECT_TRUE(plan.Validate().ok());
    shapes.insert(plan.Canonical());
    if (i == 0) continue;
    const double prev = (*plans)[i - 1].IntermediateDataRate();
    EXPECT_LE(prev, plan.IntermediateDataRate() * (1.0 + 1e-12)) << i;
  }
  EXPECT_EQ(shapes.size(), 8u);
}

}  // namespace
}  // namespace sbon::query
