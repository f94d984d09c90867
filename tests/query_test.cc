#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/reference_optimizer.h"
#include "query/catalog.h"
#include "query/enumerate.h"
#include "query/plan.h"
#include "query/query_spec.h"
#include "query/stats.h"
#include "query/workload.h"

namespace sbon::query {
namespace {

Catalog SmallCatalog() {
  Catalog c;
  c.AddStream("a", 100.0, 64.0, 1);   // 6400 B/s
  c.AddStream("b", 10.0, 128.0, 2);   // 1280 B/s
  c.AddStream("c", 1000.0, 32.0, 3);  // 32000 B/s
  c.AddStream("d", 50.0, 256.0, 4);   // 12800 B/s
  return c;
}

// Op `i`'s pooled stream set, as a vector.
std::vector<StreamId> Streams(const LogicalPlan& p, int i) {
  const std::span<const StreamId> s = p.StreamSet(i);
  return std::vector<StreamId>(s.begin(), s.end());
}

// --------------------------- Catalog ---------------------------

TEST(CatalogTest, AddAndLookup) {
  Catalog c = SmallCatalog();
  EXPECT_EQ(c.NumStreams(), 4u);
  EXPECT_TRUE(c.Has(0));
  EXPECT_FALSE(c.Has(4));
  EXPECT_EQ(c.stream(2).name, "c");
  EXPECT_DOUBLE_EQ(c.stream(0).BytesPerSecond(), 6400.0);
  EXPECT_EQ(c.stream(3).producer, 4u);
}

// --------------------------- Stats ---------------------------

TEST(StatsTest, SelectRate) {
  EXPECT_DOUBLE_EQ(SelectOutputRate(100.0, 0.25), 25.0);
  EXPECT_DOUBLE_EQ(SelectOutputRate(100.0, 2.0), 100.0);   // clamped
  EXPECT_DOUBLE_EQ(SelectOutputRate(100.0, -1.0), 0.0);    // clamped
}

TEST(StatsTest, JoinRateWindowModel) {
  // 2 * sel * rL * rR * W
  EXPECT_DOUBLE_EQ(JoinOutputRate(10.0, 20.0, 0.01, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(JoinOutputRate(10.0, 20.0, 0.01, 2.0), 8.0);
  EXPECT_DOUBLE_EQ(JoinOutputRate(10.0, 20.0, 0.0, 1.0), 0.0);
}

TEST(StatsTest, JoinTupleSizeConcatenates) {
  EXPECT_DOUBLE_EQ(JoinOutputTupleSize(64.0, 32.0), 96.0);
}

TEST(StatsTest, CrossSelectivityProductOverCut) {
  std::vector<std::vector<double>> sel = {
      {1.0, 0.1, 1.0},
      {0.1, 1.0, 0.5},
      {1.0, 0.5, 1.0},
  };
  using Set = std::vector<size_t>;
  EXPECT_DOUBLE_EQ(CrossSelectivity(Set{0}, Set{1}, sel), 0.1);
  EXPECT_DOUBLE_EQ(CrossSelectivity(Set{0, 1}, Set{2}, sel), 0.5);
  EXPECT_DOUBLE_EQ(CrossSelectivity(Set{0}, Set{1, 2}, sel), 0.1);
  // No predicates at all: an empty matrix is exactly 1.0.
  EXPECT_EQ(CrossSelectivity(Set{0, 1}, Set{2}, {}), 1.0);
}

// --------------------------- LogicalPlan ---------------------------

TEST(PlanTest, BuildAndValidate) {
  LogicalPlan p;
  const int a = p.AddProducer(0);
  const int b = p.AddProducer(1);
  const int j = p.AddJoin(a, b, 0.01);
  p.SetConsumer(j, 99);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.consumer(), 99u);
  EXPECT_EQ(p.NumOps(), 4u);
  EXPECT_EQ(p.op(a).kind, OpKind::kProducer);
  EXPECT_EQ(p.op(b).kind, OpKind::kProducer);
  EXPECT_EQ(p.op(j).kind, OpKind::kJoin);
  EXPECT_EQ(p.op(p.root()).kind, OpKind::kConsumer);
}

TEST(PlanTest, ValidateRejectsIncomplete) {
  LogicalPlan p;
  p.AddProducer(0);
  EXPECT_FALSE(p.Validate().ok());  // no consumer
}

TEST(PlanTest, AnnotateRatesPropagates) {
  Catalog c = SmallCatalog();
  LogicalPlan p;
  const int a = p.AddProducer(0);  // 100 t/s, 64 B
  const int s = p.AddSelect(a, 0.5);
  const int b = p.AddProducer(1);  // 10 t/s, 128 B
  const int j = p.AddJoin(s, b, 0.01);
  const int g = p.AddAggregate(j, 0.1);
  p.SetConsumer(g, 9);
  ASSERT_TRUE(p.AnnotateRates(c, 1.0).ok());

  EXPECT_DOUBLE_EQ(p.op(a).out_tuple_rate, 100.0);
  EXPECT_DOUBLE_EQ(p.op(s).out_tuple_rate, 50.0);
  EXPECT_DOUBLE_EQ(p.op(s).out_tuple_size, 64.0);
  // join: 2 * 0.01 * 50 * 10 * 1 = 10 t/s, 192 B tuples.
  EXPECT_DOUBLE_EQ(p.op(j).out_tuple_rate, 10.0);
  EXPECT_DOUBLE_EQ(p.op(j).out_tuple_size, 192.0);
  EXPECT_DOUBLE_EQ(p.op(g).out_tuple_rate, 1.0);
  EXPECT_DOUBLE_EQ(p.op(p.root()).out_bytes_per_s, 192.0);
}

TEST(PlanTest, StreamSetsSortedAndMerged) {
  Catalog c = SmallCatalog();
  LogicalPlan p;
  const int b = p.AddProducer(2);
  const int a = p.AddProducer(0);
  const int j = p.AddJoin(b, a, 0.1);
  p.SetConsumer(j, 9);
  ASSERT_TRUE(p.AnnotateRates(c).ok());
  EXPECT_EQ(Streams(p, j), (std::vector<StreamId>{0, 2}));
  EXPECT_EQ(Streams(p, p.root()), (std::vector<StreamId>{0, 2}));
  EXPECT_EQ(Streams(p, b), (std::vector<StreamId>{2}));
}

// Op `i`'s stream ids found by walking the leaves below it, sorted: an
// independent check of the pooled StreamSet ranges.
std::vector<StreamId> LeafStreams(const LogicalPlan& p, int i) {
  std::vector<StreamId> out;
  std::vector<int> stack = {i};
  while (!stack.empty()) {
    const PlanOp& op = p.op(stack.back());
    stack.pop_back();
    if (op.kind == OpKind::kProducer) out.push_back(op.stream);
    for (int c : op.children) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Wraps `op` in a random chain of selects and aggregates.
int RandomChain(LogicalPlan* p, int op, Rng* rng) {
  while (rng->Bernoulli(0.4)) {
    op = rng->Bernoulli(0.5) ? p->AddSelect(op, rng->Uniform(0.1, 1.0))
                             : p->AddAggregate(op, rng->Uniform(0.1, 1.0));
  }
  return op;
}

// A builder-made plan over 1-8 producers drawn from `c`'s four streams (so
// ids repeat), each under a random chain, joined in random bushy order.
LogicalPlan RandomPlan(const Catalog& c, Rng* rng) {
  LogicalPlan p;
  std::vector<int> tops;
  const size_t leaves = 1 + rng->UniformInt(8);
  for (size_t i = 0; i < leaves; ++i) {
    const auto stream = static_cast<StreamId>(rng->UniformInt(c.NumStreams()));
    tops.push_back(RandomChain(&p, p.AddProducer(stream), rng));
  }
  while (tops.size() > 1) {
    rng->Shuffle(&tops);
    const int l = tops.back();
    tops.pop_back();
    const int r = tops.back();
    tops.back() = RandomChain(&p, p.AddJoin(l, r, 0.5), rng);
  }
  p.SetConsumer(tops[0], 9);
  return p;
}

TEST(PlanTest, StreamSetIsSortedLeafUnion) {
  Catalog c = SmallCatalog();
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    LogicalPlan p = RandomPlan(c, &rng);
    ASSERT_TRUE(p.AnnotateRates(c).ok());
    for (int i = 0; i < static_cast<int>(p.NumOps()); ++i) {
      ASSERT_EQ(Streams(p, i), LeafStreams(p, i))
          << "trial " << trial << " op " << i << ": " << p.Canonical();
    }
    // Re-annotating rebuilds the pool in place, with the same sets.
    ASSERT_TRUE(p.AnnotateRates(c, 2.0).ok());
    for (int i = 0; i < static_cast<int>(p.NumOps()); ++i) {
      ASSERT_EQ(Streams(p, i), LeafStreams(p, i)) << "trial " << trial;
    }
  }
}

TEST(PlanTest, CopiedAndMovedPlansKeepStreamSets) {
  Catalog c = SmallCatalog();
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    LogicalPlan p = RandomPlan(c, &rng);
    ASSERT_TRUE(p.AnnotateRates(c).ok());
    LogicalPlan copy = p;
    LogicalPlan moved_from = p;
    LogicalPlan moved = std::move(moved_from);
    moved_from = std::move(moved);  // moved from, then moved to again
    LogicalPlan assigned = RandomPlan(c, &rng);
    ASSERT_TRUE(assigned.AnnotateRates(c).ok());
    assigned = p;  // copy-assigned over a plan with its own pool
    for (const LogicalPlan* q : {&copy, &moved_from, &assigned}) {
      ASSERT_EQ(q->NumOps(), p.NumOps());
      for (int i = 0; i < static_cast<int>(p.NumOps()); ++i) {
        EXPECT_EQ(Streams(*q, i), Streams(p, i)) << "trial " << trial;
        EXPECT_EQ(q->OpSignature(i), p.OpSignature(i)) << "trial " << trial;
        EXPECT_TRUE(q->op(i).children == p.op(i).children);
      }
    }
  }
}

TEST(PlanTest, ChildListHoldsBuilderChildren) {
  LogicalPlan p;
  const int a = p.AddProducer(0);
  const int b = p.AddProducer(1);
  const int j = p.AddJoin(b, a, 0.1);
  const int s = p.AddSelect(j, 0.5);
  p.SetConsumer(s, 9);
  EXPECT_EQ(p.op(a).children.size(), 0u);
  ASSERT_EQ(p.op(j).children.size(), 2u);
  EXPECT_EQ(p.op(j).children[0], b);
  EXPECT_EQ(p.op(j).children[1], a);
  EXPECT_EQ(std::vector<int>(p.op(s).children.begin(),
                             p.op(s).children.end()),
            std::vector<int>{j});
  EXPECT_FALSE(p.op(j).children == p.op(s).children);
  EXPECT_TRUE(p.op(a).children == p.op(b).children);  // both empty
}

TEST(PlanTest, AnnotateRejectsUnknownStream) {
  Catalog c = SmallCatalog();
  LogicalPlan p;
  const int a = p.AddProducer(77);
  p.SetConsumer(a, 9);
  EXPECT_FALSE(p.AnnotateRates(c).ok());
}

TEST(PlanTest, IntermediateDataRateCountsNonRootOps) {
  Catalog c = SmallCatalog();
  LogicalPlan p;
  const int a = p.AddProducer(0);  // 6400 B/s
  const int b = p.AddProducer(1);  // 1280 B/s
  const int j = p.AddJoin(a, b, 0.01);
  p.SetConsumer(j, 9);
  ASSERT_TRUE(p.AnnotateRates(c).ok());
  // join out: 2*0.01*100*10 = 20 t/s * 192 B = 3840 B/s.
  EXPECT_DOUBLE_EQ(p.IntermediateDataRate(), 6400.0 + 1280.0 + 3840.0);
}

TEST(PlanTest, CanonicalOrderInsensitiveForJoinChildren) {
  Catalog c = SmallCatalog();
  LogicalPlan p1, p2;
  {
    const int a = p1.AddProducer(0);
    const int b = p1.AddProducer(1);
    p1.SetConsumer(p1.AddJoin(a, b, 0.01), 9);
  }
  {
    const int b = p2.AddProducer(1);
    const int a = p2.AddProducer(0);
    p2.SetConsumer(p2.AddJoin(b, a, 0.01), 9);
  }
  EXPECT_EQ(p1.Canonical(), p2.Canonical());
}

TEST(PlanTest, CanonicalDistinguishesShapes) {
  Catalog c = SmallCatalog();
  LogicalPlan p1, p2;
  {
    const int a = p1.AddProducer(0);
    const int b = p1.AddProducer(1);
    const int x = p1.AddProducer(2);
    p1.SetConsumer(p1.AddJoin(p1.AddJoin(a, b, 0.1), x, 0.1), 9);
  }
  {
    const int a = p2.AddProducer(0);
    const int b = p2.AddProducer(1);
    const int x = p2.AddProducer(2);
    p2.SetConsumer(p2.AddJoin(p2.AddJoin(a, x, 0.1), b, 0.1), 9);
  }
  EXPECT_NE(p1.Canonical(), p2.Canonical());
}

TEST(PlanTest, OpSignatureMatchesAcrossEquivalentPlans) {
  Catalog c = SmallCatalog();
  LogicalPlan p1, p2;
  {
    const int a = p1.AddProducer(0);
    const int b = p1.AddProducer(1);
    p1.SetConsumer(p1.AddJoin(a, b, 0.01), 9);
  }
  {
    const int b = p2.AddProducer(1);
    const int a = p2.AddProducer(0);
    p2.SetConsumer(p2.AddJoin(b, a, 0.01), 5);  // different consumer
  }
  ASSERT_TRUE(p1.AnnotateRates(c).ok());
  ASSERT_TRUE(p2.AnnotateRates(c).ok());
  // Join over the same streams with the same selectivity => same signature
  // regardless of child order or consumer.
  EXPECT_EQ(p1.OpSignature(2), p2.OpSignature(2));
}

TEST(PlanTest, OpSignatureDiffersOnSelectivity) {
  Catalog c = SmallCatalog();
  LogicalPlan p1, p2;
  {
    const int a = p1.AddProducer(0);
    const int b = p1.AddProducer(1);
    p1.SetConsumer(p1.AddJoin(a, b, 0.01), 9);
  }
  {
    const int a = p2.AddProducer(0);
    const int b = p2.AddProducer(1);
    p2.SetConsumer(p2.AddJoin(a, b, 0.02), 9);
  }
  ASSERT_TRUE(p1.AnnotateRates(c).ok());
  ASSERT_TRUE(p2.AnnotateRates(c).ok());
  EXPECT_NE(p1.OpSignature(2), p2.OpSignature(2));
}

// --------------------------- QuerySpec ---------------------------

TEST(QuerySpecTest, SimpleJoinShape) {
  const QuerySpec q = QuerySpec::SimpleJoin({0, 1, 2}, 9, 0.01);
  Catalog c = SmallCatalog();
  EXPECT_TRUE(q.Validate(c).ok());
  EXPECT_DOUBLE_EQ(q.join_sel[0][1], 0.01);
  EXPECT_DOUBLE_EQ(q.join_sel[1][1], 1.0);
}

TEST(QuerySpecTest, ValidationCatchesErrors) {
  Catalog c = SmallCatalog();
  QuerySpec empty;
  empty.consumer = 1;
  EXPECT_FALSE(empty.Validate(c).ok());

  QuerySpec unknown = QuerySpec::SimpleJoin({0, 99}, 9, 0.1);
  EXPECT_FALSE(unknown.Validate(c).ok());

  QuerySpec asym = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  asym.join_sel[0][1] = 0.5;
  EXPECT_FALSE(asym.Validate(c).ok());

  QuerySpec badagg = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  badagg.aggregate_factor = 2.0;
  EXPECT_FALSE(badagg.Validate(c).ok());

  QuerySpec nowin = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  nowin.join_window_s = 0.0;
  EXPECT_FALSE(nowin.Validate(c).ok());
}

// Every number a spec carries is range-checked: a NaN window or
// selectivity would otherwise reach the rate model and the DP's cost
// ordering. Zero selectivities stay valid (a filter may drop everything).
TEST(QuerySpecTest, ValidationRejectsNumbersOutOfRange) {
  Catalog c = SmallCatalog();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_invalid = [&](const QuerySpec& q, const char* what) {
    const Status st = q.Validate(c);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_FALSE(EnumeratePlans(q, c, EnumerationOptions{}).ok()) << what;
  };
  for (double w : {nan, inf, -inf, -1.0}) {
    QuerySpec q = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
    q.join_window_s = w;
    expect_invalid(q, "join_window_s");
  }
  QuerySpec agg = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  agg.aggregate_factor = nan;
  expect_invalid(agg, "NaN aggregate_factor");
  for (double sel : {nan, -3.0, 7.0, -0.0001, 1.5, inf}) {
    QuerySpec filter = QuerySpec::SimpleJoin({0, 1, 2}, 9, 0.1);
    filter.filter_sel[1] = sel;
    expect_invalid(filter, "filter_sel");
    QuerySpec join = QuerySpec::SimpleJoin({0, 1, 2}, 9, 0.1);
    join.join_sel[0][2] = join.join_sel[2][0] = sel;
    expect_invalid(join, "join_sel");
  }
  // A NaN join selectivity is rejected as out of range, not merely because
  // NaN != NaN breaks the symmetry check.
  QuerySpec nan_join = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  nan_join.join_sel[0][1] = nan_join.join_sel[1][0] = nan;
  EXPECT_EQ(nan_join.Validate(c).message(), "join_sel out of [0,1]");

  // Every row's size is checked before the symmetry check reads across
  // rows, so a short last row is rejected, not read past its end.
  QuerySpec ragged = QuerySpec::SimpleJoin({0, 1, 2}, 9, 0.1);
  ragged.join_sel[2].resize(1);
  EXPECT_EQ(ragged.Validate(c).message(), "join_sel row size mismatch");

  QuerySpec zero = QuerySpec::SimpleJoin({0, 1, 2}, 9, 0.0);
  zero.filter_sel = {0.0, 1.0, 0.5};
  zero.aggregate_factor = 0.0;
  EXPECT_TRUE(zero.Validate(c).ok());
  EXPECT_TRUE(EnumeratePlans(zero, c, EnumerationOptions{}).ok());
}

// --------------------------- Enumeration ---------------------------

TEST(EnumerateTest, SingleStreamPlan) {
  Catalog c = SmallCatalog();
  QuerySpec q = QuerySpec::SimpleJoin({2}, 9, 0.1);
  auto plans = EnumeratePlans(q, c, EnumerationOptions{});
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 1u);
  EXPECT_TRUE((*plans)[0].Validate().ok());
}

TEST(EnumerateTest, TwoStreamsOnePlan) {
  Catalog c = SmallCatalog();
  QuerySpec q = QuerySpec::SimpleJoin({0, 1}, 9, 0.01);
  EnumerationOptions opts;
  opts.top_k = 8;
  auto plans = EnumeratePlans(q, c, opts);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 1u);  // only one join shape exists
}

TEST(EnumerateTest, CandidatesSortedByDataRate) {
  Catalog c = SmallCatalog();
  QuerySpec q = QuerySpec::SimpleJoin({0, 1, 2, 3}, 9, 0.001);
  EnumerationOptions opts;
  opts.top_k = 8;
  auto plans = EnumeratePlans(q, c, opts);
  ASSERT_TRUE(plans.ok());
  EXPECT_GT(plans->size(), 1u);
  for (size_t i = 1; i < plans->size(); ++i) {
    EXPECT_LE((*plans)[i - 1].IntermediateDataRate(),
              (*plans)[i].IntermediateDataRate() + 1e-9);
  }
}

TEST(EnumerateTest, CandidatesAreDistinctShapes) {
  Catalog c = SmallCatalog();
  QuerySpec q = QuerySpec::SimpleJoin({0, 1, 2, 3}, 9, 0.001);
  EnumerationOptions opts;
  opts.top_k = 16;
  auto plans = EnumeratePlans(q, c, opts);
  ASSERT_TRUE(plans.ok());
  std::set<std::string> shapes;
  for (const auto& p : *plans) shapes.insert(p.Canonical());
  EXPECT_EQ(shapes.size(), plans->size());
}

TEST(EnumerateTest, RejectsTooManyStreams) {
  Catalog c;
  std::vector<StreamId> ids;
  for (size_t i = 0; i <= kMaxStreams; ++i) {
    ids.push_back(c.AddStream("s", 1.0, 1.0, 0));
  }
  QuerySpec q = QuerySpec::SimpleJoin(ids, 9, 0.1);
  auto plans = EnumeratePlans(q, c, EnumerationOptions{});
  ASSERT_FALSE(plans.ok());
  EXPECT_EQ(plans.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnumerateTest, RejectsZeroTopK) {
  Catalog c = SmallCatalog();
  QuerySpec q = QuerySpec::SimpleJoin({0, 1}, 9, 0.1);
  EnumerationOptions opts;
  opts.top_k = 0;
  EXPECT_FALSE(EnumeratePlans(q, c, opts).ok());
}

TEST(EnumerateTest, ExhaustiveCountsMatchDoubleFactorial) {
  // Distinct bushy join trees over n labeled leaves = (2n-3)!!.
  Catalog c;
  for (int i = 0; i < 5; ++i) c.AddStream("s", 10.0 + i, 64.0, 0);
  for (size_t n : {2u, 3u, 4u, 5u}) {
    std::vector<StreamId> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<StreamId>(i));
    QuerySpec q = QuerySpec::SimpleJoin(ids, 9, 0.01);
    auto plans = test::EnumerateAllPlansExhaustive(q, c);
    ASSERT_TRUE(plans.ok());
    size_t expected = 1;
    for (size_t k = 2 * n - 3; k >= 2; k -= 2) expected *= k;
    if (n == 2) expected = 1;
    EXPECT_EQ(plans->size(), expected) << "n=" << n;
  }
}

// Property: the DP's best plan equals the exhaustive optimum (invariant 3).
class DpOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpOptimalityTest, DpMatchesExhaustiveOptimum) {
  Rng rng(GetParam());
  WorkloadParams wp;
  wp.num_streams = 8;
  wp.min_streams_per_query = 3;
  wp.max_streams_per_query = 5;
  Catalog c = MakeRandomCatalog(wp, {0, 1, 2, 3, 4}, &rng).value();
  for (int rep = 0; rep < 10; ++rep) {
    QuerySpec q = MakeRandomQuery(wp, c, {5}, &rng).value();
    auto dp = EnumeratePlans(q, c, EnumerationOptions{});
    auto all = test::EnumerateAllPlansExhaustive(q, c);
    ASSERT_TRUE(dp.ok() && all.ok());
    EXPECT_NEAR((*dp)[0].IntermediateDataRate(),
                (*all)[0].IntermediateDataRate(),
                1e-6 * (*all)[0].IntermediateDataRate())
        << "DP missed optimum for " << (*dp)[0].Canonical() << " vs "
        << (*all)[0].Canonical();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOptimalityTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(EnumerateTest, TopKSubsetOfExhaustiveBest) {
  Rng rng(909);
  WorkloadParams wp;
  wp.num_streams = 6;
  Catalog c = MakeRandomCatalog(wp, {0, 1, 2}, &rng).value();
  QuerySpec q = QuerySpec::SimpleJoin({0, 1, 2, 3}, 5, 0.005);
  EnumerationOptions opts;
  opts.top_k = 3;
  auto dp = EnumeratePlans(q, c, opts);
  auto all = test::EnumerateAllPlansExhaustive(q, c);
  ASSERT_TRUE(dp.ok() && all.ok());
  ASSERT_LE(dp->size(), 3u);
  // The DP's k-th candidate can be no better than the exhaustive k-th best
  // (DP top-k pruning is heuristic for k>1, but the best is exact).
  EXPECT_NEAR((*dp)[0].IntermediateDataRate(),
              (*all)[0].IntermediateDataRate(),
              1e-9 * (*all)[0].IntermediateDataRate());
}

// --------------------------- Workload ---------------------------

TEST(WorkloadTest, CatalogRespectsParams) {
  Rng rng(31);
  WorkloadParams wp;
  wp.num_streams = 25;
  Catalog c = MakeRandomCatalog(wp, {3, 4, 5}, &rng).value();
  EXPECT_EQ(c.NumStreams(), 25u);
  for (StreamId s = 0; s < 25; ++s) {
    const StreamDef& d = c.stream(s);
    EXPECT_GE(d.tuple_rate_per_s, wp.rate_pareto_xm);
    EXPECT_LE(d.tuple_rate_per_s, wp.rate_cap);
    EXPECT_GE(d.tuple_size_bytes, wp.tuple_size_min);
    EXPECT_LE(d.tuple_size_bytes, kTupleSizeMax);
    EXPECT_TRUE(d.producer == 3 || d.producer == 4 || d.producer == 5);
  }
}

TEST(WorkloadTest, RandomQueriesValid) {
  Rng rng(37);
  WorkloadParams wp;
  Catalog c = MakeRandomCatalog(wp, {0, 1, 2}, &rng).value();
  for (int rep = 0; rep < 50; ++rep) {
    QuerySpec q = MakeRandomQuery(wp, c, {7, 8}, &rng).value();
    EXPECT_TRUE(q.Validate(c).ok());
    EXPECT_GE(q.NumStreams(), wp.min_streams_per_query);
    EXPECT_LE(q.NumStreams(), wp.max_streams_per_query);
    EXPECT_TRUE(q.consumer == 7 || q.consumer == 8);
    // Distinct streams.
    std::set<StreamId> distinct(q.streams.begin(), q.streams.end());
    EXPECT_EQ(distinct.size(), q.streams.size());
  }
}

TEST(WorkloadTest, RandomQueriesEnumerable) {
  Rng rng(41);
  WorkloadParams wp;
  Catalog c = MakeRandomCatalog(wp, {0, 1}, &rng).value();
  for (int rep = 0; rep < 20; ++rep) {
    QuerySpec q = MakeRandomQuery(wp, c, {5}, &rng).value();
    auto plans = EnumeratePlans(q, c, EnumerationOptions{});
    ASSERT_TRUE(plans.ok());
    EXPECT_GE(plans->size(), 1u);
    for (const auto& p : *plans) {
      EXPECT_TRUE(p.Validate().ok());
      EXPECT_GT(p.IntermediateDataRate(), 0.0);
    }
  }
}

}  // namespace
}  // namespace sbon::query
