#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/summary.h"
#include "common/table.h"
#include "common/vec.h"

namespace sbon {
namespace {

// --------------------------- Status ---------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad radius");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad radius");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes{
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::FailedPrecondition("").code(), Status::OutOfRange("").code(),
      Status::AlreadyExists("").code(), Status::ResourceExhausted("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("hello"));
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(StatusOrTest, AccessingErrorAbortsWithStatus) {
  struct Box {
    int x = 0;
  };
  StatusOr<Box> v(Status::NotFound("nope"));
  EXPECT_DEATH(static_cast<void>(v.value().x), "NotFound: nope");
  EXPECT_DEATH(static_cast<void>((*v).x), "NotFound: nope");
  EXPECT_DEATH(static_cast<void>(v->x), "NotFound: nope");
  EXPECT_DEATH(static_cast<void>(std::move(v).value().x), "NotFound: nope");
}

// --------------------------- Rng ---------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t x = rng.UniformInt(uint64_t{10});
    EXPECT_LT(x, 10u);
  }
}

TEST(RngTest, UniformIntInclusiveEnds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t x = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) counts[rng.UniformInt(uint64_t{8})]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// Means above ~708 underflow exp(-mean) to 0; the split keeps the count
// following the mean there.
TEST(RngTest, PoissonLargeMean) {
  Rng rng(23);
  constexpr int kDraws = 1000;
  constexpr double kMean = 2000.0;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.Poisson(kMean));
  }
  // The sample mean's standard deviation is sqrt(mean / draws).
  EXPECT_NEAR(sum / kDraws, kMean, 5.0 * std::sqrt(kMean / kDraws));
}

// Below the split a draw is Knuth's plain product loop, draw for draw; a
// non-positive mean is 0 and draws nothing.
TEST(RngTest, PoissonSmallMeanIsThePlainProductLoop) {
  Rng rng(29), ref(29);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
  EXPECT_EQ(rng.Poisson(-1.0), 0u);
  const double floor = std::exp(-3.0);
  for (int i = 0; i < 1000; ++i) {
    double product = 1.0;
    size_t k = 0;
    do {
      ++k;
      product *= ref.NextDouble();
    } while (product > floor);
    ASSERT_EQ(rng.Poisson(3.0), k - 1) << "draw " << i;
  }
  EXPECT_EQ(rng.Next(), ref.Next());
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, ParetoAboveScale) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.Pareto(5.0, 1.5), 5.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> w = v;
  rng.Shuffle(&w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  for (int rep = 0; rep < 50; ++rep) {
    auto s = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 10u);
    for (size_t x : s) EXPECT_LT(x, 20u);
  }
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(43);
  auto s = rng.SampleWithoutReplacement(8, 8);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 8u);
}

// --------------------------- Vec ---------------------------

TEST(VecTest, Arithmetic) {
  Vec a{1.0, 2.0}, b{3.0, -1.0};
  Vec c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  Vec d = a - b;
  EXPECT_DOUBLE_EQ(d[0], -2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  Vec e = a * 2.0;
  EXPECT_DOUBLE_EQ(e[0], 2.0);
  EXPECT_DOUBLE_EQ(e[1], 4.0);
  Vec f = b / 2.0;
  EXPECT_DOUBLE_EQ(f[0], 1.5);
}

TEST(VecTest, NormAndDistance) {
  Vec a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.NormSquared(), 25.0);
  Vec b{0.0, 0.0};
  EXPECT_DOUBLE_EQ(a.DistanceTo(b), 5.0);
  EXPECT_DOUBLE_EQ(b.DistanceTo(a), 5.0);
}

TEST(VecTest, Dot) {
  Vec a{1.0, 2.0, 3.0}, b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 32.0);
}

TEST(VecTest, UnitOfNonZero) {
  Vec a{0.0, 10.0};
  Vec u = a.Unit();
  EXPECT_NEAR(u.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(u[1], 1.0, 1e-12);
}

TEST(VecTest, UnitOfZeroIsDeterministicUnit) {
  Vec z(3);
  Vec u1 = z.Unit(5), u2 = z.Unit(5), u3 = z.Unit(6);
  EXPECT_NEAR(u1.Norm(), 1.0, 1e-9);
  EXPECT_EQ(u1, u2);
  EXPECT_NE(u1, u3);
}

TEST(VecTest, DistanceTriangleInequality) {
  Rng rng(47);
  for (int rep = 0; rep < 200; ++rep) {
    Vec a(3), b(3), c(3);
    for (int d = 0; d < 3; ++d) {
      a[d] = rng.Uniform(-10, 10);
      b[d] = rng.Uniform(-10, 10);
      c[d] = rng.Uniform(-10, 10);
    }
    EXPECT_LE(a.DistanceTo(c), a.DistanceTo(b) + b.DistanceTo(c) + 1e-9);
  }
}

TEST(VecTest, ToStringFormat) {
  Vec a{1.0, 2.5};
  EXPECT_EQ(a.ToString(), "(1, 2.5)");
}

// --------------------------- Summary ---------------------------

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
}

TEST(SummaryTest, BasicStats) {
  Summary s;
  s.AddAll({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_NEAR(s.Stddev(), 1.5811, 1e-3);
}

TEST(SummaryTest, PercentileInterpolates) {
  Summary s;
  s.AddAll({0, 10});
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 2.5);
}

TEST(SummaryTest, AddAfterPercentileStillCorrect) {
  Summary s;
  s.AddAll({5, 1});
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  s.Add(100);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 5.0);
}

// --------------------------- TableWriter ---------------------------

TEST(TableWriterTest, RendersAlignedColumns) {
  TableWriter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TableWriterTest, NumFormats) {
  EXPECT_EQ(TableWriter::Num(1234.5678), "1235");
  EXPECT_EQ(TableWriter::Fixed(1.23456, 2), "1.23");
}

// --------------------------- JsonWriter ---------------------------

TEST(JsonWriterTest, NestsObjectsInArraysInObjectsWithCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("run");
  w.Key("rows").BeginArray();
  w.BeginObject().Key("a").Int(1).Key("b").Int(2).EndObject();
  w.BeginObject().Key("a").Int(3).EndObject();
  w.Int(4);
  w.EndArray();
  w.Key("done").Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"run\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"b\": 2\n"
            "    },\n"
            "    {\n"
            "      \"a\": 3\n"
            "    },\n"
            "    4\n"
            "  ],\n"
            "  \"done\": true\n"
            "}");
}

TEST(JsonWriterTest, EmptyContainersAndNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("o").BeginObject().EndObject();
  w.Key("a").BeginArray().EndArray();
  w.Key("n").Null();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n  \"o\": {},\n  \"a\": [],\n  \"n\": null\n}");

  JsonWriter top;
  top.BeginArray().EndArray();
  EXPECT_EQ(top.str(), "[]");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.BeginArray();
  w.String("say \"hi\"");
  w.String("C:\\dir");
  w.String(std::string("tab\tnl\ncr\rbell\x07nul") + '\0');
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[\n"
            "  \"say \\\"hi\\\"\",\n"
            "  \"C:\\\\dir\",\n"
            "  \"tab\\u0009nl\\u000acr\\u000dbell\\u0007nul\\u0000\"\n"
            "]");
}

TEST(JsonWriterTest, KeysAreEscapedToo) {
  JsonWriter w;
  w.BeginObject().Key("a\"b").Int(1).EndObject();
  EXPECT_EQ(w.str(), "{\n  \"a\\\"b\": 1\n}");
}

TEST(JsonWriterTest, EmbedsAFinishedDocumentAtTheCurrentDepth) {
  JsonWriter inner;
  inner.BeginObject().Key("a").Int(1).Key("b").BeginArray().Int(2);
  inner.EndArray().EndObject();
  JsonWriter w;
  w.BeginObject().Key("x").Embed(inner).Key("y").Embed(inner).EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"x\": {\n"
            "    \"a\": 1,\n"
            "    \"b\": [\n"
            "      2\n"
            "    ]\n"
            "  },\n"
            "  \"y\": {\n"
            "    \"a\": 1,\n"
            "    \"b\": [\n"
            "      2\n"
            "    ]\n"
            "  }\n"
            "}");
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity(), 2);
  w.EndArray();
  EXPECT_EQ(w.str(), "[\n  null,\n  null,\n  null\n]");
}

TEST(JsonWriterTest, IntegersAndDoublesKeepTheirForm) {
  JsonWriter w;
  w.BeginArray();
  w.Int(size_t{18446744073709551615u});
  w.Int(int64_t{-42});
  w.Double(3.0);        // integral double keeps a decimal point
  w.Double(0.1);        // shortest text that reads back exactly
  w.Double(-2.5e-7);
  w.Double(1e21);
  w.Double(350380.56, 1);  // fixed decimals, rounded
  w.Double(0.94746, 4);
  w.Double(2.0, 0);
  w.EndArray();
  EXPECT_EQ(w.str(),
            "[\n"
            "  18446744073709551615,\n"
            "  -42,\n"
            "  3.0,\n"
            "  0.1,\n"
            "  -2.5e-07,\n"
            "  1e+21,\n"
            "  350380.6,\n"
            "  0.9475,\n"
            "  2\n"
            "]");
}

}  // namespace
}  // namespace sbon
