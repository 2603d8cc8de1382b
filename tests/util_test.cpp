// Unit tests for the util module: RNG, statistics, JSON, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace adaparse::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(21);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(31);
  std::size_t low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto r = rng.zipf(100, 1.1);
    EXPECT_LT(r, 100U);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 5);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(55);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkDeterministic) {
  Rng p1(99), p2(99);
  Rng a = p1.fork(7);
  Rng b = p2.fork(7);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

TEST(Mix64, OrderSensitive) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
}

// -------------------------------------------------------------- stats ----

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.5, -1.0, 0.25};
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(s.variance(), variance(xs), 1e-12);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  RunningStats a, b, all;
  Rng rng(61);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    if (i % 2 == 0) a.add(x); else b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonAnticorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {4, 3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> x = {1, 1, 1, 1};
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  const std::vector<double> x = {1, 2};
  const std::vector<double> y = {1};
  EXPECT_THROW(pearson(x, y), std::invalid_argument);
}

TEST(Stats, CorrelationTestSignificance) {
  Rng rng(71);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal();
    x.push_back(v);
    y.push_back(0.5 * v + rng.normal());  // rho ~ 0.45
  }
  const auto test = correlation_test(x, y);
  EXPECT_GT(test.rho, 0.3);
  EXPECT_LT(test.p_value, 1e-6);
}

TEST(Stats, CorrelationTestNullCase) {
  Rng rng(73);
  std::vector<double> x, y;
  for (int i = 0; i < 300; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  const auto test = correlation_test(x, y);
  EXPECT_GT(test.p_value, 0.001);
}

TEST(Stats, RSquaredPerfect) {
  const std::vector<double> t = {1, 2, 3};
  EXPECT_NEAR(r_squared(t, t), 1.0, 1e-12);
}

TEST(Stats, RSquaredMeanPredictorIsZero) {
  const std::vector<double> t = {1, 2, 3, 4};
  const std::vector<double> p = {2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(r_squared(t, p), 0.0, 1e-12);
}

TEST(Stats, RSquaredWorseThanMeanIsNegative) {
  const std::vector<double> t = {1, 2, 3, 4};
  const std::vector<double> p = {4, 3, 2, 1};
  EXPECT_LT(r_squared(t, p), 0.0);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_EQ(quantile(xs, 0.5), 3.0);
}

TEST(P2QuantileTest, ExactForFewerThanFiveSamples) {
  P2Quantile p50(0.5);
  EXPECT_EQ(p50.value(), 0.0);  // no observations yet
  p50.add(9.0);
  EXPECT_EQ(p50.value(), 9.0);
  p50.add(1.0);
  p50.add(5.0);
  // Three samples: the estimate is the exact interpolated median.
  EXPECT_NEAR(p50.value(), 5.0, 1e-12);
  EXPECT_EQ(p50.count(), 3U);
}

TEST(P2QuantileTest, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(P2QuantileTest, TwoValuesInterpolateExactly) {
  // Still in the exact-order-statistics bootstrap regime (n < 5): the p95
  // of {1, 3} is the linear interpolation at rank 0.95 * (n - 1).
  P2Quantile p95(0.95);
  p95.add(3.0);
  p95.add(1.0);
  EXPECT_NEAR(p95.value(), 1.0 + 0.95 * 2.0, 1e-12);
  P2Quantile p50(0.5);
  p50.add(10.0);
  p50.add(20.0);
  EXPECT_NEAR(p50.value(), 15.0, 1e-12);
}

TEST(P2QuantileTest, ConstantStreamStaysConstant) {
  // Every marker height equals the constant; the parabolic update's
  // divisions must not wander off it or divide by zero.
  P2Quantile p99(0.99);
  for (int i = 0; i < 1000; ++i) p99.add(7.5);
  EXPECT_DOUBLE_EQ(p99.value(), 7.5);
  EXPECT_EQ(p99.count(), 1000U);
}

TEST(P2QuantileTest, NonFiniteObservationsAreDropped) {
  P2Quantile p50(0.5);
  p50.add(std::nan(""));
  EXPECT_EQ(p50.count(), 0U);  // dropped before the bootstrap buffer
  EXPECT_EQ(p50.value(), 0.0);
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) p50.add(x);
  const double before = p50.value();
  p50.add(std::nan(""));
  p50.add(std::numeric_limits<double>::infinity());
  p50.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(p50.count(), 6U);
  EXPECT_DOUBLE_EQ(p50.value(), before);  // estimate unpoisoned
  EXPECT_FALSE(std::isnan(p50.value()));
}

TEST(P2QuantileTest, TracksUniformDistributionQuantiles) {
  // Uniform [0,1): the true q-quantile is q itself.
  for (const double q : {0.5, 0.95, 0.99}) {
    P2Quantile estimator(q);
    Rng rng(0xACE5);
    for (int i = 0; i < 20000; ++i) estimator.add(rng.uniform());
    EXPECT_NEAR(estimator.value(), q, 0.02)
        << "uniform quantile q=" << q;
  }
}

TEST(P2QuantileTest, TracksExponentialTailQuantiles) {
  // Exponential(rate=2): quantile q is -ln(1-q)/2. Checks the estimator on
  // a skewed, heavy-ish-tailed distribution like service latencies.
  for (const double q : {0.5, 0.95, 0.99}) {
    P2Quantile estimator(q);
    Rng rng(0xBEEF);
    for (int i = 0; i < 30000; ++i) estimator.add(rng.exponential(2.0));
    const double truth = -std::log(1.0 - q) / 2.0;
    EXPECT_NEAR(estimator.value(), truth, 0.08 * truth + 0.01)
        << "exponential quantile q=" << q;
  }
}

TEST(P2QuantileTest, MatchesExactQuantileOnNormalStream) {
  P2Quantile p95(0.95);
  std::vector<double> xs;
  Rng rng(0x9E3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    p95.add(x);
    xs.push_back(x);
  }
  const double exact = quantile(xs, 0.95);
  EXPECT_NEAR(p95.value(), exact, 0.15);
  EXPECT_EQ(p95.count(), xs.size());
}

TEST(P2QuantileTest, OrderedQuantilesStayOrdered) {
  P2Quantile p50(0.5), p95(0.95), p99(0.99);
  Rng rng(0x77);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.exponential(1.0);
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  EXPECT_LT(p50.value(), p95.value());
  EXPECT_LT(p95.value(), p99.value());
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(i * i * i);  // nonlinear but monotone
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

// --------------------------------------------------------------- json ----

TEST(Json, RoundTripObject) {
  JsonObject obj;
  obj["name"] = "doc-1";
  obj["score"] = 0.52;
  obj["pages"] = 12;
  obj["ok"] = true;
  obj["missing"] = nullptr;
  const Json j(obj);
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("name").as_string(), "doc-1");
  EXPECT_NEAR(parsed.at("score").as_number(), 0.52, 1e-12);
  EXPECT_EQ(parsed.at("pages").as_number(), 12.0);
  EXPECT_TRUE(parsed.at("ok").as_bool());
  EXPECT_TRUE(parsed.at("missing").is_null());
}

TEST(Json, EscapesControlCharacters) {
  const Json j(std::string("a\"b\\c\nd\te"));
  const std::string dumped = j.dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json::parse(dumped).as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ParsesNestedStructures) {
  const Json j = Json::parse(R"({"a":[1,2,{"b":null}],"c":{"d":false}})");
  EXPECT_EQ(j.at("a").as_array().size(), 3U);
  EXPECT_TRUE(j.at("a").as_array()[2].at("b").is_null());
  EXPECT_FALSE(j.at("c").at("d").as_bool());
}

TEST(Json, ParsesUnicodeEscapes) {
  const Json j = Json::parse(R"("Aé")");
  EXPECT_EQ(j.as_string(), "A\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, BoundsNestingDepth) {
  // 512 levels parse; one more is an error, never a stack overflow.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(512)));
  EXPECT_THROW(Json::parse(nested(513)), std::runtime_error);
  EXPECT_THROW(Json::parse(std::string(1000000, '[')), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), std::runtime_error);
}

TEST(Json, NumbersIncludingNegativeAndExponent) {
  EXPECT_EQ(Json::parse("-3.5").as_number(), -3.5);
  EXPECT_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("0").as_number(), 0.0);
}

TEST(Json, NonFiniteDumpsAsNull) {
  const Json j(std::nan(""));
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, ContainsAndAt) {
  const Json j = Json::parse(R"({"x":1})");
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("y"));
  EXPECT_THROW(j.at("y"), std::out_of_range);
}

// -------------------------------------------------------------- table ----

TEST(TableTest, AlignsColumns) {
  Table t({"Parser", "BLEU"});
  t.row().add("PyMuPDF").add(51.9, 1);
  t.row().add("pypdf").add(43.6, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("PyMuPDF"), std::string::npos);
  EXPECT_NE(s.find("51.9"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2U);
}

TEST(TableTest, FormatFixedPrecision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds() * 1000.0 - 1e-6);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
}  // namespace adaparse::util
