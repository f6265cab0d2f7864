#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/summary.h"
#include "util/table_printer.h"

namespace rqp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    RQP_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("bad");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnvTest, Int64TakesOnlyWholePositiveIntegers) {
  constexpr const char* kKnob = "RQP_UTIL_TEST_KNOB";
  unsetenv(kKnob);
  EXPECT_EQ(EnvInt64(kKnob, 7), 7);
  for (const char* bad : {"", "0", "-3", "4x", "2.5", " ", "x4"}) {
    setenv(kKnob, bad, 1);
    EXPECT_EQ(EnvInt64(kKnob, 7), 7) << '"' << bad << '"';
  }
  setenv(kKnob, "12", 1);
  EXPECT_EQ(EnvInt64(kKnob, 7), 12);
  setenv(kKnob, "8589934592", 1);  // 2^33: past int, within int64
  EXPECT_EQ(EnvInt64(kKnob, 7), int64_t{1} << 33);
  unsetenv(kKnob);
}

TEST(EnvTest, DoubleTakesOnlyWholeNumbers) {
  constexpr const char* kKnob = "RQP_UTIL_TEST_KNOB";
  unsetenv(kKnob);
  EXPECT_DOUBLE_EQ(EnvDouble(kKnob, 0.5), 0.5);
  for (const char* bad : {"", "4x", "0.2.1", "x", "nan", "inf", "-inf"}) {
    setenv(kKnob, bad, 1);
    EXPECT_DOUBLE_EQ(EnvDouble(kKnob, 0.5), 0.5) << '"' << bad << '"';
  }
  setenv(kKnob, "0.2", 1);
  EXPECT_DOUBLE_EQ(EnvDouble(kKnob, 0.5), 0.2);
  setenv(kKnob, "-1", 1);  // the sign is the caller's to clamp
  EXPECT_DOUBLE_EQ(EnvDouble(kKnob, 0.5), -1.0);
  unsetenv(kKnob);
}

TEST(EnvTest, FlagIsOffOnlyAtZero) {
  constexpr const char* kKnob = "RQP_UTIL_TEST_KNOB";
  unsetenv(kKnob);
  EXPECT_FALSE(EnvFlag(kKnob, false));
  EXPECT_TRUE(EnvFlag(kKnob, true));
  setenv(kKnob, "", 1);
  EXPECT_FALSE(EnvFlag(kKnob, false));
  EXPECT_TRUE(EnvFlag(kKnob, true));
  setenv(kKnob, "0", 1);
  EXPECT_FALSE(EnvFlag(kKnob, true));
  for (const char* on : {"1", "yes", "00", "0x"}) {
    setenv(kKnob, on, 1);
    EXPECT_TRUE(EnvFlag(kKnob, false)) << '"' << on << '"';
  }
  unsetenv(kKnob);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 10000; ++i) counts[rng.Uniform(0, 9)]++;
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [v, c] : counts) EXPECT_GT(c, 500) << "value " << v;
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewed) {
  Rng rng(11);
  std::map<int64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Zipf(1000, 0.99)]++;
  // Rank 0 should dominate a middle rank by a large factor.
  EXPECT_GT(counts[0], 20 * std::max(counts[500], 1));
  for (const auto& [v, _] : counts) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
}

TEST(RngTest, ZipfThetaZeroIsUniformish) {
  Rng rng(13);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[rng.Zipf(10, 0.0)]++;
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, 5000, 600) << "value " << v;
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.Add(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(s.Mean(), 10.0, 0.1);
  EXPECT_NEAR(s.StdDev(), 2.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_NEAR(s.StdDev(), std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.CoefficientOfVariation(), std::sqrt(2.5) / 3.0, 1e-12);
}

TEST(SummaryTest, PercentilesInterpolate) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.Median(), 25.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 17.5);
}

TEST(SummaryTest, GeometricMean) {
  Summary s;
  s.Add(1.0);
  s.Add(100.0);
  EXPECT_NEAR(s.GeometricMean(), 10.0, 1e-9);
}

TEST(SummaryTest, GeometricMeanClampsZeros) {
  Summary s;
  s.Add(0.0);
  s.Add(1.0);
  EXPECT_GT(s.GeometricMean(), 0.0);
}

TEST(SummaryTest, CoefficientOfVariationZeroMean) {
  Summary s;
  s.Add(-1.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.CoefficientOfVariation(), 0.0);
}

TEST(SummaryTest, BoxSummaryMatchesPercentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  BoxSummary b = MakeBoxSummary(s);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_NEAR(b.median, 50.5, 1e-9);
  EXPECT_LT(b.q1, b.median);
  EXPECT_GT(b.q3, b.median);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(1234567), "1,234,567");
  EXPECT_EQ(TablePrinter::Int(-1234), "-1,234");
  EXPECT_EQ(TablePrinter::Int(12), "12");
}

}  // namespace
}  // namespace rqp
