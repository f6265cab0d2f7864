#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "stats/correlation.h"
#include "stats/feedback.h"
#include "stats/histogram.h"
#include "stats/max_entropy.h"
#include "stats/selectivity.h"
#include "stats/table_stats.h"
#include "storage/data_generator.h"
#include "util/rng.h"

namespace rqp {
namespace {

TEST(HistogramTest, EmptyInput) {
  Histogram h = Histogram::Build({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateEqFraction(5), 0.0);
}

TEST(HistogramTest, UniformRangeEstimates) {
  Rng rng(1);
  auto values = gen::Uniform(&rng, 100000, 0, 999);
  Histogram h = Histogram::Build(values, 64);
  EXPECT_EQ(h.total_count(), 100000);
  // [0, 99] covers ~10% of the domain.
  EXPECT_NEAR(h.EstimateRangeFraction(0, 99), 0.10, 0.02);
  EXPECT_NEAR(h.EstimateRangeFraction(0, 999), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(2000, 3000), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(50, 40), 0.0);
}

TEST(HistogramTest, EqEstimateOnUniformData) {
  Rng rng(2);
  auto values = gen::Uniform(&rng, 100000, 0, 99);
  Histogram h = Histogram::Build(values, 32);
  // Each value holds ~1% of rows.
  EXPECT_NEAR(h.EstimateEqFraction(42), 0.01, 0.005);
  EXPECT_DOUBLE_EQ(h.EstimateEqFraction(1000), 0.0);
}

TEST(HistogramTest, SkewedDataEqEstimatesReflectBuckets) {
  // Heavy value 0 plus a uniform tail; equi-depth buckets isolate the
  // heavy hitter so its estimate is far above the tail's.
  Rng rng(3);
  std::vector<int64_t> values;
  for (int i = 0; i < 50000; ++i) values.push_back(0);
  auto tail = gen::Uniform(&rng, 50000, 1, 1000);
  values.insert(values.end(), tail.begin(), tail.end());
  Histogram h = Histogram::Build(values, 64);
  EXPECT_GT(h.EstimateEqFraction(0), 0.2);
  EXPECT_LT(h.EstimateEqFraction(500), 0.01);
}

TEST(HistogramTest, DistinctEstimate) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 10);
  Histogram h = Histogram::Build(values, 8);
  EXPECT_EQ(h.EstimateDistinct(), 10);
}

TEST(HistogramTest, SingleValueColumn) {
  std::vector<int64_t> values(1000, 7);
  Histogram h = Histogram::Build(values, 8);
  EXPECT_DOUBLE_EQ(h.EstimateEqFraction(7), 1.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(7, 7), 1.0);
  EXPECT_DOUBLE_EQ(h.EstimateEqFraction(8), 0.0);
}

TEST(SelfTuningHistogramTest, StartsUniform) {
  SelfTuningHistogram st(0, 999, 10000, 10);
  EXPECT_NEAR(st.EstimateRangeFraction(0, 499), 0.5, 0.01);
  EXPECT_EQ(st.total_rows(), 10000);
}

TEST(SelfTuningHistogramTest, LearnsFromFeedback) {
  SelfTuningHistogram st(0, 999, 10000, 10);
  // True distribution: all rows in [0, 99].
  for (int i = 0; i < 30; ++i) {
    st.Update(0, 99, 10000);
    st.Update(100, 999, 0);
  }
  EXPECT_GT(st.EstimateRangeFraction(0, 99), 0.9);
  EXPECT_LT(st.EstimateRangeFraction(500, 999), 0.05);
}

TEST(SelfTuningHistogramTest, RestructureKeepsBucketCountAndMass) {
  SelfTuningHistogram st(0, 999, 10000, 10);
  for (int i = 0; i < 10; ++i) st.Update(0, 49, 8000);
  const int buckets_before = st.num_buckets();
  const int64_t rows_before = st.total_rows();
  st.Restructure();
  EXPECT_EQ(st.num_buckets(), buckets_before);
  EXPECT_NEAR(static_cast<double>(st.total_rows()),
              static_cast<double>(rows_before),
              static_cast<double>(rows_before) * 0.01 + 1);
}

TEST(TableStatsTest, AnalyzeBasics) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}})).value();
  Rng rng(4);
  t->SetColumnData(0, gen::Uniform(&rng, 10000, 0, 99));
  TableStats stats = TableStats::Analyze(*t, AnalyzeOptions{});
  EXPECT_EQ(stats.row_count(), 10000);
  ASSERT_TRUE(stats.HasColumn("a"));
  EXPECT_EQ(stats.column("a").min, 0);
  EXPECT_EQ(stats.column("a").max, 99);
  EXPECT_NEAR(stats.column("a").num_distinct, 100, 2);
}

TEST(TableStatsTest, StaleStatsSeeFewerRows) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}})).value();
  t->SetColumnData(0, gen::Sequential(1000));
  AnalyzeOptions opts;
  opts.stale_fraction = 0.5;
  TableStats stats = TableStats::Analyze(*t, opts);
  EXPECT_EQ(stats.row_count(), 500);
  EXPECT_LE(stats.column("a").max, 499);
}

TEST(TableStatsTest, SamplingStillCoversDomain) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}})).value();
  Rng rng(5);
  t->SetColumnData(0, gen::Uniform(&rng, 50000, 0, 999));
  AnalyzeOptions opts;
  opts.sample_rate = 0.1;
  TableStats stats = TableStats::Analyze(*t, opts);
  const auto& h = stats.column("a").histogram;
  EXPECT_NEAR(h.EstimateRangeFraction(0, 499), 0.5, 0.05);
}

TEST(TableStatsTest, AnalyzeMatchesSetAndMinmaxReference) {
  // Uniform, Zipf, constant and int64-extreme columns. The reference redraws
  // ANALYZE's sample (one Rng over the columns in order), counts distinct
  // values with a std::set and takes the bounds with std::minmax_element.
  constexpr int64_t kRows = 5000;
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"uniform", LogicalType::kInt64, 0, nullptr},
                   {"zipf", LogicalType::kInt64, 0, nullptr},
                   {"constant", LogicalType::kInt64, 0, nullptr},
                   {"extreme", LogicalType::kInt64, 0, nullptr}})).value();
  Rng gen_rng(8);
  // Nearly unique, so the sampled runs take the extrapolation branch.
  t->SetColumnData(0, gen::Uniform(&gen_rng, kRows, -1000000000, 1000000000));
  t->SetColumnData(1, gen::Zipf(&gen_rng, kRows, 300, 1.1));
  t->SetColumnData(2, std::vector<int64_t>(kRows, 7));
  std::vector<int64_t> extreme = gen::Uniform(&gen_rng, kRows, -3, 3);
  for (int64_t& v : extreme) v = v < -1 ? kMin64 : v > 1 ? kMax64 : v;
  t->SetColumnData(3, std::move(extreme));

  for (const double rate : {1.0, 0.3}) {
    for (const double stale : {1.0, 0.5}) {
      for (const int buckets : {0, 2, 64}) {
        SCOPED_TRACE(testing::Message() << "sample_rate=" << rate
                                        << " stale_fraction=" << stale
                                        << " num_buckets=" << buckets);
        AnalyzeOptions opts;
        opts.sample_rate = rate;
        opts.stale_fraction = stale;
        opts.num_buckets = buckets;
        const TableStats stats = TableStats::Analyze(*t, opts);
        const int64_t visible = static_cast<int64_t>(kRows * stale);
        Rng rng(opts.seed);
        for (size_t c = 0; c < t->schema().num_columns(); ++c) {
          std::vector<int64_t> sample;
          for (int64_t r = 0; r < visible; ++r) {
            if (rate >= 1.0 || rng.Bernoulli(rate)) {
              sample.push_back(t->Value(c, r));
            }
          }
          ASSERT_FALSE(sample.empty());
          const ColumnStats& cs = stats.column(t->schema().column(c).name);
          const auto [lo, hi] =
              std::minmax_element(sample.begin(), sample.end());
          EXPECT_EQ(cs.min, *lo);
          EXPECT_EQ(cs.max, *hi);
          double d = static_cast<double>(
              std::set<int64_t>(sample.begin(), sample.end()).size());
          if (rate < 1.0 && d > 0.9 * static_cast<double>(sample.size())) {
            d /= rate;
          }
          EXPECT_EQ(cs.num_distinct,
                    std::min<int64_t>(visible, static_cast<int64_t>(d)));
          const Histogram ref = Histogram::Build(sample, buckets);
          EXPECT_EQ(cs.histogram.empty(), buckets == 0);
          ASSERT_EQ(cs.histogram.buckets().size(), ref.buckets().size());
          for (size_t b = 0; b < ref.buckets().size(); ++b) {
            EXPECT_EQ(cs.histogram.buckets()[b].lo, ref.buckets()[b].lo);
            EXPECT_EQ(cs.histogram.buckets()[b].hi, ref.buckets()[b].hi);
            EXPECT_EQ(cs.histogram.buckets()[b].count,
                      ref.buckets()[b].count);
            EXPECT_EQ(cs.histogram.buckets()[b].distinct,
                      ref.buckets()[b].distinct);
          }
        }
      }
    }
  }
}

TEST(StatsCatalogTest, AnalyzeAll) {
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = 1000;
  spec.dim_rows = 100;
  BuildStarSchema(&catalog, spec);
  StatsCatalog stats;
  stats.AnalyzeAll(catalog, AnalyzeOptions{});
  EXPECT_NE(stats.Find("fact"), nullptr);
  EXPECT_NE(stats.Find("dim0"), nullptr);
  EXPECT_EQ(stats.Find("nope"), nullptr);
}

TEST(CorrelationTest, DetectsFunctionalDependency) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"x", LogicalType::kInt64, 0, nullptr},
                   {"y", LogicalType::kInt64, 0, nullptr},
                   {"z", LogicalType::kInt64, 0, nullptr}})).value();
  Rng rng(6);
  auto x = gen::Uniform(&rng, 20000, 0, 99);
  auto y = gen::Correlated(&rng, x, 3, 1, 0.0, 0, 0);  // y = 3x+1
  auto z = gen::Uniform(&rng, 20000, 0, 99);           // independent
  t->SetColumnData(0, x);
  t->SetColumnData(1, y);
  t->SetColumnData(2, z);
  CorrelationInfo info = DetectCorrelations(*t, CorrelationDetectorOptions{});
  EXPECT_TRUE(info.AreCorrelated("x", "y"));
  EXPECT_FALSE(info.AreCorrelated("x", "z"));
  EXPECT_DOUBLE_EQ(info.DependencyStrength("x", "y"), 1.0);
}

TEST(MaxEntropyTest, SingletonsOnlyReduceToIndependence) {
  MaxEntropyCombiner me(2);
  ASSERT_TRUE(me.AddConstraint(0b01, 0.1).ok());
  ASSERT_TRUE(me.AddConstraint(0b10, 0.2).ok());
  ASSERT_TRUE(me.Solve().ok());
  EXPECT_NEAR(me.Selectivity(0b11), 0.02, 1e-6);
  EXPECT_NEAR(me.Selectivity(0b01), 0.1, 1e-6);
}

TEST(MaxEntropyTest, PairwiseKnowledgeOverridesIndependence) {
  // p0 and p1 fully correlated: sel(p0)=sel(p1)=sel(p0&p1)=0.1.
  MaxEntropyCombiner me(3);
  ASSERT_TRUE(me.AddConstraint(0b001, 0.1).ok());
  ASSERT_TRUE(me.AddConstraint(0b010, 0.1).ok());
  ASSERT_TRUE(me.AddConstraint(0b011, 0.1).ok());
  ASSERT_TRUE(me.AddConstraint(0b100, 0.5).ok());
  ASSERT_TRUE(me.Solve().ok());
  // Full conjunction: p2 independent of the (merged) p0=p1.
  EXPECT_NEAR(me.Selectivity(0b111), 0.05, 1e-4);
}

TEST(MaxEntropyTest, RejectsBadInput) {
  MaxEntropyCombiner me(2);
  EXPECT_FALSE(me.AddConstraint(0, 0.5).ok());
  EXPECT_FALSE(me.AddConstraint(0b100, 0.5).ok());
  EXPECT_FALSE(me.AddConstraint(0b01, 1.5).ok());
}

TEST(MaxEntropyTest, InconsistentConstraintsReported) {
  MaxEntropyCombiner me(2);
  // Conjunction more selective than allowed: sel(p0&p1) > sel(p0).
  ASSERT_TRUE(me.AddConstraint(0b01, 0.1).ok());
  ASSERT_TRUE(me.AddConstraint(0b11, 0.5).ok());
  EXPECT_FALSE(me.Solve().ok());
}

TEST(FeedbackCacheTest, RecordAndLookupNormalizes) {
  FeedbackCache cache;
  auto p = MakeAnd({MakeCmp("a", CmpOp::kGe, 2), MakeCmp("a", CmpOp::kLe, 7)});
  auto q = MakeBetween("a", 2, 7);  // equivalent formulation
  EXPECT_LT(cache.Lookup("t", p), 0.0);
  cache.Record("t", p, 0.25);
  EXPECT_NEAR(cache.Lookup("t", q), 0.25, 1e-12);
  EXPECT_LT(cache.Lookup("other", p), 0.0);
}

TEST(FeedbackCacheTest, SmoothsRepeatedObservations) {
  FeedbackCache cache(0.5);
  auto p = MakeCmp("a", CmpOp::kEq, 1);
  cache.Record("t", p, 0.2);
  cache.Record("t", p, 0.4);
  EXPECT_NEAR(cache.Lookup("t", p), 0.3, 1e-12);
}

class SelectivityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    table_ = std::make_unique<Table>(
        "t", Schema({{"a", LogicalType::kInt64, 0, nullptr},
                     {"b", LogicalType::kInt64, 0, nullptr},
                     {"c", LogicalType::kInt64, 0, nullptr}}));
    auto a = gen::Uniform(&rng, 50000, 0, 999);
    auto b = gen::Correlated(&rng, a, 1, 0, 0.0, 0, 0);  // b == a (redundant)
    auto c = gen::Uniform(&rng, 50000, 0, 999);
    table_->SetColumnData(0, a);
    table_->SetColumnData(1, b);
    table_->SetColumnData(2, c);
    stats_ = TableStats::Analyze(*table_, AnalyzeOptions{});
    correlations_ = DetectCorrelations(*table_, CorrelationDetectorOptions{});
  }

  std::unique_ptr<Table> table_;
  TableStats stats_;
  CorrelationInfo correlations_;
};

TEST_F(SelectivityFixture, RangeEstimateCloseToActual) {
  SelectivityEstimator est("t", &stats_);
  auto p = MakeBetween("a", 100, 299);
  EXPECT_NEAR(est.Estimate(p), ActualSelectivity(p, *table_), 0.02);
}

TEST_F(SelectivityFixture, IndependenceUnderestimatesRedundantPredicates) {
  // a BETWEEN 100..199 AND b BETWEEN 100..199 — identical rows qualify,
  // true selectivity ~0.1, independence predicts ~0.01.
  auto p = MakeAnd({MakeBetween("a", 100, 199), MakeBetween("b", 100, 199)});
  SelectivityEstimator naive("t", &stats_);
  const double actual = ActualSelectivity(p, *table_);
  EXPECT_NEAR(actual, 0.10, 0.01);
  EXPECT_LT(naive.Estimate(p), 0.02);

  EstimatorOptions opts;
  opts.use_correlations = true;
  SelectivityEstimator aware("t", &stats_, opts, &correlations_);
  EXPECT_NEAR(aware.Estimate(p), actual, 0.02);
}

TEST_F(SelectivityFixture, IndependentColumnsStillMultiply) {
  auto p = MakeAnd({MakeBetween("a", 0, 499), MakeBetween("c", 0, 499)});
  EstimatorOptions opts;
  opts.use_correlations = true;
  SelectivityEstimator aware("t", &stats_, opts, &correlations_);
  EXPECT_NEAR(aware.Estimate(p), 0.25, 0.03);
}

TEST_F(SelectivityFixture, DisjunctionInclusionExclusion) {
  auto p = MakeOr({MakeBetween("a", 0, 499), MakeBetween("c", 0, 499)});
  SelectivityEstimator est("t", &stats_);
  EXPECT_NEAR(est.Estimate(p), 0.75, 0.03);
}

TEST_F(SelectivityFixture, NegationComplements) {
  auto p = MakeNot(MakeBetween("a", 0, 499));
  SelectivityEstimator est("t", &stats_);
  EXPECT_NEAR(est.Estimate(p), 0.5, 0.03);
}

TEST_F(SelectivityFixture, ParamsUseMagicNumbers) {
  EstimatorOptions opts;
  SelectivityEstimator est("t", &stats_, opts);
  SelEstimate e =
      est.EstimateWithPedigree(MakeParamCmp("a", CmpOp::kEq, 0));
  EXPECT_DOUBLE_EQ(e.value, opts.default_eq_selectivity);
  EXPECT_EQ(e.guessed_terms, 1);
}

TEST_F(SelectivityFixture, PedigreeCountsIndependenceTerms) {
  SelectivityEstimator est("t", &stats_);
  auto p = MakeAnd({MakeBetween("a", 0, 9), MakeBetween("b", 0, 9),
                    MakeBetween("c", 0, 9)});
  SelEstimate e = est.EstimateWithPedigree(p);
  EXPECT_EQ(e.independence_terms, 2);
}

TEST_F(SelectivityFixture, FeedbackOverridesStats) {
  FeedbackCache cache;
  auto p = MakeAnd({MakeBetween("a", 100, 199), MakeBetween("b", 100, 199)});
  cache.Record("t", p, ActualSelectivity(p, *table_));
  EstimatorOptions opts;
  opts.use_feedback = true;
  SelectivityEstimator est("t", &stats_, opts, nullptr, &cache);
  EXPECT_NEAR(est.Estimate(p), 0.10, 0.01);
}

TEST_F(SelectivityFixture, NormalizationGivesEquivalentFormsSameEstimate) {
  EstimatorOptions opts;
  opts.normalize_predicates = true;
  SelectivityEstimator est("t", &stats_, opts);
  auto p = MakeNot(MakeCmp("a", CmpOp::kNe, 500));
  auto q = MakeCmp("a", CmpOp::kEq, 500);
  EXPECT_DOUBLE_EQ(est.Estimate(p), est.Estimate(q));
}

}  // namespace
}  // namespace rqp
