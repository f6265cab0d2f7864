#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "storage/data_generator.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

/// Star schema; statistics quality is controlled per test.
class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 50000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 2;
    BuildStarSchema(&catalog_, spec);
    ASSERT_TRUE(catalog_.BuildIndex("dim0", "id").ok());
    ASSERT_TRUE(catalog_.BuildIndex("dim1", "id").ok());
    ASSERT_TRUE(catalog_.BuildIndex("fact", "fk0").ok());
  }

  static QuerySpec StarQuery(int64_t dim_attr_hi) {
    QuerySpec spec;
    spec.tables.push_back({"fact", nullptr});
    for (int d = 0; d < 2; ++d) {
      const std::string dim = "dim" + std::to_string(d);
      spec.tables.push_back({dim, MakeBetween("attr", 0, dim_attr_hi)});
      spec.joins.push_back({"fact", "fk" + std::to_string(d), dim, "id"});
    }
    return spec;
  }

  int64_t ReferenceCount(int64_t dim_attr_hi) {
    const Table* fact = catalog_.GetTable("fact").value();
    const int64_t id_hi = dim_attr_hi / 10;
    int64_t expected = 0;
    for (int64_t r = 0; r < fact->num_rows(); ++r) {
      if (fact->Value(0, r) <= id_hi && fact->Value(1, r) <= id_hi) {
        ++expected;
      }
    }
    return expected;
  }

  Catalog catalog_;
};

TEST_F(EngineFixture, RunsStarJoin) {
  Engine engine(&catalog_);
  engine.AnalyzeAll();
  auto result = engine.Run(StarQuery(500));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, ReferenceCount(500));
  EXPECT_GT(result->cost, 0.0);
  EXPECT_EQ(result->reoptimizations, 0);
  EXPECT_FALSE(result->final_plan.empty());
}

TEST_F(EngineFixture, KeepRowsMaterializesOutput) {
  Engine engine(&catalog_);
  engine.AnalyzeAll();
  QuerySpec spec;
  spec.tables.push_back({"dim0", MakeBetween("attr", 0, 90)});
  auto result = engine.Run(spec, /*keep_rows=*/true);
  ASSERT_TRUE(result.ok());
  int64_t rows = 0;
  for (const auto& b : result->rows) rows += static_cast<int64_t>(b.num_rows());
  EXPECT_EQ(rows, result->output_rows);
  EXPECT_EQ(rows, 10);
}

TEST_F(EngineFixture, NodeCardsReportEstimateVsActual) {
  Engine engine(&catalog_);
  engine.AnalyzeAll();
  auto result = engine.Run(StarQuery(500));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->node_cards.empty());
  // With fresh stats, scan estimates are close to actuals.
  for (const auto& nc : result->node_cards) {
    if (nc.actual > 100) {
      EXPECT_LT(std::abs(nc.estimated - nc.actual) / nc.actual, 0.8)
          << "node " << nc.node_id;
    }
  }
}

TEST_F(EngineFixture, PopReoptimizesOnBadEstimates) {
  // Stale statistics: the optimizer believes fact has 5% of its rows.
  EngineOptions opts;
  opts.use_pop = true;
  Engine engine(&catalog_, opts);
  AnalyzeOptions stale;
  stale.stale_fraction = 0.05;
  engine.AnalyzeAll(stale);

  auto result = engine.Run(StarQuery(500));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, ReferenceCount(500));
  // Without POP the same engine produces the same (correct) answer but no
  // reoptimizations.
  EngineOptions plain;
  Engine engine2(&catalog_, plain);
  engine2.AnalyzeAll(stale);
  auto result2 = engine2.Run(StarQuery(500));
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->output_rows, result->output_rows);
  EXPECT_EQ(result2->reoptimizations, 0);
}

TEST_F(EngineFixture, CheckNodeIdsRepeatAcrossRuns) {
  // POP wraps the star query's join inputs in CHECK nodes. Their ids are
  // numbered per optimization, so a second run of the same query on the
  // same engine reports the same nodes.
  EngineOptions opts;
  opts.use_pop = true;
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();
  auto first = engine.Run(StarQuery(500));
  auto second = engine.Run(StarQuery(500));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto cards = [](const QueryResult& r) {
    std::vector<std::tuple<int, double, int64_t>> out;
    for (const auto& nc : r.node_cards) {
      out.emplace_back(nc.node_id, nc.estimated, nc.actual);
    }
    return out;
  };
  const auto want = cards(*first);
  EXPECT_TRUE(std::any_of(want.begin(), want.end(), [](const auto& nc) {
    return std::get<0>(nc) >= (1 << 20);
  })) << "no CHECK node";
  EXPECT_EQ(cards(*second), want);
}

/// The cost-model-weighted sum of the charge counters. Equals cost_units
/// whenever no index is descended and no fault multiplies I/O: those are
/// the only charges that move the clock without a counter of their own.
double WeightedCharges(const ExecCounters& c, const CostModel& m) {
  return m.seq_page_read * static_cast<double>(c.pages_read) +
         m.random_page_read * static_cast<double>(c.random_reads) +
         m.row_cpu * static_cast<double>(c.rows_processed + c.predicate_evals) +
         m.hash_op * static_cast<double>(c.hash_ops) +
         m.compare_op * static_cast<double>(c.compare_ops) +
         m.spill_page_write * static_cast<double>(c.spill_pages) +
         m.spill_page_read * static_cast<double>(c.spill_pages_reread);
}

TEST_F(EngineFixture, AbandonedAttemptsKeepEveryCounter) {
  // Stale statistics plus the trap query's redundant conjuncts make the
  // first plan wrong. A POP re-optimization or a guardrail retry abandons
  // that attempt; its counters must reach QueryResult::counters just as
  // its cost does.
  const QuerySpec trap = workload::TrapStarQuery(2, 80, {10000, 10000});
  AnalyzeOptions stale;
  stale.stale_fraction = 0.05;
  Engine plain(&catalog_);
  plain.AnalyzeAll();
  auto expected = plain.Run(trap);
  ASSERT_TRUE(expected.ok());
  for (const int dop : {1, 4}) {
    for (const bool guarded : {false, true}) {
      SCOPED_TRACE(std::string(guarded ? "guardrail" : "pop") + " dop " +
                   std::to_string(dop));
      EngineOptions opts;
      opts.num_threads = dop;
      opts.optimizer.consider_index_scan = false;
      opts.optimizer.consider_index_nl = false;
      if (guarded) {
        opts.guardrails.enabled = true;
        opts.guardrails.fuse_factor = 2;
        opts.guardrails.fuse_min_rows = 100;
      } else {
        opts.use_pop = true;
      }
      Engine engine(&catalog_, opts);
      engine.AnalyzeAll(stale);
      auto r = engine.Run(trap);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->output_rows, expected->output_rows);
      EXPECT_GE(guarded ? r->guardrail_retries : r->reoptimizations, 1);
      EXPECT_NEAR(r->counters.cost_units,
                  WeightedCharges(r->counters, opts.cost_model),
                  1e-9 * r->counters.cost_units);
    }
  }
}

TEST_F(EngineFixture, FeedbackImprovesSecondRun) {
  EngineOptions opts;
  opts.collect_feedback = true;
  opts.cardinality.estimator.use_feedback = true;
  opts.cardinality.estimator.normalize_predicates = true;
  Engine engine(&catalog_, opts);
  // Coarse histograms make first-run estimates rough.
  AnalyzeOptions coarse;
  coarse.num_buckets = 2;
  engine.AnalyzeAll(coarse);

  QuerySpec spec;
  spec.tables.push_back({"fact", MakeBetween("fk0", 0, 49)});
  auto first = engine.Run(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(engine.feedback()->size(), 0u);

  // Second optimization sees the remembered selectivity: the top-level scan
  // estimate now matches the actual row count.
  auto plan = engine.Plan(spec);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR((*plan)->est_rows, static_cast<double>(first->output_rows),
              static_cast<double>(first->output_rows) * 0.05 + 1);
}

TEST_F(EngineFixture, GJoinModeRunsCorrectly) {
  EngineOptions opts;
  opts.optimizer.use_gjoin = true;
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();
  auto result = engine.Run(StarQuery(500));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output_rows, ReferenceCount(500));
  EXPECT_NE(result->final_plan.find("GJoin"), std::string::npos);
}

TEST_F(EngineFixture, MemoryPressureIncreasesCost) {
  EngineOptions rich;
  Engine rich_engine(&catalog_, rich);
  rich_engine.AnalyzeAll();
  auto rich_result = rich_engine.Run(StarQuery(5000));
  ASSERT_TRUE(rich_result.ok());

  EngineOptions poor;
  poor.memory_pages = 4;
  Engine poor_engine(&catalog_, poor);
  poor_engine.AnalyzeAll();
  auto poor_result = poor_engine.Run(StarQuery(5000));
  ASSERT_TRUE(poor_result.ok());

  EXPECT_EQ(rich_result->output_rows, poor_result->output_rows);
  EXPECT_GT(poor_result->cost, rich_result->cost);
  EXPECT_GT(poor_result->counters.spill_pages, 0);
}

TEST_F(EngineFixture, CorrelationAwareEstimatesFixRedundantPredicate) {
  // fact.corr = fk0 * 1000 + 7 (redundant). Independence multiplies the
  // two selectivities; correlation-aware estimation does not.
  QuerySpec spec;
  spec.tables.push_back(
      {"fact", MakeAnd({MakeBetween("fk0", 0, 49),
                        MakeBetween("corr", 0, 49 * 1000 + 7)})});

  EngineOptions naive;
  Engine naive_engine(&catalog_, naive);
  naive_engine.AnalyzeAll();
  auto naive_plan = naive_engine.Plan(spec);
  ASSERT_TRUE(naive_plan.ok());

  EngineOptions aware;
  aware.cardinality.estimator.use_correlations = true;
  Engine aware_engine(&catalog_, aware);
  aware_engine.AnalyzeAll();
  aware_engine.DetectAllCorrelations();
  auto aware_plan = aware_engine.Plan(spec);
  ASSERT_TRUE(aware_plan.ok());

  auto run = naive_engine.Run(spec);
  ASSERT_TRUE(run.ok());
  const double actual = static_cast<double>(run->output_rows);
  EXPECT_GT(actual, 0);
  const double naive_err =
      std::abs(naive_plan.value()->est_rows - actual) / actual;
  const double aware_err =
      std::abs(aware_plan.value()->est_rows - actual) / actual;
  EXPECT_LT(aware_err, naive_err);
  EXPECT_LT(naive_plan.value()->est_rows, 0.2 * actual);  // underestimate
}

}  // namespace
}  // namespace rqp
