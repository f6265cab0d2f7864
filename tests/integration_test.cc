// End-to-end integration & property tests: random acyclic join queries are
// planned by the optimizer (under various option sets and statistics
// quality) and the executed result is checked against the independent
// reference evaluator (tests/reference_eval.h). Whatever the estimates say,
// the answer must be exactly right — the engine-level correctness invariant
// every robustness feature must preserve.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "reference_eval.h"
#include "storage/data_generator.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

class RandomJoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomJoinProperty, OptimizedPlansMatchReference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  Catalog catalog;
  StarSchemaSpec sspec;
  sspec.fact_rows = 5000 + rng.Uniform(0, 15000);
  sspec.dim_rows = 200 + rng.Uniform(0, 2000);
  sspec.num_dimensions = static_cast<int>(rng.Uniform(1, 4));
  sspec.fk_zipf_theta = rng.Bernoulli(0.5) ? 0.7 : 0.0;
  sspec.seed = seed * 7 + 1;
  BuildStarSchema(&catalog, sspec);
  // Random subset of indexes.
  for (int d = 0; d < sspec.num_dimensions; ++d) {
    if (rng.Bernoulli(0.7)) {
      ASSERT_TRUE(
          catalog.BuildIndex("dim" + std::to_string(d), "id").ok());
    }
  }
  if (rng.Bernoulli(0.5)) {
    ASSERT_TRUE(catalog.BuildIndex("fact", "fk0").ok());
  }

  for (int iter = 0; iter < 4; ++iter) {
    QuerySpec spec = rng.Bernoulli(0.3)
                         ? workload::TrapStarQuery(
                               sspec.num_dimensions,
                               rng.Uniform(1, sspec.dim_rows / 2),
                               std::vector<int64_t>(
                                   static_cast<size_t>(sspec.num_dimensions),
                                   sspec.dim_rows * 10))
                         : workload::RandomStarQuery(
                               &rng, sspec.num_dimensions, sspec.dim_rows,
                               0.8, 0.01, 0.9);
    const auto want = ref::ReferenceEval(catalog, spec);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    // Engine configurations that must all agree.
    for (int config = 0; config < 5; ++config) {
      EngineOptions opts;
      switch (config) {
        case 0: break;  // default
        case 1:
          opts.use_pop = true;
          break;
        case 2:
          opts.optimizer.use_gjoin = true;
          break;
        case 3:
          opts.use_pop = true;
          opts.use_rio = true;
          opts.cardinality.percentile = 0.5;
          break;
        case 4:
          opts.num_threads = 4;  // scan-join-agg segments run in GatherOp
          break;
      }
      Engine engine(&catalog, opts);
      // Randomly degraded statistics: wrong estimates allowed, wrong
      // answers not.
      AnalyzeOptions analyze;
      analyze.num_buckets = rng.Bernoulli(0.5) ? 4 : 64;
      analyze.stale_fraction = rng.Bernoulli(0.3) ? 0.4 : 1.0;
      engine.AnalyzeAll(analyze);
      auto result = engine.Run(spec, /*keep_rows=*/true);
      ASSERT_TRUE(result.ok())
          << "seed " << seed << " iter " << iter << " config " << config
          << ": " << result.status().ToString();
      EXPECT_EQ(ref::SortedRows(*result),
                ref::SortedRows(want.value(), result->output_slots))
          << "seed " << seed << " iter " << iter << " config " << config
          << "\nplan:\n" << result->final_plan;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomJoinProperty,
                         ::testing::Range(1, 13));

TEST(AggregationIntegrationTest, GroupedStarAggregatesMatchReference) {
  Catalog catalog;
  StarSchemaSpec sspec;
  sspec.fact_rows = 20000;
  sspec.dim_rows = 1000;
  sspec.num_dimensions = 1;
  BuildStarSchema(&catalog, sspec);

  QuerySpec spec;
  spec.tables.push_back({"fact", nullptr});
  spec.tables.push_back({"dim0", MakeBetween("attr", 0, 4000)});
  spec.joins.push_back({"fact", "fk0", "dim0", "id"});
  spec.group_by = {"dim0.band"};
  spec.aggregates = {{AggFn::kCount, "", "cnt"},
                     {AggFn::kSum, "fact.measure", "sum_m"},
                     {AggFn::kMin, "fact.measure", "min_m"},
                     {AggFn::kMax, "fact.measure", "max_m"}};
  ref::CheckAgainstReference(&catalog, spec);
}

}  // namespace
}  // namespace rqp
