// Scan-view execution tests (DESIGN.md §15): engine answers under 8-page
// spill grants (the scan-probed join routing view rows to spill files and
// recursing), a seeded fault schedule, and result-cache replay match the
// reference evaluator at DOP 1 and 4; the view-read and row-write
// diagnostics count exactly what they claim; and the SIMD kernels
// ($RQP_SIMD) are bit-identical to their scalar twins. Runs under the `columnar` ctest
// label (both sanitizer CI legs, and again with $RQP_SIMD=0).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/filter_ops.h"
#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "expr/expr.h"
#include "expr/predicate.h"
#include "expr/simd.h"
#include "reference_eval.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

struct ColumnarFixture : ref::StarFixture {
  static QuerySpec JoinAggQuery() {
    QuerySpec q = workload::StarQuery(3, {2500, 3500, 4500});
    q.group_by = {"dim0.band"};
    q.aggregates = {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "fact.measure", "sum_m"},
                    {AggFn::kMin, "fact.measure", "min_m"},
                    {AggFn::kMax, "fact.measure", "max_m"}};
    return q;
  }

  /// Join + derived columns + aggregation over the derived slots.
  static QuerySpec DerivedJoinAggQuery() {
    QuerySpec q = workload::StarQuery(2, {2500, 3500});
    q.derived = {
        {"m2", MakeArith(MakeArith(MakeColExpr("fact.measure"), ArithOp::kMul,
                                   MakeConstExpr(2)),
                         ArithOp::kAdd, MakeConstExpr(1))},
        {"keyed", MakeArith(MakeColExpr("fact.fk0"), ArithOp::kAdd,
                            MakeColExpr("fact.fk1"))}};
    q.group_by = {"dim0.band"};
    q.aggregates = {{AggFn::kSum, "m2", "sum_m2"},
                    {AggFn::kMax, "keyed", "max_k"}};
    return q;
  }
};

TEST_F(ColumnarFixture, EightPageSpillGrantsMatchReference) {
  // 8-page grants: the join spills, spilled probe routing gathers rows off
  // the scan's views, and recursion emits rows re-read from spill files.
  EngineOptions options;
  options.memory_pages = 8;
  options.spill_dir = SpillDir("spill");
  ref::CheckAgainstReference(&catalog, JoinAggQuery(), options);
  ref::CheckAgainstReference(&catalog, DerivedJoinAggQuery(), options);
  // It really spilled — otherwise this test proves nothing.
  options.num_threads = 1;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  auto spilled = engine.Run(JoinAggQuery());
  ASSERT_TRUE(spilled.ok());
  EXPECT_GT(spilled->counters.spill_pages, 0);
  fs::remove_all(options.spill_dir);
}

TEST_F(ColumnarFixture, SeededFaultScheduleMatchesReference) {
  // Mid-query memory drop + per-table I/O slowdown + transient scan
  // failures: the answer must not move.
  QuerySpec q = workload::StarQuery(3, {2500, 3500, 4500});
  EngineOptions options;
  options.spill_dir = SpillDir("faults");
  options.faults.MemoryDrop(120, 64)
      .IoSlowdown("fact", 2.0, /*at_cost=*/50, /*until_cost=*/600)
      .ScanFailures("fact", 0.2, /*at_cost=*/0, /*until_cost=*/300);
  ref::CheckAgainstReference(&catalog, q, options);
  ref::CheckAgainstReference(&catalog, DerivedJoinAggQuery(), options);
  for (const int dop : {1, 4}) {
    options.num_threads = dop;
    Engine engine(&catalog, options);
    engine.AnalyzeAll();
    auto got = engine.Run(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->faults.memory_drops, 1) << "dop " << dop;
  }
  fs::remove_all(options.spill_dir);
}

TEST_F(ColumnarFixture, ResultCacheReplayMatchesReference) {
  // CheckAgainstReference re-runs each query and requires a cache hit that
  // replays the oracle's rows.
  EngineOptions options;
  options.use_result_cache = 1;
  QuerySpec q = workload::StarQuery(2, {2500, 3500});
  q.group_by = {"dim0.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"}};
  ref::CheckAgainstReference(&catalog, q, options);
  ref::CheckAgainstReference(&catalog, DerivedJoinAggQuery(), options);
}

// ---- the materialization-boundary diagnostics ------------------------------

TEST_F(ColumnarFixture, DiagnosticsCountViewReadsAndRowWrites) {
  // transposes_elided counts the scan rows a consumer read as views;
  // rows_materialized counts the rows written row-major from views.
  const Table* fact = catalog.GetTable("fact").value();
  const Table* dim0 = catalog.GetTable("dim0").value();
  {
    // Unspilled scan → join → agg: the probe fetch reads every fact row as
    // views; the join writes its output pairs from them, and the build
    // scan's Next transposes the dimension rows.
    auto join = std::make_unique<HashJoinOp>(
        std::make_unique<TableScanOp>(fact),
        std::make_unique<TableScanOp>(dim0), "fact.fk0", "dim0.id");
    const HashJoinOp* j = join.get();
    HashAggOp agg(std::move(join), {"dim0.band"},
                  {{AggFn::kCount, "", "cnt"}});
    ExecContext ctx;
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
    EXPECT_EQ(ctx.counters().spill_pages, 0);
    EXPECT_GT(j->rows_produced(), 0);
    EXPECT_EQ(ctx.counters().transposes_elided, fact->num_rows());
    EXPECT_EQ(ctx.counters().rows_materialized,
              j->rows_produced() + dim0->num_rows());
  }
  {
    // Scan → map: the map reads the views and writes each row once.
    MapOp map(std::make_unique<TableScanOp>(fact),
              {{"m2", MakeArith(MakeColExpr("fact.measure"), ArithOp::kMul,
                                MakeConstExpr(2))}});
    ExecContext ctx;
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&map, &ctx, &out).ok());
    EXPECT_EQ(ctx.counters().transposes_elided, fact->num_rows());
    EXPECT_EQ(ctx.counters().rows_materialized, fact->num_rows());
  }
}

// ---- the SIMD gate and kernels ---------------------------------------------

TEST(ColumnarGateTest, SimdOptionAndEnvResolution) {
  const char* saved = std::getenv("RQP_SIMD");
  const std::string saved_value = saved == nullptr ? "" : saved;

  // Explicit off always yields scalar kernels; explicit on and the env
  // default resolve through runtime CPU dispatch (scalar on machines
  // without AVX2 — never an illegal instruction).
  EXPECT_EQ(ResolveSimdLevel(0), SimdLevel::kScalar);
  ::setenv("RQP_SIMD", "0", 1);
  EXPECT_EQ(ResolveSimdLevel(-1), SimdLevel::kScalar);
  ::unsetenv("RQP_SIMD");
  const SimdLevel probed = ResolveSimdLevel(-1);
  EXPECT_TRUE(probed == SimdLevel::kScalar || probed == SimdLevel::kAVX2);
  EXPECT_EQ(ResolveSimdLevel(1), probed);  // explicit on = same dispatch

  if (saved != nullptr) ::setenv("RQP_SIMD", saved_value.c_str(), 1);
}

TEST(ColumnarGateTest, SimdKernelsMatchScalarBitForBit) {
  // Direct kernel check (the engine-level identity above covers the wiring;
  // this pins the kernels themselves): compare+compact and hash-mix agree
  // with their scalar fallbacks on every op and awkward tail length.
  Rng rng(42);
  const std::vector<int64_t> values = gen::Uniform(&rng, 1000, -50, 50);
  const SimdLevel simd = ResolveSimdLevel(-1);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{7}, size_t{997}, values.size()}) {
    std::vector<uint32_t> want(n), got(n);
    for (const CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                           CmpOp::kGt, CmpOp::kGe}) {
      const size_t want_n = SimdDenseCmp(values.data(), n, op, 3, want.data(),
                                         SimdLevel::kScalar);
      const size_t got_n = SimdDenseCmp(values.data(), n, op, 3, got.data(),
                                        simd);
      ASSERT_EQ(got_n, want_n) << "cmp op " << static_cast<int>(op)
                               << " n " << n;
      for (size_t i = 0; i < want_n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "cmp op " << static_cast<int>(op)
                                   << " n " << n << " idx " << i;
      }
    }
    const size_t bw = SimdDenseBetween(values.data(), n, -10, 10, want.data(),
                                       SimdLevel::kScalar);
    const size_t bg = SimdDenseBetween(values.data(), n, -10, 10, got.data(),
                                       simd);
    ASSERT_EQ(bg, bw) << "between n " << n;
    for (size_t i = 0; i < bw; ++i) {
      ASSERT_EQ(got[i], want[i]) << "between n " << n << " idx " << i;
    }

    std::vector<uint64_t> mix_want(n), mix_got(n);
    SimdMixBatch(values.data(), n, mix_want.data(), SimdLevel::kScalar);
    SimdMixBatch(values.data(), n, mix_got.data(), simd);
    EXPECT_EQ(mix_got, mix_want) << "mix n " << n;
  }
}

}  // namespace
}  // namespace rqp
