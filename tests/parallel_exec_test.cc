// Morsel-driven parallelism tests: the primitives (morsel cursor, thread
// pool, deterministic makespan schedule) and the end-to-end determinism
// contract — every query produces byte-identical output at every DOP,
// including under fault-injected memory drops and 1-page spill grants —
// and the workers' aggregate revocation path, checked against the
// reference evaluator. Runs under the `parallel` ctest label (the TSan CI
// job).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/join_ops.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "optimizer/builder.h"
#include "reference_eval.h"
#include "storage/data_generator.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

// ---- primitives ------------------------------------------------------------

TEST(MorselCursorTest, CoversRangeWithDenseOrderedIds) {
  // 100 rows, 33-row morsels: rounds up to 64 (2 pages of 32), so two
  // morsels cover [0,64) and [64,100).
  MorselCursor cursor(100, 33);
  EXPECT_EQ(cursor.morsel_rows(), 64);
  EXPECT_EQ(cursor.num_morsels(), 2);
  Morsel m;
  ASSERT_TRUE(cursor.Claim(&m));
  EXPECT_EQ(m.id, 0);
  EXPECT_EQ(m.begin, 0);
  EXPECT_EQ(m.end, 64);
  ASSERT_TRUE(cursor.Claim(&m));
  EXPECT_EQ(m.id, 1);
  EXPECT_EQ(m.begin, 64);
  EXPECT_EQ(m.end, 100);
  EXPECT_FALSE(cursor.Claim(&m));
  EXPECT_FALSE(cursor.Claim(&m));  // exhaustion is sticky
}

TEST(MorselCursorTest, EmptyTableYieldsNoMorsels) {
  MorselCursor cursor(0, 4096);
  Morsel m;
  EXPECT_EQ(cursor.num_morsels(), 0);
  EXPECT_FALSE(cursor.Claim(&m));
}

TEST(ScheduleMakespanTest, GreedyListScheduleIsDeterministic) {
  // Serial: makespan == total work.
  EXPECT_DOUBLE_EQ(ScheduleMakespan({3, 1, 4, 1, 5}, 1), 14.0);
  // Two workers, id order, least-loaded placement (ties -> lowest id):
  //   w0: 3 +1(id=3) +5(id=4) = 9;  w1: 1 +4 = 5.
  EXPECT_DOUBLE_EQ(ScheduleMakespan({3, 1, 4, 1, 5}, 2), 9.0);
  // More workers than morsels: makespan is the largest morsel.
  EXPECT_DOUBLE_EQ(ScheduleMakespan({3, 1, 4}, 8), 4.0);
  EXPECT_DOUBLE_EQ(ScheduleMakespan({}, 4), 0.0);
}

TEST(ThreadPoolTest, RunOnWorkersIsABarrierAndReusable) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    std::atomic<uint32_t> id_mask{0};
    pool.RunOnWorkers(4, [&](int w) {
      id_mask.fetch_or(1u << w);
      count.fetch_add(1);
    });
    // Barrier: by the time RunOnWorkers returns, all 4 ran exactly once.
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(id_mask.load(), 0b1111u);
  }
  // n clamps to [1, num_threads].
  std::atomic<int> count{0};
  pool.RunOnWorkers(99, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

// ---- end-to-end byte identity ----------------------------------------------

struct ParallelFixture : ::testing::Test {
  Catalog catalog;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 50000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 3;
    BuildStarSchema(&catalog, spec);
  }

  std::string SpillDir(const std::string& tag) {
    return (fs::temp_directory_path() /
            ("rqp-parallel-test-" + std::to_string(getpid()) + "-" + tag))
        .string();
  }

  StatusOr<QueryResult> RunAtDop(const QuerySpec& q, int dop,
                                 EngineOptions options = EngineOptions()) {
    options.num_threads = dop;
    Engine engine(&catalog, options);
    engine.AnalyzeAll();
    return engine.Run(q, /*keep_rows=*/true);
  }

  static std::vector<int64_t> Flatten(const QueryResult& r) {
    std::vector<int64_t> values;
    for (const auto& b : r.rows) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        const int64_t* row = b.row(i);
        values.insert(values.end(), row, row + b.num_cols());
      }
    }
    return values;
  }

  // Total work does not depend on DOP: the clock and every cost-bearing
  // counter match the serial run exactly. The cost model's constants are
  // dyadic, so even the floating-point clock sums to the same bits in any
  // order.
  static void ExpectSameWork(const QueryResult& serial,
                             const QueryResult& got, int dop) {
    EXPECT_EQ(got.cost, serial.cost) << "dop " << dop;
    const ExecCounters& a = serial.counters;
    const ExecCounters& b = got.counters;
    EXPECT_EQ(b.pages_read, a.pages_read) << "dop " << dop;
    EXPECT_EQ(b.random_reads, a.random_reads) << "dop " << dop;
    EXPECT_EQ(b.rows_processed, a.rows_processed) << "dop " << dop;
    EXPECT_EQ(b.hash_ops, a.hash_ops) << "dop " << dop;
    EXPECT_EQ(b.compare_ops, a.compare_ops) << "dop " << dop;
    EXPECT_EQ(b.predicate_evals, a.predicate_evals) << "dop " << dop;
    EXPECT_EQ(b.spill_pages, a.spill_pages) << "dop " << dop;
    EXPECT_EQ(b.spill_pages_reread, a.spill_pages_reread) << "dop " << dop;
  }

  // Runs `q` at DOP 1 and at each higher DOP; requires identical output
  // value streams (row order AND values — the byte-identity contract), the
  // same total work and, at DOP > 1, that a parallel phase actually ran.
  void CheckByteIdentical(const QuerySpec& q,
                          EngineOptions options = EngineOptions(),
                          bool expect_parallel_phase = true) {
    auto base = RunAtDop(q, 1, options);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const auto reference = Flatten(*base);
    EXPECT_EQ(base->counters.parallel_phases, 0);
    EXPECT_DOUBLE_EQ(base->elapsed, base->cost);
    for (int dop : {2, 4, 8}) {
      auto got = RunAtDop(q, dop, options);
      ASSERT_TRUE(got.ok()) << "dop " << dop << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->output_rows, base->output_rows) << "dop " << dop;
      EXPECT_EQ(Flatten(*got), reference) << "dop " << dop;
      ExpectSameWork(*base, *got, dop);
      if (expect_parallel_phase) {
        EXPECT_GT(got->counters.parallel_phases, 0) << "dop " << dop;
        EXPECT_GT(got->counters.morsels, 0) << "dop " << dop;
      }
    }
  }
};

TEST_F(ParallelFixture, FilteredScanByteIdentical) {
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 4000)});
  CheckByteIdentical(q);

  // Every morsel filters down to nothing: empty morsel outputs.
  QuerySpec empty;
  empty.tables.push_back({"fact", MakeBetween("measure", -10, -1)});
  CheckByteIdentical(empty);
}

TEST_F(ParallelFixture, StarJoinByteIdentical) {
  // Three dimension joins (unique build keys) with dimension filters.
  CheckByteIdentical(workload::StarQuery(3, {5000, 7000, 9000}));
}

TEST_F(ParallelFixture, GJoinRightScanStaysSerialForItsIndex) {
  // The index can stand in for a g-join's right child only when that child
  // is a TableScanOp of the whole table, so the builder keeps that scan
  // serial at DOP > 1: the g-join probes the index and does the same work
  // at every DOP.
  ASSERT_TRUE(catalog.BuildIndex("fact", "fk0").ok());
  int ids = 0;
  auto left = NewPlanNode(PlanOp::kTableScan, &ids);
  left->table = "dim0";
  left->predicate = MakeBetween("attr", 0, 20);
  auto right = NewPlanNode(PlanOp::kTableScan, &ids);
  right->table = "fact";
  auto join = NewPlanNode(PlanOp::kGJoin, &ids);
  join->left_key = "dim0.id";
  join->right_key = "fact.fk0";
  join->table = "fact";
  join->index_column = "fk0";
  join->children.push_back(std::move(left));
  join->children.push_back(std::move(right));
  ThreadPool pool(4);
  double serial_cost = 0;
  for (int dop : {1, 4}) {
    ParallelOptions par;
    par.num_threads = dop;
    par.pool = &pool;
    auto op = BuildExecutable(*join, &catalog, {}, &par);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    ExecContext ctx;
    ASSERT_TRUE(DrainOperator(op->get(), &ctx, nullptr).ok());
    auto* gjoin = dynamic_cast<GJoinOp*>(op->get());
    ASSERT_NE(gjoin, nullptr);
    EXPECT_EQ(gjoin->chosen_strategy(), "index") << "dop " << dop;
    if (dop == 1) serial_cost = ctx.cost();
    EXPECT_EQ(ctx.cost(), serial_cost) << "dop " << dop;
  }
}

TEST_F(ParallelFixture, StarJoinGroupByByteIdentical) {
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"dim0.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"},
                  {AggFn::kMin, "fact.measure", "min_m"},
                  {AggFn::kMax, "fact.measure", "max_m"}};
  CheckByteIdentical(q);
}

TEST_F(ParallelFixture, CompositeGroupByByteIdentical) {
  // Two dimension bands (51 × 71 values): the workers' and the merged
  // tables resolve the composite key through the direct-address directory.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"dim0.band", "dim1.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"},
                  {AggFn::kMin, "fact.measure", "min_m"},
                  {AggFn::kMax, "fact.measure", "max_m"}};
  CheckByteIdentical(q);
}

TEST_F(ParallelFixture, WideGroupByStaysHashedAndByteIdentical) {
  // fk0 × fk1 × measure spans ~10^10 key slots, far past the directory's
  // cap, so every lookup goes through the hashed table.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"fact.fk0", "fact.fk1", "fact.measure"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "dim2.attr", "sum_attr"},
                  {AggFn::kMin, "dim1.attr", "min_attr"},
                  {AggFn::kMax, "dim0.attr", "max_attr"}};
  CheckByteIdentical(q);
}

TEST_F(ParallelFixture, PrunedAggregateSegmentByteIdentical) {
  // Under the aggregate the fact scan emits fk0, fk1, fk2 and corr (source
  // column 4 at pipeline index 3) and each dimension only what is read:
  // workers must resolve the scan's projected columns, not table order.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"dim1.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.corr", "sum_corr"},
                  {AggFn::kMax, "dim2.attr", "max_attr"}};
  CheckByteIdentical(q);
}

TEST_F(ParallelFixture, PrunedRowSegmentUnderCheckByteIdentical) {
  // POP CHECKs break the spine, so the join under the lower CHECK runs as a
  // GatherOp without an aggregate. Its workers write whole pipeline rows in
  // the scan's pruned layout. Validity ranges of x1000 never fire.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"dim1.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.corr", "sum_corr"}};
  EngineOptions options;
  options.use_pop = true;
  options.optimizer.check_factor = 1000;
  auto planned = RunAtDop(q, 1, options);
  ASSERT_TRUE(planned.ok());
  EXPECT_NE(planned->first_plan.find("Check"), std::string::npos);
  EXPECT_EQ(planned->reoptimizations, 0);
  CheckByteIdentical(q, options);
}

TEST(ParallelWrapTest, SumsWrapInWorkerFoldsAndTheirMerge) {
  // Measures just below INT64_MAX: every group's SUM wraps in the workers'
  // op-major folds and again when their partials merge, and the answer at
  // DOP 1 and 4 must equal the oracle's wrapping sum.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Catalog catalog;
  Table* dim = catalog
                   .AddTable("d", Schema({{"id", LogicalType::kInt64, 0,
                                           nullptr},
                                          {"band", LogicalType::kInt64, 0,
                                           nullptr}}))
                   .value();
  for (int64_t i = 0; i < 100; ++i) dim->AppendRow({i, i / 10});
  Table* fact = catalog
                    .AddTable("f", Schema({{"fk", LogicalType::kInt64, 0,
                                            nullptr},
                                           {"v", LogicalType::kInt64, 0,
                                            nullptr}}))
                    .value();
  for (int64_t i = 0; i < 20000; ++i) fact->AppendRow({i % 100, kMax - i});
  QuerySpec grouped;
  grouped.tables = {{"f", nullptr}, {"d", nullptr}};
  grouped.joins = {{"f", "fk", "d", "id"}};
  grouped.group_by = {"d.band"};
  grouped.aggregates = {{AggFn::kCount, "", "cnt"},
                        {AggFn::kSum, "f.v", "sum_v"},
                        {AggFn::kMin, "f.v", "min_v"},
                        {AggFn::kMax, "f.v", "max_v"}};
  ref::CheckAgainstReference(&catalog, grouped);
  QuerySpec scalar = grouped;
  scalar.group_by.clear();
  ref::CheckAgainstReference(&catalog, scalar);

  EngineOptions options;
  options.num_threads = 4;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  auto got = engine.Run(grouped, /*keep_rows=*/false);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->counters.parallel_phases, 0);
}

TEST_F(ParallelFixture, DuplicateBuildKeysByteIdentical) {
  // dim0 ⋈ dim1 on band: every band holds ten dimension rows, so the build
  // keys repeat and each probe walks a chain of about ten matches. The
  // duplicate-key join is the fact join's build side and runs as a
  // parallel segment of its own.
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 3000)});
  q.tables.push_back({"dim0", MakeBetween("attr", 0, 4000)});
  q.tables.push_back({"dim1", MakeBetween("attr", 0, 2000)});
  q.joins.push_back({"fact", "fk0", "dim0", "id"});
  q.joins.push_back({"dim0", "band", "dim1", "band"});
  CheckByteIdentical(q);
}

TEST_F(ParallelFixture, ScalarAggregateByteIdentical) {
  // No group-by: the scalar-aggregate path (exactly one output row, even
  // over an empty input) must also be DOP-invariant.
  QuerySpec q = workload::StarQuery(2, {5000, 7000});
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"}};
  CheckByteIdentical(q);

  // Empty input (impossible dimension filter) still yields the init row.
  QuerySpec empty = workload::StarQuery(1, {5000});
  empty.tables[0].predicate = MakeBetween("measure", -10, -1);
  empty.aggregates = {{AggFn::kCount, "", "cnt"},
                      {AggFn::kMax, "fact.measure", "max_m"}};
  CheckByteIdentical(empty);
}

TEST_F(ParallelFixture, ByteIdenticalUnderMidQueryMemoryDrop) {
  // A fault-injected capacity shrink mid-query (1M -> 200 pages at cost
  // 100): the parallel phase observes the new ceiling at flush boundaries
  // and keeps running — output must not change at any DOP.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  EngineOptions options;
  options.spill_dir = SpillDir("fault-drop");
  options.faults.MemoryDrop(100, 200);
  CheckByteIdentical(q, options);
  auto dropped = RunAtDop(q, 4, options);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->faults.memory_drops, 1);  // the drop really fired
  fs::remove_all(options.spill_dir);
}

TEST_F(ParallelFixture, ByteIdenticalUnderCatastrophicMemoryDrop) {
  // A catastrophic early drop (to 4 pages before any build grant): the
  // gather operator cannot hold the build side resident, degrades to the
  // serial tree, and spills exactly as DOP 1 does — byte-identical output,
  // with real spill traffic at every DOP.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  EngineOptions options;
  options.spill_dir = SpillDir("fault-crash-drop");
  options.faults.MemoryDrop(5, 4);
  CheckByteIdentical(q, options, /*expect_parallel_phase=*/false);
  auto starved = RunAtDop(q, 4, options);
  ASSERT_TRUE(starved.ok());
  EXPECT_EQ(starved->faults.memory_drops, 1);
  EXPECT_GT(starved->counters.spill_pages, 0);
  fs::remove_all(options.spill_dir);
}

TEST_F(ParallelFixture, GroupByUnderMemoryDropShedsWorkerGroups) {
  // A 1-dim star join grouped on fact.measure: thousands of groups per
  // worker. The drop to 64 pages over-commits the broker mid-phase, so the
  // workers shed their partial-aggregate tables into the shared merged
  // table at morsel boundaries (GatherOp's revocation path). At DOP 1 the
  // same drop makes HashAggOp spill and emit in shed order, so answers are
  // compared as row multisets against the reference evaluator.
  QuerySpec q = workload::StarQuery(1, {5000});
  q.group_by = {"fact.measure"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "dim0.band", "sum_band"},
                  {AggFn::kMin, "dim0.attr", "min_attr"},
                  {AggFn::kMax, "dim0.attr", "max_attr"}};
  EngineOptions options;
  options.spill_dir = SpillDir("agg-drop");
  options.faults.MemoryDrop(100, 64);
  ref::CheckAgainstReference(&catalog, q, options);

  auto shed = RunAtDop(q, 4, options);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->faults.memory_drops, 1);
  EXPECT_GT(shed->counters.parallel_phases, 0);
  EXPECT_GT(shed->counters.memory_revocations, 0);
  fs::remove_all(options.spill_dir);
}

TEST_F(ParallelFixture, ByteIdenticalAtOnePageGrants) {
  // Starved broker: the build residency grant cannot be satisfied, so the
  // gather operator degrades to the serial tree and spills at 1-page
  // grants — output must still match DOP 1 exactly.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  EngineOptions options;
  options.spill_dir = SpillDir("one-page");
  options.memory_pages = 2;
  // Degraded execution runs the serial operators; no parallel phase.
  CheckByteIdentical(q, options, /*expect_parallel_phase=*/false);

  auto starved = RunAtDop(q, 4, options);
  ASSERT_TRUE(starved.ok());
  EXPECT_GT(starved->counters.spill_pages, 0);  // it really spilled
  fs::remove_all(options.spill_dir);
}

TEST_F(ParallelFixture, ElapsedModelShowsSpeedupAndRepeats) {
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  auto serial = RunAtDop(q, 1);
  auto par_a = RunAtDop(q, 4);
  auto par_b = RunAtDop(q, 4);
  ASSERT_TRUE(serial.ok() && par_a.ok() && par_b.ok());
  // Total work is exactly serial's (the clock charges every morsel's full
  // cost; only overlap reduces elapsed)...
  ExpectSameWork(*serial, *par_a, 4);
  // ...while elapsed drops by at least 2x at DOP 4 on this workload.
  EXPECT_LT(par_a->elapsed, serial->elapsed / 2);
  EXPECT_GT(par_a->counters.parallel_saved_units, 0);
  // Deterministic: repeat runs agree to the bit, threads notwithstanding.
  EXPECT_EQ(par_a->cost, par_b->cost);
  EXPECT_EQ(par_a->elapsed, par_b->elapsed);
  EXPECT_EQ(par_a->counters.morsels, par_b->counters.morsels);
  EXPECT_EQ(Flatten(*par_a), Flatten(*par_b));
}

TEST_F(ParallelFixture, GuardrailBudgetTripsUnderParallelExecution) {
  // The cost budget is enforced from worker flushes: a parallel run must
  // still abort (and the safe-retry machinery still engage) when the clock
  // blows the budget mid-phase.
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  EngineOptions options;
  options.guardrails.enabled = true;
  options.guardrails.cost_budget = 50;  // far below the query's real cost
  options.guardrails.safe_plan_retry = false;
  options.guardrails.max_recoveries = 0;
  options.num_threads = 4;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  auto result = engine.Run(q);
  // Circuit breaker at 0 recoveries: the query completes unguarded after
  // the abort; the trip itself must have been recorded.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->budget_aborts, 0);
}

}  // namespace
}  // namespace rqp
