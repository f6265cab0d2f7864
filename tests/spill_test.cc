// Real-spill subsystem tests: graceful degradation of the hybrid hash join,
// external merge sort, and spillable aggregation across the whole memory
// range, plus SpillManager accounting and cleanup guarantees. Runs under the
// `spill` ctest label; RQP_TEST_MEMORY_PAGES overrides the default broker
// capacity used by the accounting tests so CI can pin a starved
// configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "engine/engine.h"
#include "exec/join_ops.h"
#include "exec/parallel_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "exec/thread_pool.h"
#include "expr/expr.h"
#include "shard/exchange.h"
#include "storage/data_generator.h"
#include "storage/spill.h"
#include "util/rng.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

int64_t TestMemoryPages(int64_t fallback) {
  if (const char* env = std::getenv("RQP_TEST_MEMORY_PAGES");
      env != nullptr && env[0] != '\0') {
    return std::max<int64_t>(1, std::atoll(env));
  }
  return fallback;
}

/// Per-test spill root so parallel test binaries never collide.
std::string TestSpillDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("rqp-spill-test-" + std::to_string(getpid()) + "-" + tag))
      .string();
}

/// r(id, v): id = 0..n-1, v = id*2. s(fk, w): fk uniform in [0, keys).
struct JoinFixture {
  std::unique_ptr<Table> r, s;

  JoinFixture(int64_t r_rows, int64_t s_rows, int64_t key_domain,
              uint64_t seed = 11) {
    r = std::make_unique<Table>(
        "r", Schema({{"id", LogicalType::kInt64, 0, nullptr},
                     {"v", LogicalType::kInt64, 0, nullptr}}));
    auto ids = gen::Sequential(r_rows);
    std::vector<int64_t> v(ids.size());
    for (size_t i = 0; i < v.size(); ++i) v[i] = ids[i] * 2;
    r->SetColumnData(0, std::move(ids));
    r->SetColumnData(1, std::move(v));

    s = std::make_unique<Table>(
        "s", Schema({{"fk", LogicalType::kInt64, 0, nullptr},
                     {"w", LogicalType::kInt64, 0, nullptr}}));
    Rng rng(seed);
    auto fk = gen::Uniform(&rng, s_rows, 0, key_domain - 1);
    std::vector<int64_t> w(fk.begin(), fk.end());
    s->SetColumnData(0, std::move(fk));
    s->SetColumnData(1, std::move(w));
  }

  OperatorPtr ScanR() const { return std::make_unique<TableScanOp>(r.get()); }
  OperatorPtr ScanS() const { return std::make_unique<TableScanOp>(s.get()); }
};

std::map<std::pair<int64_t, int64_t>, int64_t> JoinMultiset(
    const std::vector<RowBatch>& batches, size_t key_slot, size_t v_slot) {
  std::map<std::pair<int64_t, int64_t>, int64_t> got;
  for (const auto& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      got[{b.row(r)[key_slot], b.row(r)[v_slot]}]++;
    }
  }
  return got;
}

// ---- SpillFile / SpillManager unit tests -----------------------------------

TEST(SpillFileTest, FractionalFinalPageIsCharged) {
  const std::string dir = TestSpillDir("frac");
  int64_t charged_w = 0, charged_r = 0;
  {
    SpillManager mgr(dir, "frac", [&](int64_t w, int64_t r) {
      charged_w += w;
      charged_r += r;
    });
    auto file = mgr.Create(3);
    ASSERT_TRUE(file.ok());
    const int64_t n = kRowsPerPage + 5;  // one full page + a 5-row remainder
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row[3] = {i, i * 10, i * 100};
      ASSERT_TRUE((*file)->AppendRow(row).ok());
    }
    EXPECT_EQ(charged_w, 1);  // only the full page has hit the disk so far
    ASSERT_TRUE((*file)->FinishWrite().ok());
    EXPECT_EQ(charged_w, 2);  // the sub-page remainder is charged, not dropped
    EXPECT_EQ((*file)->pages_written(), 2);
    EXPECT_EQ((*file)->rows_written(), n);
    EXPECT_EQ(mgr.stats().pages_written, 2);
    EXPECT_EQ(mgr.stats().bytes_written,
              static_cast<int64_t>(n * 3 * sizeof(int64_t)));

    // Read back: identical rows, and every pass over the file pays again.
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE((*file)->Rewind().ok());
      int64_t seen = 0;
      while (true) {
        RowBatch batch;
        ASSERT_TRUE((*file)->ReadBatch(&batch).ok());
        if (batch.empty()) break;
        for (size_t i = 0; i < batch.num_rows(); ++i) {
          EXPECT_EQ(batch.row(i)[0], seen);
          EXPECT_EQ(batch.row(i)[1], seen * 10);
          EXPECT_EQ(batch.row(i)[2], seen * 100);
          ++seen;
        }
      }
      EXPECT_EQ(seen, n);
      EXPECT_EQ(charged_r, 2 * (pass + 1));
    }
    EXPECT_EQ(mgr.stats().pages_reread, 4);
    EXPECT_EQ(mgr.LiveFilesOnDisk(), 1);
  }
  // Manager destruction removed the whole query directory.
  EXPECT_FALSE(fs::exists(dir + "/frac"));
  fs::remove_all(dir);
}

TEST(SpillManagerTest, DeterministicNamingFromQueryId) {
  const std::string dir = TestSpillDir("naming");
  SpillManager mgr(dir, "q7-a2", nullptr);
  EXPECT_EQ(mgr.directory(), dir + "/q7-a2");
  auto f0 = mgr.Create(1);
  auto f1 = mgr.Create(1);
  ASSERT_TRUE(f0.ok() && f1.ok());
  EXPECT_EQ((*f0)->path(), dir + "/q7-a2/spill-0.bin");
  EXPECT_EQ((*f1)->path(), dir + "/q7-a2/spill-1.bin");
  fs::remove_all(dir);
}

// ---- capacity sweep: graceful degradation ----------------------------------

// Acceptance sweep: at every memory grant from one page to "everything fits"
// the operator completes, produces identical results, and the cost curve is
// monotone without cliffs (no adjacent sweep point more than 2x worse).
void CheckCurve(const std::vector<double>& costs) {
  for (size_t i = 0; i + 1 < costs.size(); ++i) {
    // More memory never hurts (small slack for partition-boundary jitter).
    EXPECT_LE(costs[i + 1], costs[i] * 1.02)
        << "cost increased between sweep points " << i << " and " << i + 1;
    // No cliff: halving memory costs at most 2x.
    EXPECT_LE(costs[i], costs[i + 1] * 2.0)
        << "cliff between sweep points " << i << " and " << i + 1;
  }
}

TEST(SpillSweepTest, HashJoinDegradesGracefully) {
  const std::string dir = TestSpillDir("join-sweep");
  JoinFixture f(20000, 20000, 20000);
  // Strictly doubling sweep: the no-cliff bound (adjacent ratio <= 2x) is a
  // statement about halving memory, so the grants must not jump further.
  const std::vector<int64_t> grants = {1,   2,   4,   8,    16,  32,
                                       64,  128, 256, 512,  1024, 1 << 20};
  std::map<std::pair<int64_t, int64_t>, int64_t> reference;
  std::vector<double> costs;
  for (size_t gi = 0; gi < grants.size(); ++gi) {
    MemoryBroker broker(grants[gi]);
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    ctx.set_query_id("join-g" + std::to_string(grants[gi]));
    HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&join, &ctx, &out).ok())
        << "grant " << grants[gi];
    auto got = JoinMultiset(out, 0, 3);
    if (gi == 0) {
      reference = std::move(got);
    } else {
      EXPECT_EQ(got, reference) << "result differs at grant " << grants[gi];
    }
    EXPECT_EQ(broker.used(), 0) << "leaked grant at " << grants[gi];
    costs.push_back(ctx.cost());
  }
  // The starved end actually spilled; the rich end did not.
  EXPECT_GT(costs.front(), costs.back());
  CheckCurve(costs);
  fs::remove_all(dir);
}

TEST(SpillSweepTest, ExternalSortByteIdenticalAcrossGrants) {
  const std::string dir = TestSpillDir("sort-sweep");
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(17);
  t->SetColumnData(0, gen::Permutation(&rng, 50000));
  const std::vector<int64_t> grants = {1,  2,  4,   8,    16,
                                       32, 64, 256, 1024, 1 << 20};
  std::vector<int64_t> reference;
  std::vector<double> costs;
  for (size_t gi = 0; gi < grants.size(); ++gi) {
    MemoryBroker broker(grants[gi]);
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    ctx.set_query_id("sort-g" + std::to_string(grants[gi]));
    SortOp sort(std::make_unique<TableScanOp>(t.get()), "t.a");
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&sort, &ctx, &out).ok())
        << "grant " << grants[gi];
    std::vector<int64_t> values;
    values.reserve(50000);
    for (const auto& b : out) {
      for (size_t r = 0; r < b.num_rows(); ++r) values.push_back(b.row(r)[0]);
    }
    if (gi == 0) {
      reference = std::move(values);
      ASSERT_EQ(reference.size(), 50000u);
    } else {
      // Byte-identical output at every grant, external or not.
      EXPECT_EQ(values, reference) << "order differs at grant " << grants[gi];
    }
    if (grants[gi] >= (1 << 20)) {
      EXPECT_EQ(sort.external_passes(), 0);
    }
    EXPECT_EQ(broker.used(), 0) << "leaked grant at " << grants[gi];
    costs.push_back(ctx.cost());
  }
  EXPECT_GT(costs.front(), costs.back());
  CheckCurve(costs);
  fs::remove_all(dir);
}

TEST(SpillSweepTest, AggregationMatchesInMemoryUnderPressure) {
  const std::string dir = TestSpillDir("agg");
  auto t = std::make_unique<Table>(
      "t", Schema({{"g", LogicalType::kInt64, 0, nullptr},
                   {"x", LogicalType::kInt64, 0, nullptr}}));
  const int64_t n = 20000, groups = 997;
  std::vector<int64_t> g(n), x(n);
  for (int64_t i = 0; i < n; ++i) {
    g[i] = i % groups;
    x[i] = i;
  }
  t->SetColumnData(0, std::move(g));
  t->SetColumnData(1, std::move(x));
  const std::vector<AggSpec> aggs = {{AggFn::kCount, "", "cnt"},
                                     {AggFn::kSum, "t.x", "sum_x"},
                                     {AggFn::kMin, "t.x", "min_x"},
                                     {AggFn::kMax, "t.x", "max_x"}};

  auto run = [&](int64_t pages, ExecCounters* counters) {
    MemoryBroker broker(pages);
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    ctx.set_query_id("agg-g" + std::to_string(pages));
    HashAggOp agg(std::make_unique<TableScanOp>(t.get()), {"t.g"}, aggs);
    std::vector<RowBatch> out;
    EXPECT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
    EXPECT_EQ(broker.used(), 0);
    if (counters != nullptr) *counters = ctx.counters();
    std::map<int64_t, std::vector<int64_t>> result;
    for (const auto& b : out) {
      for (size_t r = 0; r < b.num_rows(); ++r) {
        const int64_t* row = b.row(r);
        result[row[0]] = {row[1], row[2], row[3], row[4]};
      }
    }
    return result;
  };

  const auto rich = run(1 << 20, nullptr);
  ASSERT_EQ(rich.size(), static_cast<size_t>(groups));
  ExecCounters poor_counters;
  const auto poor = run(2, &poor_counters);
  // Spilled re-aggregation reaches the same groups and aggregates.
  EXPECT_EQ(poor, rich);
  EXPECT_GT(poor_counters.spill_pages, 0);
  EXPECT_GT(poor_counters.spill_partitions, 0);
  fs::remove_all(dir);
}

TEST(SpillSweepTest, AggregationSumsWrapUnderPressure) {
  // Values just below INT64_MAX: the in-memory fold, the op-major flush of
  // spilled partial rows and their re-aggregation all add with wraparound,
  // so a 2-page grant returns the sums computed here.
  const std::string dir = TestSpillDir("agg-wrap");
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto t = std::make_unique<Table>(
      "t", Schema({{"g", LogicalType::kInt64, 0, nullptr},
                   {"x", LogicalType::kInt64, 0, nullptr}}));
  const int64_t n = 20000, groups = 997;
  std::vector<int64_t> g(n), x(n);
  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < n; ++i) {
    g[i] = i % groups;
    x[i] = kMax - i;
    want[g[i]] = WrapAdd(want[g[i]], x[i]);
  }
  t->SetColumnData(0, std::move(g));
  t->SetColumnData(1, std::move(x));
  for (const int64_t pages : {int64_t{1} << 20, int64_t{2}}) {
    MemoryBroker broker(pages);
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    HashAggOp agg(std::make_unique<TableScanOp>(t.get()), {"t.g"},
                  {{AggFn::kSum, "t.x", "sum_x"}});
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
    std::map<int64_t, int64_t> got;
    for (const auto& b : out) {
      for (size_t r = 0; r < b.num_rows(); ++r) got[b.row(r)[0]] = b.row(r)[1];
    }
    EXPECT_EQ(got, want) << pages << " pages";
    if (pages == 2) {
      EXPECT_GT(ctx.counters().spill_pages, 0);
    }
  }
  fs::remove_all(dir);
}

// ---- accounting reconciliation ---------------------------------------------

TEST(SpillAccountingTest, CountersReconcileWithManagerStats) {
  const std::string dir = TestSpillDir("reconcile");
  JoinFixture f(20000, 20000, 20000);
  MemoryBroker broker(TestMemoryPages(8));
  ExecContext ctx(&broker);
  ctx.set_spill_dir(dir);
  ctx.set_query_id("reconcile");
  HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  ASSERT_TRUE(DrainOperator(&join, &ctx, nullptr).ok());
  ASSERT_TRUE(ctx.has_spill());
  // Every page the SpillManager saw is on the cost clock, and vice versa:
  // the two ledgers are reconciled by construction.
  EXPECT_EQ(ctx.counters().spill_pages, ctx.spill()->stats().pages_written);
  EXPECT_EQ(ctx.counters().spill_pages_reread,
            ctx.spill()->stats().pages_reread);
  EXPECT_GT(ctx.counters().spill_pages, 0);
  EXPECT_GT(ctx.counters().spill_partitions, 0);
  EXPECT_GT(join.spill_fraction(), 0.0);
  fs::remove_all(dir);
}

// ---- cancellation / abort cleanup ------------------------------------------

TEST(SpillCleanupTest, CostBudgetAbortLeavesNoFilesBehind) {
  const std::string dir = TestSpillDir("abort");
  JoinFixture f(20000, 20000, 20000);
  std::string query_dir;
  {
    MemoryBroker broker(4);
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    ctx.set_query_id("abort");
    ctx.set_cost_budget(200);  // trips while the build side is spilling
    HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
    auto drained = DrainOperator(&join, &ctx, nullptr);
    ASSERT_FALSE(drained.ok());
    ASSERT_TRUE(ctx.has_trip());
    ASSERT_TRUE(ctx.has_spill());  // the abort happened mid-spill
    EXPECT_GT(ctx.spill()->stats().files_created, 0);
    EXPECT_GT(ctx.spill()->LiveFilesOnDisk(), 0);
    query_dir = ctx.spill()->directory();
    EXPECT_TRUE(fs::exists(query_dir));
  }
  // Context destruction — the abort path — removed every temp file.
  EXPECT_FALSE(fs::exists(query_dir));
  fs::remove_all(dir);
}

// ---- memory grants and revocation ------------------------------------------

TEST(MemoryGrantTest, GrowKeepsTheFloorWhenOvercommitted) {
  MemoryBroker broker(8);
  MemoryGrant held(&broker);
  EXPECT_EQ(held.Grow(8), 8);
  EXPECT_EQ(broker.deficit(), 0);
  // Grants never go below the 1-page progress minimum, even over-committed.
  MemoryGrant floor(&broker);
  EXPECT_EQ(floor.Grow(4), 1);
  EXPECT_EQ(floor.Grow(4), 1);
  EXPECT_EQ(floor.pages(), 2);
  EXPECT_EQ(broker.used(), 10);
  EXPECT_EQ(broker.deficit(), 2);
  EXPECT_EQ(broker.peak_used(), 10);
}

TEST(MemoryGrantTest, TryGrowIsAllOrNothing) {
  MemoryBroker broker(10);
  MemoryGrant a(&broker), b(&broker);
  EXPECT_TRUE(a.TryGrow(6));
  EXPECT_FALSE(b.TryGrow(5));  // only 4 fit: takes nothing
  EXPECT_EQ(b.pages(), 0);
  EXPECT_EQ(broker.used(), 6);
  EXPECT_TRUE(b.TryGrow(4));
  EXPECT_FALSE(b.TryGrow(1));  // no progress floor
  EXPECT_EQ(broker.used(), 10);
  // No over-commit: an over-committed broker refuses every TryGrow.
  broker.set_capacity(5);
  EXPECT_FALSE(a.TryGrow(1));
  EXPECT_EQ(broker.used(), 10);
}

TEST(MemoryGrantTest, ShrinkClearMoveAndDestructionReturnPages) {
  MemoryBroker broker(100);
  {
    MemoryGrant g(&broker);
    g.Grow(30);
    g.Shrink(10);
    EXPECT_EQ(g.pages(), 20);
    EXPECT_EQ(broker.used(), 20);
    g.Shrink(50);  // returns what it holds, never more
    EXPECT_EQ(g.pages(), 0);
    EXPECT_EQ(broker.used(), 0);
    g.Grow(7);
    g.Clear();
    EXPECT_EQ(broker.used(), 0);

    // Pages follow a move; a move-assignment first returns the target's own.
    g.Grow(12);
    MemoryGrant moved(std::move(g));
    EXPECT_EQ(moved.pages(), 12);
    MemoryGrant other(&broker);
    other.Grow(3);
    EXPECT_EQ(broker.used(), 15);
    other = std::move(moved);
    EXPECT_EQ(other.pages(), 12);
    EXPECT_EQ(broker.used(), 12);
    MemoryGrant survivor(&broker);
    survivor.Grow(5);
  }
  // Destruction returned every page.
  EXPECT_EQ(broker.used(), 0);
}

TEST(MemoryGrantTest, DeficitIsTheOvercommitAfterAShrink) {
  MemoryBroker broker(16);
  MemoryGrant g(&broker);
  g.Grow(16);
  EXPECT_EQ(broker.deficit(), 0);
  broker.set_capacity(10);
  EXPECT_EQ(broker.deficit(), 6);
  g.Shrink(4);
  EXPECT_EQ(broker.deficit(), 2);
  broker.set_capacity(-1);  // clamps to zero
  EXPECT_EQ(broker.deficit(), 12);
  g.Clear();
  EXPECT_EQ(broker.deficit(), 0);
}

TEST(MemoryGrantTest, BrokerDestroyedFirstDetachesLiveGrants) {
  // Declared before the broker, so they outlive it — the shape of an
  // operator tree destroyed after its stack-scoped ExecContext.
  MemoryGrant live[3];
  MemoryGrant emptied;
  {
    MemoryBroker broker(64);
    for (int i = 0; i < 3; ++i) {
      live[i] = MemoryGrant(&broker);
      live[i].Grow(i + 1);
    }
    emptied = MemoryGrant(&broker);
    emptied.Grow(4);
    emptied.Clear();
    live[1].Clear();
    live[1].Grow(2);
    EXPECT_EQ(broker.used(), 1 + 2 + 3);
  }
  // Detached: each holds nothing from no broker, and clearing or growing it
  // touches no freed memory (the sanitizer builds check this).
  for (MemoryGrant& g : live) {
    EXPECT_EQ(g.pages(), 0);
    g.Clear();
    EXPECT_EQ(g.Grow(1), 0);
    EXPECT_FALSE(g.TryGrow(1));
  }
  EXPECT_EQ(emptied.pages(), 0);
}

TEST(MemoryRevocationTest, SortShedsAtPhaseBoundaryOnCapacityShrink) {
  const std::string dir = TestSpillDir("revoke-sort");
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(23);
  t->SetColumnData(0, gen::Permutation(&rng, 50000));
  MemoryBroker broker(1 << 20);
  ExecContext ctx(&broker);
  ctx.set_spill_dir(dir);
  ctx.set_query_id("revoke-sort");
  // Mid-scan the capacity collapses to 4 pages: the sort must shed its
  // buffered pages at the next batch boundary and go external.
  ctx.SetMemorySchedule({{200, 4}});
  SortOp sort(std::make_unique<TableScanOp>(t.get()), "t.a");
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&sort, &ctx, &out).ok());
  int64_t expected = 0;
  for (const auto& b : out) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      EXPECT_EQ(b.row(r)[0], expected++);
    }
  }
  EXPECT_EQ(expected, 50000);
  EXPECT_GT(ctx.counters().memory_revocations, 0);
  EXPECT_GT(sort.external_passes(), 0);
  EXPECT_GT(ctx.counters().spill_pages, 0);
  EXPECT_EQ(broker.used(), 0);  // everything released on Close
  fs::remove_all(dir);
}

TEST(MemoryRevocationTest, HashJoinShedsMidBuildOnCapacityShrink) {
  const std::string dir = TestSpillDir("revoke-join");
  JoinFixture f(20000, 20000, 20000);
  MemoryBroker broker(1 << 20);
  ExecContext ctx(&broker);
  ctx.set_spill_dir(dir);
  ctx.set_query_id("revoke-join");
  ctx.SetMemorySchedule({{200, 8}});
  HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&join, &ctx, &out).ok());
  // Reference run with stable ample memory.
  MemoryBroker rich_broker(1 << 20);
  ExecContext rich_ctx(&rich_broker);
  HashJoinOp rich_join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  std::vector<RowBatch> rich_out;
  ASSERT_TRUE(DrainOperator(&rich_join, &rich_ctx, &rich_out).ok());
  EXPECT_EQ(JoinMultiset(out, 0, 3), JoinMultiset(rich_out, 0, 3));
  EXPECT_GT(ctx.counters().memory_revocations, 0);
  EXPECT_GT(ctx.counters().spill_pages, 0);
  EXPECT_GT(join.spill_fraction(), 0.0);
  EXPECT_EQ(broker.used(), 0);
  fs::remove_all(dir);
}

// A fault-schedule memory drop mid-build must trigger *real* partition
// spilling — non-zero pages actually written, reread, and revocations
// honored, all surfaced through QueryResult — not just cost-unit charges.
TEST(MemoryRevocationTest, FaultMemoryDropMidBuildSpillsForReal) {
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = 50000;
  spec.dim_rows = 2000;
  spec.num_dimensions = 1;
  BuildStarSchema(&catalog, spec);
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.tables.push_back({"dim0", nullptr});
  q.joins.push_back({"fact", "fk0", "dim0", "id"});

  EngineOptions plain;
  // This test asserts on the *serial* mid-build revocation protocol
  // (memory_revocations > 0 requires HashJoinOp shedding partitions); pin
  // DOP 1 so the TSan job's RQP_THREADS=4 doesn't reroute the query
  // through the gather operator.
  plain.num_threads = 1;
  Engine baseline(&catalog, plain);
  baseline.AnalyzeAll();
  auto base = baseline.Run(q);
  ASSERT_TRUE(base.ok());

  EngineOptions faulted;
  faulted.num_threads = 1;
  // Lands inside the join's build phase (the dim0 scan spans ~0-70 cost
  // units), after the first batch's partitions are resident — so the drop
  // must be honored by shedding, not absorbed by the grow path.
  faulted.faults.MemoryDrop(50, 4);
  Engine engine(&catalog, faulted);
  engine.AnalyzeAll();
  auto result = engine.Run(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->output_rows, base->output_rows);
  EXPECT_EQ(result->faults.memory_drops, 1);
  EXPECT_GT(result->counters.spill_pages, base->counters.spill_pages);
  EXPECT_GT(result->counters.spill_pages, 0);
  EXPECT_GT(result->counters.spill_pages_reread, 0);
  EXPECT_GT(result->counters.spill_partitions, 0);
  EXPECT_GT(result->counters.memory_revocations, 0) << result->final_plan;
  EXPECT_GT(result->cost, base->cost);
}

// ---- every broker page comes back ------------------------------------------
// Each grant holder drains to completion and then again under a cost budget
// that aborts it halfway, on one broker. Every page must come back: right
// after the successful drain, and once the aborted tree is destroyed (an
// error unwinds without Close()).

/// Returns the successful drain's counters.
ExecCounters ExpectEveryPageComesBack(
    int64_t capacity, const std::function<OperatorPtr()>& make,
    const std::string& tag,
    const std::function<void(ExecContext*)>& setup = nullptr) {
  const std::string dir = TestSpillDir(tag);
  MemoryBroker broker(capacity);
  ExecCounters counters;
  {
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    if (setup) setup(&ctx);
    OperatorPtr op = make();
    auto drained = DrainOperator(op.get(), &ctx, nullptr);
    EXPECT_TRUE(drained.ok()) << tag << ": " << drained.status().ToString();
    EXPECT_EQ(broker.used(), 0) << tag << ": after a successful drain";
    counters = ctx.counters();
  }
  {
    broker.set_capacity(capacity);  // undo any scheduled drop
    ExecContext ctx(&broker);
    ctx.set_spill_dir(dir);
    if (setup) setup(&ctx);
    ctx.set_cost_budget(counters.cost_units / 2);
    OperatorPtr op = make();
    EXPECT_FALSE(DrainOperator(op.get(), &ctx, nullptr).ok()) << tag;
    EXPECT_TRUE(ctx.has_trip()) << tag;
    op.reset();
    EXPECT_EQ(broker.used(), 0) << tag << ": after a budget-aborted drain";
  }
  fs::remove_all(dir);
  return counters;
}

TEST(EveryPageComesBackTest, HashJoinThroughRecursionAndChunkedFallback) {
  JoinFixture f(20000, 20000, 20000);
  const ExecCounters c = ExpectEveryPageComesBack(
      4,
      [&] {
        return std::make_unique<HashJoinOp>(f.ScanS(), f.ScanR(), "s.fk",
                                            "r.id");
      },
      "pages-join");
  // Levels 1 to 3 re-partitioned and level 4 ran the chunked fallback.
  EXPECT_EQ(c.spill_recursion_depth, HashJoinOp::kMaxRecursion);
}

TEST(EveryPageComesBackTest, ExternalSortStaticAndDynamic) {
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(29);
  t->SetColumnData(0, gen::Permutation(&rng, 50000));
  for (const bool dynamic : {false, true}) {
    SortOp::Options opts;
    opts.dynamic_memory = dynamic;
    const ExecCounters c = ExpectEveryPageComesBack(
        4,
        [&] {
          return std::make_unique<SortOp>(
              std::make_unique<TableScanOp>(t.get()), "t.a", opts);
        },
        dynamic ? "pages-sort-dynamic" : "pages-sort-static");
    EXPECT_GT(c.spill_pages, 0) << (dynamic ? "dynamic" : "static");
  }
}

TEST(EveryPageComesBackTest, SpillingHashAggregate) {
  JoinFixture f(10, 20000, 5000);
  const ExecCounters c = ExpectEveryPageComesBack(
      2,
      [&] {
        return std::make_unique<HashAggOp>(
            f.ScanS(), std::vector<std::string>{"s.fk"},
            std::vector<AggSpec>{{AggFn::kCount, "", "cnt"},
                                 {AggFn::kSum, "s.w", "sum_w"}});
      },
      "pages-agg");
  EXPECT_GT(c.spill_partitions, 0);
}

TEST(EveryPageComesBackTest, GatherAggregationUnderMidPhaseDrop) {
  // DOP 4: each worker's group table and the merged table hold grants; the
  // drop over-commits the broker mid-phase so the workers shed theirs.
  JoinFixture f(2000, 50000, 2000);
  ThreadPool pool(4);
  ParallelOptions par;
  par.num_threads = 4;
  par.pool = &pool;
  const std::vector<std::string> groups = {"s.w"};
  const std::vector<AggSpec> aggs = {{AggFn::kCount, "", "cnt"},
                                     {AggFn::kSum, "r.v", "sum_v"}};
  const ExecCounters c = ExpectEveryPageComesBack(
      1 << 20,
      [&] {
        auto scan = std::make_unique<TableScanOp>(f.s.get());
        const TableScanOp* s = scan.get();
        auto join = std::make_unique<HashJoinOp>(std::move(scan), f.ScanR(),
                                                 "s.fk", "r.id");
        HashJoinOp* j = join.get();
        auto serial = std::make_unique<HashAggOp>(std::move(join), groups, aggs);
        return std::make_unique<GatherOp>(std::move(serial),
                                          std::vector<HashJoinOp*>{j}, s,
                                          GatherOp::AggStage{groups, aggs}, par);
      },
      "pages-gather",
      [](ExecContext* ctx) { ctx->SetMemorySchedule({{600, 16}}); });
  EXPECT_GT(c.parallel_phases, 0);
  EXPECT_GT(c.memory_revocations, 0);
}

TEST(EveryPageComesBackTest, GJoinStrategies) {
  JoinFixture f(1000, 50000, 1000);
  auto r_index = std::make_unique<SortedIndex>("r.id", 0);
  r_index->Build(*f.r);
  // Hash: the build pages are held through the probe loop.
  ExpectEveryPageComesBack(
      1 << 20,
      [&] { return std::make_unique<GJoinOp>(f.ScanS(), f.ScanR(), "s.fk",
                                             "r.id"); },
      "pages-gjoin-hash");
  // Index probes for a tiny outer.
  ExpectEveryPageComesBack(
      1 << 20,
      [&] {
        return std::make_unique<GJoinOp>(
            std::make_unique<TableScanOp>(f.s.get(),
                                          MakeCmp("w", CmpOp::kLt, 200)),
            f.ScanR(), "s.fk", "r.id", r_index.get());
      },
      "pages-gjoin-index");
}

TEST(EveryPageComesBackTest, ExchangeChannelStaging) {
  JoinFixture f(10, 20000, 20000);
  MemoryBroker broker(1 << 20);
  const RouteFn route = [](int64_t key) { return static_cast<int>(key % 4); };
  double full_cost = 0;
  for (const bool abort : {false, true}) {
    ExecContext ctx(&broker);
    if (abort) ctx.set_cost_budget(full_cost / 2);
    ExchangeBuffers buffers(4, 2);
    auto channel = std::make_unique<ExchangeChannel>(&buffers, &ctx,
                                                     /*queue_pages=*/1 << 20);
    auto op = std::make_unique<ShuffleExchangeOp>(f.ScanS(), 0, 0, route,
                                                  channel.get());
    const bool ok = DrainOperator(op.get(), &ctx, nullptr).ok();
    EXPECT_EQ(ok, !abort);
    if (abort) {
      EXPECT_GT(broker.used(), 0);  // staged rows still held
    }
    op.reset();
    channel.reset();
    EXPECT_EQ(broker.used(), 0) << (abort ? "aborted" : "drained");
    full_cost = ctx.cost();
  }
}

TEST(EveryPageComesBackTest, ResultCache) {
  Catalog catalog;
  Table* t = catalog
                 .AddTable("t", Schema({{"a", LogicalType::kInt64, 0,
                                          nullptr}}))
                 .value();
  t->SetColumnData(0, gen::Sequential(1000));
  QuerySpec spec;
  spec.tables.push_back({"t", nullptr});
  std::vector<RowBatch> rows;
  RowBatch batch(1);
  for (int64_t i = 0; i < 100; ++i) batch.AppendRow(&i);
  rows.push_back(batch);

  MemoryBroker broker(1 << 20);
  auto cache = std::make_unique<ResultCache>(&broker);
  for (const char* key : {"k1", "k2", "k3"}) {
    cache->Insert(key, spec, catalog, ResultCache::TakeSnapshot(spec, catalog),
                  {"t.a"}, rows, 100);
  }
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_EQ(broker.used(), 3 * ResultCache::PagesFor(100));
  // A capacity drop: the owner of the broker reads the deficit and the cache
  // sheds LRU entries to cover it.
  broker.set_capacity(ResultCache::PagesFor(100));
  EXPECT_EQ(cache->ShedPages(broker.deficit()), 2 * ResultCache::PagesFor(100));
  EXPECT_EQ(broker.deficit(), 0);
  EXPECT_EQ(cache->stats().evictions, 2);
  EXPECT_EQ(broker.used(), cache->total_pages());
  // Destroying the cache returns the rest.
  cache.reset();
  EXPECT_EQ(broker.used(), 0);

  // Through the engine: after a run whose first attempt a cost budget
  // aborted (the trip downgrades to an unguarded re-run), the broker holds
  // exactly the cache's pages; clearing the cache returns them all.
  EngineOptions options;
  options.use_result_cache = 1;
  options.num_threads = 1;
  options.guardrails.enabled = true;
  options.guardrails.cost_budget = 1;
  options.guardrails.safe_plan_retry = false;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  QuerySpec grouped = spec;
  grouped.group_by = {"t.a"};
  grouped.aggregates = {{AggFn::kCount, "", "cnt"}};
  auto run = engine.Run(grouped);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->budget_aborts, 1);
  EXPECT_GT(engine.result_cache()->total_pages(), 0);
  EXPECT_EQ(engine.memory()->used(), engine.result_cache()->total_pages());
  engine.result_cache()->Clear();
  EXPECT_EQ(engine.memory()->used(), 0);
}

// Two engines sharing one spill base directory (the $RQP_SPILL_DIR
// deployment shape) must never collide: each engine carries a
// process/instance-unique tag in its spill query ids, so concurrent
// queries — even with identical query sequence numbers — spill into
// distinct directories.
TEST(SpillIsolationTest, TwoEnginesShareSpillDirWithoutCollision) {
  const std::string dir = TestSpillDir("shared");
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = 30000;
  spec.dim_rows = 2000;
  spec.num_dimensions = 1;
  BuildStarSchema(&catalog, spec);
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.tables.push_back({"dim0", nullptr});
  q.joins.push_back({"fact", "fk0", "dim0", "id"});

  EngineOptions options;
  options.spill_dir = dir;     // both engines share the same base dir
  options.memory_pages = 4;    // starved: every run spills
  options.num_threads = 1;
  Engine a(&catalog, options);
  Engine b(&catalog, options);
  a.AnalyzeAll();
  b.AnalyzeAll();

  // Baseline row count from an unshared, well-fed run.
  EngineOptions rich;
  rich.num_threads = 1;
  Engine ref_engine(&catalog, rich);
  ref_engine.AnalyzeAll();
  auto ref = ref_engine.Run(q);
  ASSERT_TRUE(ref.ok());

  StatusOr<QueryResult> ra = Status::Internal("unset"),
                        rb = Status::Internal("unset");
  std::thread ta([&] { ra = a.Run(q); });
  std::thread tb([&] { rb = b.Run(q); });
  ta.join();
  tb.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  // Both spilled into the shared directory, and neither clobbered the
  // other's files: results are complete and correct.
  EXPECT_GT(ra->counters.spill_pages, 0);
  EXPECT_GT(rb->counters.spill_pages, 0);
  EXPECT_EQ(ra->output_rows, ref->output_rows);
  EXPECT_EQ(rb->output_rows, ref->output_rows);
  // All per-query spill directories are cleaned up afterwards.
  EXPECT_TRUE(!fs::exists(dir) || fs::is_empty(dir));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rqp
