#include "cache/result_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "expr/predicate.h"
#include "storage/table.h"
#include "types/schema.h"
#include "util/cache_util.h"

namespace rqp {
namespace {

// ---------------------------------------------------------------------------
// Shared cache utility (LruMap / KeyedFlight) unit coverage.

TEST(LruMapTest, EvictsLeastRecentlyUsed) {
  LruMap<std::string, int> m;
  m.Put("a", 1);
  m.Put("b", 2);
  m.Put("c", 3);
  ASSERT_NE(m.Get("a"), nullptr);  // touch: a becomes MRU
  std::string victim;
  int value = 0;
  ASSERT_TRUE(m.EvictOldest(&victim, &value));
  EXPECT_EQ(victim, "b");
  EXPECT_EQ(value, 2);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.Get("b"), nullptr);
  EXPECT_NE(m.Get("a"), nullptr);
  EXPECT_NE(m.Get("c"), nullptr);
}

TEST(LruMapTest, PutReplacesAndRefreshesRecency) {
  LruMap<std::string, int> m;
  m.Put("a", 1);
  m.Put("b", 2);
  m.Put("a", 10);  // replace: a is MRU again
  ASSERT_TRUE(m.EvictOldest());
  EXPECT_EQ(m.Get("b"), nullptr);
  const int* a = m.Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, 10);
}

TEST(LruMapTest, PeekDoesNotTouchRecency) {
  LruMap<std::string, int> m;
  m.Put("a", 1);
  m.Put("b", 2);
  ASSERT_NE(m.Peek("a"), nullptr);  // no touch: a stays LRU
  std::string victim;
  ASSERT_TRUE(m.EvictOldest(&victim, nullptr));
  EXPECT_EQ(victim, "a");
}

TEST(KeyedFlightTest, GuardReleasesOnDestruction) {
  KeyedFlight<std::string> flight;
  {
    auto g = flight.Acquire("k");
    EXPECT_TRUE(g.active());
    EXPECT_FALSE(g.waited());
  }
  // A second acquire must not block: the first guard released on scope exit.
  auto g2 = flight.Acquire("k");
  EXPECT_TRUE(g2.active());
  EXPECT_FALSE(g2.waited());
}

TEST(KeyedFlightTest, WaiterObservesWaitedFlag) {
  KeyedFlight<std::string> flight;
  auto leader = flight.Acquire("k");
  bool waiter_waited = false;
  std::thread t([&] {
    auto w = flight.Acquire("k");
    waiter_waited = w.waited();
  });
  // Give the waiter time to block, then release the leader.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  leader.Release();
  t.join();
  EXPECT_TRUE(waiter_waited);
}

TEST(ResultCacheTest, PagesForNeverZero) {
  EXPECT_EQ(ResultCache::PagesFor(0), 1);
  EXPECT_EQ(ResultCache::PagesFor(1), 1);
  EXPECT_EQ(ResultCache::PagesFor(kRowsPerPage), 1);
  EXPECT_EQ(ResultCache::PagesFor(kRowsPerPage + 1), 2);
}

// ---------------------------------------------------------------------------
// Engine-integrated result-cache behavior.

Schema SalesSchema() {
  return Schema({{"fk0", LogicalType::kInt64, 0, nullptr},
                 {"band", LogicalType::kInt64, 0, nullptr},
                 {"measure", LogicalType::kInt64, 0, nullptr}});
}

Schema OtherSchema() {
  return Schema({{"a", LogicalType::kInt64, 0, nullptr},
                 {"b", LogicalType::kInt64, 0, nullptr}});
}

std::vector<int64_t> Flatten(const std::vector<RowBatch>& batches) {
  std::vector<int64_t> out;
  for (const auto& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      const int64_t* row = b.row(r);
      out.insert(out.end(), row, row + b.num_cols());
    }
  }
  return out;
}

class ResultCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* sales = catalog_.AddTable("sales", SalesSchema()).value();
    for (int64_t i = 0; i < 3000; ++i) AppendSale(sales, i);
    next_sale_ = 3000;
    Table* other = catalog_.AddTable("other", OtherSchema()).value();
    for (int64_t i = 0; i < 100; ++i) other->AppendRow({i, i * 2});
  }

  void AppendSale(Table* sales, int64_t i) {
    sales->AppendRow({i % 97, i % 7, (i * 37) % 10000});
  }

  void AppendSales(int64_t n) {
    Table* sales = catalog_.GetTable("sales").value();
    for (int64_t k = 0; k < n; ++k) AppendSale(sales, next_sale_++);
  }

  /// Maintainable: single table, grouped decomposable aggregates.
  static QuerySpec GroupedAggQuery() {
    QuerySpec spec;
    spec.tables.push_back({"sales", MakeBetween("fk0", 10, 60)});
    spec.group_by = {"sales.band"};
    spec.aggregates = {{AggFn::kCount, "", "cnt"},
                       {AggFn::kSum, "sales.measure", "sum_m"},
                       {AggFn::kMin, "sales.measure", "min_m"},
                       {AggFn::kMax, "sales.measure", "max_m"}};
    return spec;
  }

  /// Maintainable: scalar (ungrouped) aggregate.
  static QuerySpec ScalarAggQuery() {
    QuerySpec spec;
    spec.tables.push_back({"sales", MakeBetween("fk0", 0, 40)});
    spec.aggregates = {{AggFn::kCount, "", "cnt"},
                       {AggFn::kSum, "sales.measure", "sum_m"},
                       {AggFn::kMin, "sales.measure", "min_m"},
                       {AggFn::kMax, "sales.measure", "max_m"}};
    return spec;
  }

  /// Not maintainable (order-sensitive row output): invalidate on change.
  static QuerySpec SelectQuery(int64_t hi = 50) {
    QuerySpec spec;
    spec.tables.push_back({"sales", MakeBetween("fk0", 5, hi)});
    return spec;
  }

  static EngineOptions CachedOptions(int dop = 1) {
    EngineOptions opts;
    opts.use_result_cache = 1;
    opts.num_threads = dop;
    return opts;
  }

  static EngineOptions PlainOptions(int dop = 1) {
    EngineOptions opts;
    opts.use_result_cache = 0;
    opts.num_threads = dop;
    return opts;
  }

  static std::vector<int64_t> MustRun(Engine* engine, const QuerySpec& spec,
                                      QueryResult* result = nullptr) {
    auto r = engine->Run(spec, /*keep_rows=*/true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    if (result != nullptr) *result = *r;
    return Flatten(r->rows);
  }

  Catalog catalog_;
  int64_t next_sale_ = 0;
};

TEST_F(ResultCacheFixture, FreshHitServesIdenticalRowsWithoutExecution) {
  Engine engine(&catalog_, CachedOptions());
  engine.AnalyzeAll();
  ASSERT_TRUE(engine.result_cache_enabled());

  QueryResult first_r, second_r;
  const auto first = MustRun(&engine, GroupedAggQuery(), &first_r);
  const auto second = MustRun(&engine, GroupedAggQuery(), &second_r);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first_r.result_cache_hit);
  EXPECT_TRUE(second_r.result_cache_hit);
  EXPECT_FALSE(second_r.result_cache_patched);
  EXPECT_FALSE(second_r.result_cache_stale);
  EXPECT_EQ(second_r.final_plan, "[ResultCache] hit");
  EXPECT_EQ(second_r.plans_considered, 0);
  // Hit cost is the deterministic re-emit charge only: strictly cheaper
  // than computing, and zero pages touched.
  EXPECT_LT(second_r.cost, first_r.cost);
  EXPECT_EQ(second_r.counters.pages_read, 0);

  const ResultCache::Stats stats = engine.result_cache()->stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.misses, 1);
}

// The acceptance workload: with-cache and without-cache engines over the
// same catalog return byte-identical rows at every step of a trickle-insert
// workload, including steps served via incremental aggregate maintenance.
class TrickleWorkload : public ResultCacheFixture {
 protected:
  void RunAtDop(int dop) {
    Engine cached(&catalog_, CachedOptions(dop));
    Engine plain(&catalog_, PlainOptions(dop));
    cached.AnalyzeAll();
    plain.AnalyzeAll();
    ASSERT_FALSE(plain.result_cache_enabled());

    const std::vector<QuerySpec> queries = {GroupedAggQuery(),
                                            ScalarAggQuery(), SelectQuery()};
    for (int step = 0; step < 4; ++step) {
      for (const QuerySpec& q : queries) {
        // Twice per step: the second run within a step is a fresh hit.
        for (int rep = 0; rep < 2; ++rep) {
          const auto want = MustRun(&plain, q);
          const auto got = MustRun(&cached, q);
          ASSERT_EQ(got, want) << "step " << step << " rep " << rep;
        }
      }
      AppendSales(45);
    }

    const ResultCache::Stats stats = cached.result_cache()->stats();
    // Aggregate entries are patched after each append batch rather than
    // recomputed; order-sensitive select entries are invalidated.
    EXPECT_GT(stats.patched_hits, 0);
    EXPECT_GT(stats.invalidations, 0);
    EXPECT_GT(stats.hits, stats.patched_hits);  // fresh hits too
    EXPECT_EQ(stats.stale_hits, 0);             // max_staleness = 0
  }
};

TEST_F(TrickleWorkload, ByteIdenticalWithAndWithoutCacheAtDop1) {
  RunAtDop(1);
}

TEST_F(TrickleWorkload, ByteIdenticalWithAndWithoutCacheAtDop4) {
  RunAtDop(4);
}

TEST_F(ResultCacheFixture, HitSurvivesAppendToUnrelatedTable) {
  Engine engine(&catalog_, CachedOptions());
  engine.AnalyzeAll();
  const auto first = MustRun(&engine, GroupedAggQuery());

  Table* other = catalog_.GetTable("other").value();
  other->AppendRow({1000, 2000});

  QueryResult r;
  const auto second = MustRun(&engine, GroupedAggQuery(), &r);
  EXPECT_TRUE(r.result_cache_hit);
  EXPECT_FALSE(r.result_cache_patched);
  EXPECT_EQ(first, second);
}

TEST_F(ResultCacheFixture, AppendToReferencedTablePatchesAggregates) {
  Engine cached(&catalog_, CachedOptions());
  Engine plain(&catalog_, PlainOptions());
  cached.AnalyzeAll();
  plain.AnalyzeAll();

  MustRun(&cached, GroupedAggQuery());
  // Delta includes rows inside the predicate range and a brand-new group
  // key (band 50) that must appear in its sorted position after the patch.
  Table* sales = catalog_.GetTable("sales").value();
  sales->AppendRow({20, 50, 111});
  sales->AppendRow({30, 2, 222});
  sales->AppendRow({96, 3, 333});  // outside fk0 [10, 60]: filtered out

  QueryResult r;
  const auto got = MustRun(&cached, GroupedAggQuery(), &r);
  const auto want = MustRun(&plain, GroupedAggQuery());
  EXPECT_TRUE(r.result_cache_hit);
  EXPECT_TRUE(r.result_cache_patched);
  EXPECT_EQ(got, want);
  // The patch charged only the delta scan, not the full table.
  EXPECT_LE(r.counters.pages_read, 1);
  EXPECT_EQ(cached.result_cache()->stats().patched_hits, 1);
}

TEST_F(ResultCacheFixture, ScalarAggregatePatchedAfterAppend) {
  Engine cached(&catalog_, CachedOptions());
  Engine plain(&catalog_, PlainOptions());
  cached.AnalyzeAll();
  plain.AnalyzeAll();

  MustRun(&cached, ScalarAggQuery());
  AppendSales(20);

  QueryResult r;
  const auto got = MustRun(&cached, ScalarAggQuery(), &r);
  const auto want = MustRun(&plain, ScalarAggQuery());
  EXPECT_TRUE(r.result_cache_hit);
  EXPECT_TRUE(r.result_cache_patched);
  EXPECT_EQ(got, want);
}

TEST_F(ResultCacheFixture, PatchedSumsWrapLikeARecompute) {
  // An appended INT64_MAX wraps the cached sums: the patch adds with the
  // same wraparound as a recompute, grouped and scalar.
  Engine cached(&catalog_, CachedOptions());
  Engine plain(&catalog_, PlainOptions());
  cached.AnalyzeAll();
  plain.AnalyzeAll();
  MustRun(&cached, GroupedAggQuery());
  MustRun(&cached, ScalarAggQuery());
  Table* sales = catalog_.GetTable("sales").value();
  sales->AppendRow({20, 2, std::numeric_limits<int64_t>::max()});
  sales->AppendRow({30, 2, std::numeric_limits<int64_t>::max()});
  for (const QuerySpec& q : {GroupedAggQuery(), ScalarAggQuery()}) {
    QueryResult r;
    const auto got = MustRun(&cached, q, &r);
    EXPECT_TRUE(r.result_cache_patched);
    EXPECT_EQ(got, MustRun(&plain, q));
  }
}

TEST_F(ResultCacheFixture, AppendInvalidatesOrderSensitiveResults) {
  Engine engine(&catalog_, CachedOptions());
  engine.AnalyzeAll();
  MustRun(&engine, SelectQuery());
  AppendSales(10);

  QueryResult r;
  MustRun(&engine, SelectQuery(), &r);
  EXPECT_FALSE(r.result_cache_hit);  // invalidated, recomputed
  const ResultCache::Stats stats = engine.result_cache()->stats();
  EXPECT_GE(stats.invalidations, 1);
  EXPECT_EQ(stats.hits, 0);
}

TEST_F(ResultCacheFixture, InPlaceMutationInvalidatesEverything) {
  Engine engine(&catalog_, CachedOptions());
  engine.AnalyzeAll();
  MustRun(&engine, GroupedAggQuery());

  // Rewriting history (reload epoch) must invalidate even maintainable
  // entries — append-delta reasoning no longer applies.
  Table* sales = catalog_.GetTable("sales").value();
  sales->mutable_column(2)[0] += 1;

  QueryResult r;
  MustRun(&engine, GroupedAggQuery(), &r);
  EXPECT_FALSE(r.result_cache_hit);
  EXPECT_GE(engine.result_cache()->stats().invalidations, 1);
}

TEST_F(ResultCacheFixture, BoundedStalenessServesUnpatchedWithinBudget) {
  EngineOptions opts = CachedOptions();
  opts.result_cache_max_staleness = 100;
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();

  const auto first = MustRun(&engine, GroupedAggQuery());
  AppendSales(5);  // within the staleness budget

  QueryResult stale_r;
  const auto stale = MustRun(&engine, GroupedAggQuery(), &stale_r);
  EXPECT_TRUE(stale_r.result_cache_hit);
  EXPECT_TRUE(stale_r.result_cache_stale);
  EXPECT_FALSE(stale_r.result_cache_patched);
  EXPECT_EQ(stale, first);  // served as-is: the 5 new rows are not visible

  AppendSales(200);  // budget blown: the entry must be patched now

  Engine plain(&catalog_, PlainOptions());
  plain.AnalyzeAll();
  QueryResult fresh_r;
  const auto fresh = MustRun(&engine, GroupedAggQuery(), &fresh_r);
  EXPECT_TRUE(fresh_r.result_cache_hit);
  EXPECT_TRUE(fresh_r.result_cache_patched);
  EXPECT_EQ(fresh, MustRun(&plain, GroupedAggQuery()));
  EXPECT_EQ(engine.result_cache()->stats().stale_hits, 1);
}

TEST_F(ResultCacheFixture, LruEvictionAtMaxEntries) {
  EngineOptions opts = CachedOptions();
  opts.result_cache.max_entries = 2;
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();

  const QuerySpec q1 = SelectQuery(20);
  const QuerySpec q2 = SelectQuery(30);
  const QuerySpec q3 = SelectQuery(40);
  MustRun(&engine, q1);
  MustRun(&engine, q2);
  MustRun(&engine, q1);  // touch: q1 is MRU, q2 is the LRU victim
  MustRun(&engine, q3);  // evicts q2

  EXPECT_EQ(engine.result_cache()->size(), 2u);
  EXPECT_EQ(engine.result_cache()->stats().evictions, 1);
  QueryResult r1, r2;
  MustRun(&engine, q1, &r1);
  EXPECT_TRUE(r1.result_cache_hit);  // survived: recently used
  MustRun(&engine, q2, &r2);
  EXPECT_FALSE(r2.result_cache_hit);  // the LRU entry was evicted
}

TEST_F(ResultCacheFixture, RevocationShedsLruEntriesDownToOnePage) {
  Engine engine(&catalog_, CachedOptions());
  engine.AnalyzeAll();

  // Three multi-page entries charged against the engine's broker.
  MustRun(&engine, SelectQuery(30));
  MustRun(&engine, SelectQuery(50));
  MustRun(&engine, SelectQuery(70));
  ASSERT_EQ(engine.result_cache()->size(), 3u);
  const int64_t cached_pages = engine.result_cache()->total_pages();
  ASSERT_GT(cached_pages, 3);
  EXPECT_EQ(engine.memory()->used(), cached_pages);

  // Revoke down to a single page: the cache sheds LRU entries instead of
  // holding the broker over-committed.
  engine.memory()->set_capacity(1);
  EXPECT_EQ(engine.memory()->deficit(), cached_pages - 1);
  const int64_t shed =
      engine.result_cache()->ShedPages(engine.memory()->deficit());
  EXPECT_GT(shed, 0);
  EXPECT_LE(engine.memory()->used(), 1);
  EXPECT_EQ(engine.memory()->deficit(), 0);
  EXPECT_GE(engine.result_cache()->stats().evictions, 2);

  // The engine keeps working at a 1-page grant: small results still cache
  // (and hit), oversized results skip insertion, and nothing fails.
  QueryResult agg1, agg2, sel;
  MustRun(&engine, GroupedAggQuery(), &agg1);
  MustRun(&engine, GroupedAggQuery(), &agg2);
  EXPECT_TRUE(agg2.result_cache_hit);
  MustRun(&engine, SelectQuery(90), &sel);  // > 1 page: cannot be admitted
  EXPECT_FALSE(sel.result_cache_hit);
  EXPECT_LE(engine.result_cache()->total_pages(), 1);
}

TEST_F(ResultCacheFixture, StampedeComputesOnceAndAgreesByteForByte) {
  Engine engine(&catalog_, CachedOptions(/*dop=*/0));  // honor $RQP_THREADS
  engine.AnalyzeAll();
  const QuerySpec spec = GroupedAggQuery();

  constexpr int kThreads = 4;
  std::vector<std::vector<int64_t>> rows(kThreads);
  // Not vector<bool>: bit-packing would make concurrent writes race.
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = engine.Run(spec, /*keep_rows=*/true);
      ok[t] = r.ok();
      if (r.ok()) rows[t] = Flatten(r->rows);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t]) << "thread " << t;
    EXPECT_EQ(rows[t], rows[0]) << "thread " << t;
  }
  const ResultCache::Stats stats = engine.result_cache()->stats();
  // Every thread either computed (and published) or was served a hit;
  // single-flight keeps one entry with no torn intermediate states.
  EXPECT_EQ(stats.hits + stats.inserts, kThreads);
  EXPECT_GE(stats.inserts, 1);
  EXPECT_EQ(engine.result_cache()->size(), 1u);
}

TEST_F(ResultCacheFixture, CorruptionDetectedRecomputedNeverServed) {
  EngineOptions opts = CachedOptions();
  opts.faults = FaultSchedule().CacheCorruption(1.0);
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();

  const auto first = MustRun(&engine, GroupedAggQuery());
  QueryResult r;
  const auto second = MustRun(&engine, GroupedAggQuery(), &r);
  // The lookup observed a corrupted entry; the checksum caught it and the
  // query recomputed — the damaged rows were never served.
  EXPECT_FALSE(r.result_cache_hit);
  EXPECT_EQ(second, first);
  EXPECT_GE(r.faults.cache_corruptions, 1);
  const ResultCache::Stats stats = engine.result_cache()->stats();
  EXPECT_GE(stats.corruptions_detected, 1);
  EXPECT_EQ(stats.hits, 0);

  // The per-query schedule (QueryControl::faults) governs cache corruption
  // like every other fault. An empty override suppresses the engine-level
  // corruption: the entry the first run left behind is served intact.
  const FaultSchedule clean;
  QueryControl suppress;
  suppress.faults = &clean;
  auto served = engine.Run(GroupedAggQuery(), /*keep_rows=*/true, &suppress);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->result_cache_hit);
  EXPECT_EQ(served->faults.cache_corruptions, 0);
  EXPECT_EQ(Flatten(served->rows), first);

  // A corrupting override on a clean engine damages the cached entry.
  Engine clean_engine(&catalog_, CachedOptions());
  clean_engine.AnalyzeAll();
  MustRun(&clean_engine, GroupedAggQuery());
  QueryControl corrupt;
  corrupt.faults = &opts.faults;
  auto recomputed =
      clean_engine.Run(GroupedAggQuery(), /*keep_rows=*/true, &corrupt);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_FALSE(recomputed->result_cache_hit);
  EXPECT_GE(recomputed->faults.cache_corruptions, 1);
  EXPECT_EQ(Flatten(recomputed->rows), first);
  EXPECT_GE(clean_engine.result_cache()->stats().corruptions_detected, 1);
}

TEST_F(ResultCacheFixture, FailedQueryLeavesNoEntry) {
  EngineOptions opts = CachedOptions();
  opts.faults = FaultSchedule().ScanFailures("sales", 1.0);
  Engine engine(&catalog_, opts);
  engine.AnalyzeAll();

  auto r = engine.Run(GroupedAggQuery(), /*keep_rows=*/true);
  ASSERT_FALSE(r.ok());  // retry budget exhausted: the query failed
  EXPECT_EQ(engine.result_cache()->size(), 0u);
  EXPECT_EQ(engine.result_cache()->stats().inserts, 0);

  // Once the fault clears, the same engine caches normally.
  engine.mutable_options()->faults = FaultSchedule();
  MustRun(&engine, GroupedAggQuery());
  EXPECT_EQ(engine.result_cache()->size(), 1u);
}

TEST_F(ResultCacheFixture, AbortedAttemptsNeverPublishPartialEntries) {
  // A cost budget aborts the first attempt mid-scan (partially drained
  // rows) and a scheduled memory drop squeezes the broker mid-query; only
  // the final successful attempt's complete result may become visible.
  EngineOptions opts = CachedOptions();
  opts.guardrails.enabled = true;
  opts.guardrails.fuse_factor = 0;  // budget-only guardrails
  opts.guardrails.cost_budget = 20;
  opts.faults = FaultSchedule().MemoryDrop(10.0, 1);
  Engine cached(&catalog_, opts);
  cached.AnalyzeAll();

  QueryResult r;
  const auto got = MustRun(&cached, GroupedAggQuery(), &r);
  EXPECT_GE(r.budget_aborts, 1);
  EXPECT_EQ(cached.result_cache()->stats().inserts, 1);
  EXPECT_EQ(cached.result_cache()->size(), 1u);

  Engine plain(&catalog_, PlainOptions());
  plain.AnalyzeAll();
  EXPECT_EQ(got, MustRun(&plain, GroupedAggQuery()));

  // The cached entry is the complete final result, not a partial drain.
  QueryResult hit_r;
  const auto hit = MustRun(&cached, GroupedAggQuery(), &hit_r);
  EXPECT_TRUE(hit_r.result_cache_hit);
  EXPECT_EQ(hit, got);
}

TEST_F(ResultCacheFixture, TwoEnginesOverOneTableAgreeOnVersions) {
  // Independent engines (separate caches) over the same catalog observe
  // the same epoch counters and therefore stay mutually consistent.
  Engine a(&catalog_, CachedOptions());
  Engine b(&catalog_, CachedOptions());
  a.AnalyzeAll();
  b.AnalyzeAll();

  MustRun(&a, GroupedAggQuery());
  MustRun(&b, GroupedAggQuery());
  AppendSales(30);

  QueryResult ra, rb;
  const auto rows_a = MustRun(&a, GroupedAggQuery(), &ra);
  const auto rows_b = MustRun(&b, GroupedAggQuery(), &rb);
  EXPECT_TRUE(ra.result_cache_patched);
  EXPECT_TRUE(rb.result_cache_patched);
  EXPECT_EQ(rows_a, rows_b);
}

}  // namespace
}  // namespace rqp
