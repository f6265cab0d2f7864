// Sharded distributed execution tests (PR 9; DESIGN.md §14): partitioner and
// exchange primitives, the shard-aware co-location pass, and the end-to-end
// contract — a query's rows (and for aggregates, its bytes) must not depend
// on the shard count, including under fault schedules, 8-page memory grants,
// and Zipf-skewed keys; the skew mitigations (morsel stealing, hot-key
// diversion) must strictly improve the simulated elapsed clock.
// Runs under the `shard` ctest label (the ASan + TSan CI jobs).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "shard/exchange.h"
#include "shard/partition.h"
#include "shard/planner.h"
#include "shard/sharded_engine.h"
#include "stats/hotkey.h"
#include "storage/data_generator.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

// ---- partitioner -----------------------------------------------------------

TEST(TablePartitionerTest, HashAssignmentCoversAllRowsDeterministically) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"k", LogicalType::kInt64, 0, nullptr}})).value();
  Rng rng(11);
  t->SetColumnData(0, gen::Uniform(&rng, 5000, 0, 999));

  auto part = TablePartitioner::Make(*t, {PartitionSpec::Kind::kHash, "k"}, 4);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  auto assign = part->AssignRows(*t);
  ASSERT_EQ(assign.size(), 4u);

  // Every row exactly once, each on ShardOf(its key), in table order.
  size_t total = 0;
  std::set<int64_t> seen;
  for (int s = 0; s < 4; ++s) {
    total += assign[s].size();
    EXPECT_TRUE(std::is_sorted(assign[s].begin(), assign[s].end()));
    for (int64_t r : assign[s]) {
      EXPECT_TRUE(seen.insert(r).second);
      EXPECT_EQ(part->ShardOf(t->Value(0, r)), s);
    }
  }
  EXPECT_EQ(total, 5000u);

  // Pure function of (key, num_shards): a second partitioner agrees.
  auto again =
      TablePartitioner::Make(*t, {PartitionSpec::Kind::kHash, "k"}, 4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->AssignRows(*t), assign);

  // The mixer (murmur3 fmix64) avalanches: adjacent keys land far apart.
  // (0 is fmix64's fixed point, so probe from 1.)
  EXPECT_NE(TablePartitioner::HashKey(1), 1u);
  EXPECT_NE(TablePartitioner::HashKey(1), TablePartitioner::HashKey(2));
}

TEST(TablePartitionerTest, RangePartitionIsContiguousAndClamps) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"k", LogicalType::kInt64, 0, nullptr}})).value();
  t->SetColumnData(0, gen::Sequential(100));  // keys 0..99

  auto part = TablePartitioner::Make(*t, {PartitionSpec::Kind::kRange, "k"}, 4);
  ASSERT_TRUE(part.ok());
  auto assign = part->AssignRows(*t);
  size_t total = 0;
  int prev_shard = 0;
  for (int s = 0; s < 4; ++s) {
    total += assign[s].size();
    EXPECT_FALSE(assign[s].empty()) << "shard " << s;
    for (int64_t r : assign[s]) {
      EXPECT_GE(part->ShardOf(t->Value(0, r)), prev_shard);
    }
    prev_shard = s;
  }
  EXPECT_EQ(total, 100u);
  // Keys are sequential, so shard of key must be monotone in the key.
  for (int64_t k = 1; k < 100; ++k) {
    EXPECT_GE(part->ShardOf(k), part->ShardOf(k - 1));
  }
  // Out-of-domain keys clamp to the edge shards.
  EXPECT_EQ(part->ShardOf(-1000), 0);
  EXPECT_EQ(part->ShardOf(100000), 3);
}

TEST(TablePartitionerTest, MissingColumnFails) {
  Catalog catalog;
  Table* t = catalog.AddTable(
      "t", Schema({{"k", LogicalType::kInt64, 0, nullptr}})).value();
  t->SetColumnData(0, gen::Sequential(10));
  auto part =
      TablePartitioner::Make(*t, {PartitionSpec::Kind::kHash, "nope"}, 4);
  EXPECT_FALSE(part.ok());
  auto bad = TablePartitioner::Make(*t, {PartitionSpec::Kind::kHash, "k"}, 0);
  EXPECT_FALSE(bad.ok());
}

// ---- hot-key detection -----------------------------------------------------

TEST(DetectHotKeysTest, FindsHeavyHitterAboveThreshold) {
  // 5000 keys: key 7 appears 1000 times, the rest uniform over a wide
  // domain. At a 5% cut only key 7 qualifies.
  Rng rng(3);
  std::vector<int64_t> keys = gen::Uniform(&rng, 4000, 1000, 1000000);
  keys.insert(keys.end(), 1000, 7);
  HotKeySet hot = DetectHotKeys("t", "k", keys, 0.05);
  EXPECT_EQ(hot.table, "t");
  EXPECT_EQ(hot.column, "k");
  EXPECT_EQ(hot.keys.size(), 1u);
  ASSERT_TRUE(hot.Contains(7));
  EXPECT_EQ(hot.keys.at(7), 1000);
  EXPECT_EQ(hot.total_rows, 5000);

  // min_count floor: in a tiny input nothing is hot below 16 occurrences.
  std::vector<int64_t> tiny = {1, 1, 1, 2, 3};
  EXPECT_TRUE(DetectHotKeys("t", "k", tiny, 0.05).empty());
}

TEST(HotKeyRegistryTest, RecordPublishesFeedbackAndReplaces) {
  HotKeyRegistry reg;
  FeedbackCache feedback;
  HotKeySet set;
  set.table = "t";
  set.column = "k";
  set.total_rows = 1000;
  set.keys[7] = 300;
  reg.Record(set, &feedback);

  const HotKeySet* found = reg.Find("t", "k");
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->Contains(7));
  EXPECT_EQ(reg.total_keys(), 1);
  EXPECT_EQ(reg.Find("t", "nope"), nullptr);

  // Published into the LEO feedback path as the observed selectivity of the
  // equality predicate on the hot key.
  const double sel = feedback.Lookup("t", MakeCmp("k", CmpOp::kEq, 7));
  EXPECT_NEAR(sel, 0.3, 1e-9);

  // Re-detection replaces (newer full pass wins).
  HotKeySet newer = set;
  newer.keys.clear();
  newer.keys[9] = 500;
  reg.Record(newer, &feedback);
  found = reg.Find("t", "k");
  ASSERT_NE(found, nullptr);
  EXPECT_FALSE(found->Contains(7));
  EXPECT_TRUE(found->Contains(9));
}

// ---- exchange channel ------------------------------------------------------

TEST(ExchangeChannelTest, BoundedStagingFlushesAndCharges) {
  ExchangeBuffers buf(2, 2);
  ExecContext ctx;
  const int64_t queue_pages = 2;  // 64 rows
  {
    ExchangeChannel channel(&buf, &ctx, queue_pages);
    for (int64_t i = 0; i < 200; ++i) {
      int64_t row[2] = {i, i * 10};
      channel.StageOwned(1, row);
    }
    int64_t brow[2] = {-1, -2};
    channel.StageBroadcast(brow);
    channel.Flush();
    // The staging queue never held more than its page bound.
    EXPECT_LE(channel.peak_staged_pages(), queue_pages);
  }
  EXPECT_EQ(buf.owned_rows(1), 200);
  EXPECT_EQ(buf.owned_rows(0), 0);
  EXPECT_EQ(buf.broadcast_rows(0), 1);
  EXPECT_EQ(buf.broadcast_rows(1), 1);
  EXPECT_EQ(buf.owned(1)[0], 0);
  EXPECT_EQ(buf.owned(1)[1], 0);
  EXPECT_EQ(buf.owned(1)[2], 1);
  EXPECT_EQ(buf.owned(1)[3], 10);

  // Counters: 200 shuffled rows, 2 broadcast row copies (one per shard),
  // with the transfer on the cost clock; the flush released every page.
  EXPECT_EQ(ctx.counters().rows_shuffled, 200);
  EXPECT_EQ(ctx.counters().rows_broadcast, 2);
  EXPECT_GT(ctx.cost(), 0.0);
  EXPECT_EQ(ctx.memory()->used(), 0);
}

// ---- co-location planner ---------------------------------------------------

struct ShardPlannerTest : ::testing::Test {
  Catalog catalog;
  CostModel cm;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 50000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 3;
    BuildStarSchema(&catalog, spec);
  }
};

TEST_F(ShardPlannerTest, ColocatedJoinNeedsNoExchange) {
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  ShardQueryPlan plan = PlanShardedQuery(workload::StarQuery(1, {5000}),
                                         catalog, parts, 4, cm);
  EXPECT_TRUE(plan.runs_sharded);
  EXPECT_TRUE(plan.colocated);
  EXPECT_EQ(plan.anchor, "fact");
  EXPECT_EQ(plan.decisions.at("fact").strategy, ShardTableStrategy::kLocal);
  EXPECT_EQ(plan.decisions.at("dim0").strategy, ShardTableStrategy::kLocal);
  EXPECT_DOUBLE_EQ(plan.est_exchange_cost, 0.0);
  EXPECT_EQ(plan.Describe(), "anchor=fact colocated");
}

TEST_F(ShardPlannerTest, MisalignedSmallPartnerBroadcasts) {
  // The anchor is hash-partitioned on a non-join column; repairing a tiny
  // dimension is cheapest by replication.
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "measure"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  ShardQueryPlan plan = PlanShardedQuery(workload::StarQuery(1, {5000}),
                                         catalog, parts, 4, cm);
  EXPECT_TRUE(plan.runs_sharded);
  EXPECT_FALSE(plan.colocated);
  EXPECT_EQ(plan.decisions.at("fact").strategy, ShardTableStrategy::kLocal);
  EXPECT_EQ(plan.decisions.at("dim0").strategy,
            ShardTableStrategy::kBroadcast);
  EXPECT_GT(plan.est_exchange_cost, 0.0);
  EXPECT_EQ(plan.Describe(), "anchor=fact repartitioning dim0:broadcast");
}

TEST_F(ShardPlannerTest, MisalignedPartnerOnAnchorKeyShuffles) {
  // The anchor is aligned with the join; the partner is hash-partitioned on
  // the wrong column, and shuffling 1000 rows beats broadcasting them.
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "attr"};
  ShardQueryPlan plan = PlanShardedQuery(workload::StarQuery(1, {5000}),
                                         catalog, parts, 4, cm);
  EXPECT_FALSE(plan.colocated);
  EXPECT_EQ(plan.decisions.at("dim0").strategy, ShardTableStrategy::kShuffle);
  EXPECT_EQ(plan.decisions.at("dim0").shuffle_column, "id");
  EXPECT_EQ(plan.Describe(), "anchor=fact repartitioning dim0:shuffle(id)");
}

TEST_F(ShardPlannerTest, RangePartitionNeverHashAligns) {
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kRange, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  ShardQueryPlan plan = PlanShardedQuery(workload::StarQuery(1, {5000}),
                                         catalog, parts, 4, cm);
  EXPECT_FALSE(plan.colocated);  // equal range bounds are not guaranteed
}

TEST_F(ShardPlannerTest, LargePartnerReshufflesAnchorInstead) {
  // A partner too big to broadcast: the cheapest repair re-keys the anchor
  // onto the join column, after which the (aligned) partner is co-located.
  Catalog big;
  Table* probe = big.AddTable(
      "probe", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                       {"other", LogicalType::kInt64, 0, nullptr}})).value();
  Rng rng(5);
  probe->SetColumnData(0, gen::Uniform(&rng, 40000, 0, 29999));
  probe->SetColumnData(1, gen::Uniform(&rng, 40000, 0, 999999));
  Table* build = big.AddTable(
      "build", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                       {"v", LogicalType::kInt64, 0, nullptr}})).value();
  build->SetColumnData(0, gen::Sequential(30000));
  build->SetColumnData(1, gen::Sequential(30000, 100));

  QuerySpec q;
  q.tables.push_back({"probe", nullptr});
  q.tables.push_back({"build", nullptr});
  q.joins.push_back({"probe", "k", "build", "k"});

  PartitionMap parts;
  parts["probe"] = {PartitionSpec::Kind::kHash, "other"};
  parts["build"] = {PartitionSpec::Kind::kHash, "k"};
  ShardQueryPlan plan = PlanShardedQuery(q, big, parts, 4, cm);
  EXPECT_TRUE(plan.runs_sharded);
  EXPECT_FALSE(plan.colocated);
  EXPECT_EQ(plan.anchor, "probe");
  EXPECT_EQ(plan.decisions.at("probe").strategy, ShardTableStrategy::kShuffle);
  EXPECT_EQ(plan.decisions.at("probe").shuffle_column, "k");
  EXPECT_EQ(plan.decisions.at("build").strategy, ShardTableStrategy::kLocal);
}

TEST_F(ShardPlannerTest, RangeAnchorWithSargablePredicatePrunesShards) {
  // fk0 spans [0, 999] over 4 range shards (width 250): a constant range
  // predicate touching only the first slice prunes the other three.
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kRange, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  QuerySpec q = workload::StarQuery(1, {5000});
  q.tables[0].predicate = MakeBetween("fk0", 0, 100);
  ShardQueryPlan plan = PlanShardedQuery(q, catalog, parts, 4, cm);
  EXPECT_TRUE(plan.runs_sharded);
  EXPECT_EQ(plan.num_shards, 4);
  EXPECT_EQ(plan.pruned_shards, 3);
  ASSERT_EQ(plan.pruned.size(), 4u);
  EXPECT_FALSE(plan.pruned[0]);
  EXPECT_TRUE(plan.pruned[1] && plan.pruned[2] && plan.pruned[3]);
  EXPECT_NE(plan.Describe().find("pruned=3/4"), std::string::npos)
      << plan.Describe();

  // One-sided bound: fk0 >= 900 keeps only the last slice.
  q.tables[0].predicate = MakeCmp("fk0", CmpOp::kGe, 900);
  plan = PlanShardedQuery(q, catalog, parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 3);
  ASSERT_EQ(plan.pruned.size(), 4u);
  EXPECT_FALSE(plan.pruned[3]);

  // Equality: a point keeps exactly its owner shard.
  q.tables[0].predicate = MakeCmp("fk0", CmpOp::kEq, 500);
  plan = PlanShardedQuery(q, catalog, parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 3);
  ASSERT_EQ(plan.pruned.size(), 4u);
  EXPECT_FALSE(plan.pruned[2]);  // 500 / width 250 = slice 2

  // A contradictory range never prunes every shard.
  q.tables[0].predicate = MakeBetween("fk0", 200, 100);
  plan = PlanShardedQuery(q, catalog, parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 3);
  EXPECT_EQ(std::count(plan.pruned.begin(), plan.pruned.end(), false), 1);
}

TEST_F(ShardPlannerTest, PruningRequiresRangeAnchorAndSargableBound) {
  QuerySpec q = workload::StarQuery(1, {5000});
  q.tables[0].predicate = MakeBetween("fk0", 0, 100);

  // Hash-partitioned anchor: a key range says nothing about hash owners.
  PartitionMap hash_parts;
  hash_parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  hash_parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  ShardQueryPlan plan = PlanShardedQuery(q, catalog, hash_parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 0);
  EXPECT_TRUE(plan.pruned.empty());

  // Range anchor but the predicate misses the partition column.
  PartitionMap range_parts;
  range_parts["fact"] = {PartitionSpec::Kind::kRange, "fk0"};
  range_parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  q.tables[0].predicate = MakeBetween("measure", 0, 100);
  plan = PlanShardedQuery(q, catalog, range_parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 0);

  // Disjunctions on the partition column are not sargable conjuncts.
  q.tables[0].predicate = MakeOr(
      {MakeCmp("fk0", CmpOp::kLe, 100), MakeCmp("fk0", CmpOp::kGe, 900)});
  plan = PlanShardedQuery(q, catalog, range_parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 0);

  // No predicate at all.
  q.tables[0].predicate = nullptr;
  plan = PlanShardedQuery(q, catalog, range_parts, 4, cm);
  EXPECT_EQ(plan.pruned_shards, 0);
  EXPECT_EQ(plan.Describe().find("pruned="), std::string::npos);
}

TEST_F(ShardPlannerTest, UnpartitionedQueryRunsUnsharded) {
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  QuerySpec q;
  q.tables.push_back({"dim0", nullptr});  // replicated table only
  ShardQueryPlan plan = PlanShardedQuery(q, catalog, parts, 4, cm);
  EXPECT_FALSE(plan.runs_sharded);
  EXPECT_EQ(plan.Describe(), "unsharded");
  // shards == 1 is always unsharded.
  EXPECT_FALSE(PlanShardedQuery(workload::StarQuery(1, {5000}), catalog,
                                parts, 1, cm)
                   .runs_sharded);
}

// ---- knob resolution -------------------------------------------------------

TEST(ShardKnobsTest, EnvironmentFallbacks) {
  unsetenv("RQP_SHARDS");
  unsetenv("RQP_EXCHANGE_QUEUE_PAGES");
  unsetenv("RQP_HOTKEY_THRESHOLD");
  EXPECT_EQ(ResolveShards(0), 1);
  EXPECT_EQ(ResolveExchangeQueuePages(0), 64);
  EXPECT_DOUBLE_EQ(ResolveHotkeyThreshold(0), 0.05);

  setenv("RQP_SHARDS", "6", 1);
  setenv("RQP_EXCHANGE_QUEUE_PAGES", "16", 1);
  setenv("RQP_HOTKEY_THRESHOLD", "0.2", 1);
  EXPECT_EQ(ResolveShards(0), 6);
  EXPECT_EQ(ResolveExchangeQueuePages(0), 16);
  EXPECT_DOUBLE_EQ(ResolveHotkeyThreshold(0), 0.2);

  // Explicit values beat the environment; clamps apply either way.
  EXPECT_EQ(ResolveShards(3), 3);
  EXPECT_EQ(ResolveShards(1000), 64);
  EXPECT_EQ(ResolveExchangeQueuePages(8), 8);
  EXPECT_DOUBLE_EQ(ResolveHotkeyThreshold(2.0), 1.0);

  setenv("RQP_SHARDS", "garbage", 1);
  EXPECT_EQ(ResolveShards(0), 1);

  // A number must be the whole string.
  setenv("RQP_SHARDS", "4x", 1);
  setenv("RQP_EXCHANGE_QUEUE_PAGES", "4x", 1);
  setenv("RQP_HOTKEY_THRESHOLD", "4x", 1);
  EXPECT_EQ(ResolveShards(0), 1);
  EXPECT_EQ(ResolveExchangeQueuePages(0), 64);
  EXPECT_DOUBLE_EQ(ResolveHotkeyThreshold(0), 0.05);
  setenv("RQP_SHARDS", "2.5", 1);
  setenv("RQP_EXCHANGE_QUEUE_PAGES", "2.5", 1);
  EXPECT_EQ(ResolveShards(0), 1);
  EXPECT_EQ(ResolveExchangeQueuePages(0), 64);
  unsetenv("RQP_SHARDS");
  unsetenv("RQP_EXCHANGE_QUEUE_PAGES");
  unsetenv("RQP_HOTKEY_THRESHOLD");
}

// ---- end-to-end ------------------------------------------------------------

struct ShardFixture : ::testing::Test {
  Catalog catalog;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 50000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 3;
    BuildStarSchema(&catalog, spec);
  }

  static PartitionMap Colocated() {
    PartitionMap parts;
    parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
    parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
    return parts;
  }

  static QuerySpec GroupByQuery() {
    QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
    q.group_by = {"dim0.band"};
    q.aggregates = {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "fact.measure", "sum_m"},
                    {AggFn::kMin, "fact.measure", "min_m"},
                    {AggFn::kMax, "fact.measure", "max_m"}};
    return q;
  }

  std::string SpillDir(const std::string& tag) {
    return (fs::temp_directory_path() /
            ("rqp-shard-test-" + std::to_string(getpid()) + "-" + tag))
        .string();
  }

  StatusOr<QueryResult> RunAtShards(Catalog* cat, const QuerySpec& q,
                                    int shards, const PartitionMap& parts,
                                    EngineOptions eopts = EngineOptions(),
                                    ShardOptions sopts = ShardOptions()) {
    sopts.num_shards = shards;
    sopts.partitions = parts;
    ShardedEngine engine(cat, eopts, std::move(sopts));
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

  static std::vector<std::vector<int64_t>> SortedRows(const QueryResult& r) {
    std::vector<std::vector<int64_t>> rows;
    for (const auto& b : r.rows) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        rows.emplace_back(b.row(i), b.row(i) + b.num_cols());
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // Aggregated queries are byte-identical at every shard count (the merge
  // emits in the single-engine group-key order); shards=1 is the reference.
  void CheckAggByteIdentical(const QuerySpec& q, const PartitionMap& parts,
                             EngineOptions eopts = EngineOptions(),
                             ShardOptions sopts = ShardOptions()) {
    auto base = RunAtShards(&catalog, q, 1, parts, eopts, sopts);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const auto reference = Flatten(*base);
    EXPECT_TRUE(base->shard_strategy.empty());
    for (int shards : {2, 4, 8}) {
      auto got = RunAtShards(&catalog, q, shards, parts, eopts, sopts);
      ASSERT_TRUE(got.ok()) << "shards " << shards << ": "
                            << got.status().ToString();
      EXPECT_EQ(got->output_rows, base->output_rows) << "shards " << shards;
      EXPECT_EQ(Flatten(*got), reference) << "shards " << shards;
      EXPECT_EQ(got->shard_stats.size(), static_cast<size_t>(shards));
      EXPECT_NE(got->shard_strategy.find("anchor="), std::string::npos);
    }
  }
};

TEST_F(ShardFixture, ShardsOneIsByteIdenticalToPlainEngine) {
  // At one shard the sharded engine *is* the plain engine: rows, counters,
  // and the clock agree to the bit.
  const QuerySpec q = GroupByQuery();
  Engine plain(&catalog);
  plain.AnalyzeAll();
  auto want = plain.Run(q, /*keep_rows=*/true);
  ASSERT_TRUE(want.ok());

  auto got = RunAtShards(&catalog, q, 1, Colocated());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Flatten(*got), Flatten(*want));
  EXPECT_EQ(got->output_rows, want->output_rows);
  EXPECT_DOUBLE_EQ(got->cost, want->cost);
  EXPECT_DOUBLE_EQ(got->elapsed, want->elapsed);
  EXPECT_EQ(got->counters.rows_processed, want->counters.rows_processed);
  EXPECT_EQ(got->counters.hash_ops, want->counters.hash_ops);
  EXPECT_EQ(got->counters.spill_pages, want->counters.spill_pages);
  EXPECT_EQ(got->counters.rows_shuffled, 0);
  EXPECT_EQ(got->counters.rows_broadcast, 0);
  EXPECT_TRUE(got->shard_stats.empty());
}

TEST_F(ShardFixture, ColocatedAggByteIdenticalAcrossShardCounts) {
  CheckAggByteIdentical(GroupByQuery(), Colocated());
}

TEST_F(ShardFixture, ColocatedJoinShowsShardSpeedup) {
  // The acceptance gate: >= 2x deterministic-clock speedup at 4 shards on a
  // co-located join (zero exchange traffic; the merge is the only serial
  // part). Pin DOP 1 so the comparison isolates shard scaling.
  EngineOptions eopts;
  eopts.num_threads = 1;
  const QuerySpec q = GroupByQuery();
  auto serial = RunAtShards(&catalog, q, 1, Colocated(), eopts);
  auto sharded = RunAtShards(&catalog, q, 4, Colocated(), eopts);
  ASSERT_TRUE(serial.ok() && sharded.ok());
  EXPECT_NE(sharded->shard_strategy.find("colocated"), std::string::npos);
  EXPECT_EQ(sharded->counters.rows_shuffled, 0);
  EXPECT_EQ(sharded->counters.rows_broadcast, 0);
  EXPECT_LT(sharded->elapsed, serial->elapsed / 2);
  // Clock invariant: elapsed = cost - parallel_saved_units.
  EXPECT_DOUBLE_EQ(sharded->counters.cost_units -
                       sharded->counters.parallel_saved_units,
                   sharded->elapsed);
}

TEST_F(ShardFixture, BroadcastRepairMatchesUnsharded) {
  // Anchor partitioned off the join key: the planner replicates the small
  // dimension; results must not change.
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "measure"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  CheckAggByteIdentical(GroupByQuery(), parts);
  auto got = RunAtShards(&catalog, GroupByQuery(), 4, parts);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->shard_strategy.find("dim0:broadcast"), std::string::npos);
  EXPECT_GT(got->counters.rows_broadcast, 0);
}

TEST_F(ShardFixture, ShuffleRepairMatchesUnsharded) {
  // Partner partitioned off the join key: the planner shuffles it onto the
  // anchor's partitioning.
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "attr"};
  CheckAggByteIdentical(GroupByQuery(), parts);
  auto got = RunAtShards(&catalog, GroupByQuery(), 4, parts);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->shard_strategy.find("dim0:shuffle(id)"), std::string::npos);
  EXPECT_GT(got->counters.rows_shuffled, 0);
}

TEST_F(ShardFixture, RangePartitionedAnchorMatchesUnsharded) {
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kRange, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  CheckAggByteIdentical(GroupByQuery(), parts);
}

TEST_F(ShardFixture, RangePrunedShardsSkipExecutionWithoutChangingBytes) {
  // Range anchor + constant range on the partition column: pruned shards
  // are skipped as executors, and the answer still matches shards=1 bit
  // for bit (the skipped shards held no qualifying fact rows, and their
  // partners were broadcast, so they could contribute nothing).
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kRange, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  QuerySpec q = GroupByQuery();
  q.tables[0].predicate = MakeBetween("fk0", 0, 100);
  CheckAggByteIdentical(q, parts);

  auto got = RunAtShards(&catalog, q, 4, parts);
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->shard_strategy.find("pruned=3/4"), std::string::npos)
      << got->shard_strategy;
  ASSERT_EQ(got->shard_stats.size(), 4u);
  int zeroed = 0;
  for (const auto& st : got->shard_stats) {
    if (st.cost == 0 && st.output_rows == 0) ++zeroed;
  }
  EXPECT_EQ(zeroed, 3);

  // Skipping three of four executors shrinks the total clock versus the
  // same query with pruning unavailable (predicate on a non-key column
  // with matching selectivity shape is not comparable, so compare against
  // the hash-partitioned layout where pruning can never engage).
  PartitionMap hash_parts;
  hash_parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  hash_parts["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  auto unpruned = RunAtShards(&catalog, q, 4, hash_parts);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(unpruned->shard_strategy.find("pruned="), std::string::npos);
  EXPECT_LT(got->cost, unpruned->cost);
}

TEST_F(ShardFixture, NonAggRowsAreMultisetEqualAcrossShards) {
  // Join output order legitimately depends on the shard split; the row
  // *multiset* must not.
  const QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  auto base = RunAtShards(&catalog, q, 1, Colocated());
  ASSERT_TRUE(base.ok());
  const auto reference = SortedRows(*base);
  for (int shards : {2, 4}) {
    auto got = RunAtShards(&catalog, q, shards, Colocated());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->output_rows, base->output_rows) << "shards " << shards;
    EXPECT_EQ(SortedRows(*got), reference) << "shards " << shards;
    // Per-shard contributions sum to the total.
    int64_t contributed = 0;
    for (const auto& st : got->shard_stats) contributed += st.output_rows;
    EXPECT_EQ(contributed, got->output_rows);
  }
}

TEST_F(ShardFixture, ScalarAggregateAcrossShardsIncludingEmptyInput) {
  QuerySpec q = workload::StarQuery(2, {5000, 7000});
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"},
                  {AggFn::kMin, "fact.measure", "min_m"}};
  CheckAggByteIdentical(q, Colocated());

  // Empty input: every shard emits the init row; the merged result must be
  // the same single init row the plain engine emits.
  QuerySpec empty = q;
  empty.tables[0].predicate = MakeBetween("measure", -10, -1);
  CheckAggByteIdentical(empty, Colocated());
}

TEST_F(ShardFixture, RepeatRunsAreDeterministic) {
  // Fresh engines, same config: cost, elapsed, counters, and bytes agree —
  // threads notwithstanding.
  const QuerySpec q = GroupByQuery();
  PartitionMap parts;
  parts["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  parts["dim0"] = {PartitionSpec::Kind::kHash, "attr"};  // shuffle traffic
  auto a = RunAtShards(&catalog, q, 4, parts);
  auto b = RunAtShards(&catalog, q, 4, parts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(a->elapsed, b->elapsed);
  EXPECT_EQ(a->counters.rows_shuffled, b->counters.rows_shuffled);
  EXPECT_EQ(a->counters.rows_broadcast, b->counters.rows_broadcast);
  EXPECT_EQ(a->counters.morsels_stolen, b->counters.morsels_stolen);
  EXPECT_EQ(Flatten(*a), Flatten(*b));
  for (size_t s = 0; s < a->shard_stats.size(); ++s) {
    EXPECT_EQ(a->shard_stats[s].cost, b->shard_stats[s].cost);
    EXPECT_EQ(a->shard_stats[s].rows_shuffled,
              b->shard_stats[s].rows_shuffled);
  }
}

TEST_F(ShardFixture, ByteIdenticalUnderFaultSchedule) {
  // A seeded mid-query memory drop fires inside every shard engine; output
  // must not change at any shard count.
  EngineOptions eopts;
  eopts.spill_dir = SpillDir("fault");
  eopts.faults.MemoryDrop(100, 200);
  CheckAggByteIdentical(GroupByQuery(), Colocated(), eopts);
  auto got = RunAtShards(&catalog, GroupByQuery(), 4, Colocated(), eopts);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->faults.memory_drops, 0);  // the drops really fired
  fs::remove_all(eopts.spill_dir);
}

TEST_F(ShardFixture, IdenticalRowsAtEightPageGrants) {
  // Starved brokers: every shard spills under one shared spill root — the
  // per-shard engine-tag suffix keeps the directories collision-free. Under
  // aggregate shedding the single engine emits groups in shed order (sorted
  // runs, not one globally sorted stream), so the contract here is the row
  // multiset plus bit-exact repeatability per shard count.
  EngineOptions eopts;
  eopts.spill_dir = SpillDir("eight-pages");
  eopts.memory_pages = 8;
  const QuerySpec q = GroupByQuery();
  auto base = RunAtShards(&catalog, q, 1, Colocated(), eopts);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  for (int shards : {2, 4}) {
    auto got = RunAtShards(&catalog, q, shards, Colocated(), eopts);
    auto again = RunAtShards(&catalog, q, shards, Colocated(), eopts);
    ASSERT_TRUE(got.ok() && again.ok()) << "shards " << shards;
    EXPECT_EQ(got->output_rows, base->output_rows) << "shards " << shards;
    EXPECT_EQ(SortedRows(*got), SortedRows(*base)) << "shards " << shards;
    EXPECT_EQ(Flatten(*got), Flatten(*again)) << "shards " << shards;
    EXPECT_EQ(got->cost, again->cost) << "shards " << shards;
  }

  auto got = RunAtShards(&catalog, q, 4, Colocated(), eopts);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->counters.spill_pages, 0);  // it really spilled
  int64_t per_shard = 0;
  for (const auto& st : got->shard_stats) per_shard += st.spill_pages;
  EXPECT_EQ(per_shard, got->counters.spill_pages);
  fs::remove_all(eopts.spill_dir);
}

TEST_F(ShardFixture, ShardEngineTagsAreDistinct) {
  ShardOptions sopts;
  sopts.num_shards = 4;
  sopts.partitions = Colocated();
  ShardedEngine engine(&catalog, EngineOptions(), sopts);
  std::set<std::string> tags;
  for (int s = 0; s < 4; ++s) {
    const std::string& tag = engine.shard_engine(s)->engine_tag();
    EXPECT_NE(tag.find("-s" + std::to_string(s)), std::string::npos) << tag;
    tags.insert(tag);
  }
  EXPECT_EQ(tags.size(), 4u);
  EXPECT_EQ(engine.global_engine()->engine_tag().find("-s"),
            std::string::npos);
}

// ---- skew robustness -------------------------------------------------------

struct SkewFixture : ShardFixture {
  Catalog zipf_catalog;

  void SetUp() override {
    ShardFixture::SetUp();
    StarSchemaSpec spec;
    spec.fact_rows = 50000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 3;
    spec.fk_zipf_theta = 1.1;  // heavily skewed foreign keys
    BuildStarSchema(&zipf_catalog, spec);
  }
};

TEST_F(SkewFixture, ZipfKeysStayByteIdenticalAndStealingEngages) {
  // Hash-partitioning a Zipf fk0 loads a few shards heavily; stealing must
  // rebalance without changing a byte of the aggregate output.
  const QuerySpec q = GroupByQuery();
  auto base = RunAtShards(&zipf_catalog, q, 1, Colocated());
  ASSERT_TRUE(base.ok());
  const auto reference = Flatten(*base);
  for (int shards : {2, 4, 8}) {
    auto got = RunAtShards(&zipf_catalog, q, shards, Colocated());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Flatten(*got), reference) << "shards " << shards;
  }
  auto got = RunAtShards(&zipf_catalog, q, 4, Colocated());
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->counters.morsels_stolen, 0);
}

TEST_F(SkewFixture, MorselStealingReducesElapsedOnSkewedLoad) {
  const QuerySpec q = GroupByQuery();
  EngineOptions eopts;
  eopts.num_threads = 1;
  ShardOptions off;
  off.morsel_stealing = false;
  off.hotkey_handling = false;
  ShardOptions on = off;
  on.morsel_stealing = true;

  auto skewed = RunAtShards(&zipf_catalog, q, 4, Colocated(), eopts, off);
  auto balanced = RunAtShards(&zipf_catalog, q, 4, Colocated(), eopts, on);
  ASSERT_TRUE(skewed.ok() && balanced.ok());
  EXPECT_EQ(skewed->counters.morsels_stolen, 0);
  EXPECT_GT(balanced->counters.morsels_stolen, 0);
  EXPECT_LT(balanced->elapsed, skewed->elapsed);
  EXPECT_EQ(Flatten(*balanced), Flatten(*skewed));  // mitigation is free
}

struct HotKeyFixture : ::testing::Test {
  // A repartitioning join with one heavy hitter: probe(k, other, pay) is
  // hash-partitioned on `other` (so the anchor must re-shuffle on k), build
  // is partitioned on k and co-located with the re-keyed anchor. 30% of the
  // probe carries k == 7.
  Catalog catalog;
  QuerySpec q;
  PartitionMap parts;

  void SetUp() override {
    Table* probe = catalog.AddTable(
        "probe", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                         {"other", LogicalType::kInt64, 0, nullptr},
                         {"pay", LogicalType::kInt64, 0, nullptr}})).value();
    Rng rng(17);
    std::vector<int64_t> k = gen::Uniform(&rng, 28000, 0, 29999);
    k.insert(k.end(), 12000, 7);
    probe->SetColumnData(0, std::move(k));
    probe->SetColumnData(1, gen::Uniform(&rng, 40000, 0, 999999));
    probe->SetColumnData(2, gen::Uniform(&rng, 40000, 0, 10000));

    Table* build = catalog.AddTable(
        "build", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                         {"v", LogicalType::kInt64, 0, nullptr}})).value();
    build->SetColumnData(0, gen::Sequential(30000));
    build->SetColumnData(1, gen::Sequential(30000, 100));

    q.tables.push_back({"probe", nullptr});
    q.tables.push_back({"build", nullptr});
    q.joins.push_back({"probe", "k", "build", "k"});
    q.aggregates = {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "probe.pay", "sum_pay"}};

    parts["probe"] = {PartitionSpec::Kind::kHash, "other"};
    parts["build"] = {PartitionSpec::Kind::kHash, "k"};
  }

  StatusOr<QueryResult> Run(int shards, const ShardOptions& base,
                            ShardedEngine** out_engine = nullptr) {
    ShardOptions sopts = base;
    sopts.num_shards = shards;
    sopts.partitions = parts;
    EngineOptions eopts;
    eopts.num_threads = 1;
    engines_.push_back(
        std::make_unique<ShardedEngine>(&catalog, eopts, std::move(sopts)));
    ShardedEngine* engine = engines_.back().get();
    engine->AnalyzeAll();
    if (out_engine != nullptr) *out_engine = engine;
    return engine->Run(q, /*keep_rows=*/true);
  }

  std::vector<std::unique_ptr<ShardedEngine>> engines_;  ///< keep-alive
};

TEST_F(HotKeyFixture, HotKeyDiversionReducesElapsedAndFeedsStats) {
  ShardOptions off;
  off.morsel_stealing = false;
  off.hotkey_handling = false;
  ShardOptions on = off;
  on.hotkey_handling = true;

  auto skewed = Run(4, off);
  ShardedEngine* engine = nullptr;
  auto diverted = Run(4, on, &engine);
  ASSERT_TRUE(skewed.ok() && diverted.ok());

  // The anchor really re-shuffles (the precondition for detection)...
  EXPECT_NE(diverted->shard_strategy.find("probe:shuffle(k)"),
            std::string::npos);
  // ...the heavy hitter was found and diverted...
  EXPECT_EQ(skewed->counters.hot_keys, 0);
  EXPECT_GT(diverted->counters.hot_keys, 0);
  const HotKeySet* hot = engine->hotkeys()->Find("probe", "k");
  ASSERT_NE(hot, nullptr);
  EXPECT_TRUE(hot->Contains(7));
  // ...pinning its probe rows in place cuts the straggler: strictly less
  // shuffle traffic and a strictly better clock...
  EXPECT_LT(diverted->counters.rows_shuffled, skewed->counters.rows_shuffled);
  EXPECT_LT(diverted->elapsed, skewed->elapsed);
  // ...without changing the answer.
  EXPECT_EQ(ShardFixture::Flatten(*diverted), ShardFixture::Flatten(*skewed));

  // The measured frequency reaches the optimizer: the feedback cache now
  // holds the observed selectivity of `k = 7`.
  const double sel = engine->global_engine()->feedback()->Lookup(
      "probe", MakeCmp("k", CmpOp::kEq, 7));
  EXPECT_NEAR(sel, 12000.0 / 40000.0, 0.01);
}

TEST_F(HotKeyFixture, SingleHotKeyDegradationShrinksWithMitigationsOn) {
  // The E29 acceptance shape: degradation = elapsed(hot) / elapsed at one
  // shard. With mitigations on, the sharded run must be strictly closer to
  // linear scaling than with them off.
  ShardOptions off;
  off.morsel_stealing = false;
  off.hotkey_handling = false;
  ShardOptions on;
  on.morsel_stealing = true;
  on.hotkey_handling = true;

  auto serial = Run(1, off);
  auto unmitigated = Run(4, off);
  auto mitigated = Run(4, on);
  ASSERT_TRUE(serial.ok() && unmitigated.ok() && mitigated.ok());
  const double deg_off = unmitigated->elapsed / serial->elapsed;
  const double deg_on = mitigated->elapsed / serial->elapsed;
  EXPECT_LT(deg_on, deg_off);
  EXPECT_EQ(ShardFixture::Flatten(*mitigated),
            ShardFixture::Flatten(*unmitigated));
  EXPECT_EQ(ShardFixture::Flatten(*mitigated), ShardFixture::Flatten(*serial));
}

}  // namespace
}  // namespace rqp
