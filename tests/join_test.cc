#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/join_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "expr/simd.h"
#include "storage/data_generator.h"
#include "util/rng.h"

namespace rqp {
namespace {

/// r(id, v): id = 0..n-1, v = id*2. s(fk, w): fk uniform in [0, keys), w=fk.
struct JoinFixture {
  std::unique_ptr<Table> r, s;
  std::unique_ptr<SortedIndex> r_index;

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

    r_index = std::make_unique<SortedIndex>("r.id", 0);
    r_index->Build(*r);
  }

  OperatorPtr ScanR() const { return std::make_unique<TableScanOp>(r.get()); }
  OperatorPtr ScanS() const { return std::make_unique<TableScanOp>(s.get()); }
};

/// Reference join result: multiset of (s.fk, r.v) for s.fk == r.id.
std::map<std::pair<int64_t, int64_t>, int64_t> ReferenceJoin(
    const JoinFixture& f) {
  std::map<std::pair<int64_t, int64_t>, int64_t> expected;
  for (int64_t i = 0; i < f.s->num_rows(); ++i) {
    const int64_t fk = f.s->Value(0, i);
    if (fk < f.r->num_rows()) {
      expected[{fk, fk * 2}]++;
    }
  }
  return expected;
}

/// Collects (key, r.v) pair counts from a join operator's output.
std::map<std::pair<int64_t, int64_t>, int64_t> CollectPairs(
    Operator* op, size_t key_slot, size_t v_slot, ExecContext* ctx) {
  std::vector<RowBatch> out;
  EXPECT_TRUE(DrainOperator(op, ctx, &out).ok());
  std::map<std::pair<int64_t, int64_t>, int64_t> got;
  for (const auto& b : out) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      got[{b.row(r)[key_slot], b.row(r)[v_slot]}]++;
    }
  }
  return got;
}

TEST(HashJoinTest, MatchesReference) {
  JoinFixture f(1000, 5000, 1000);
  // probe = s, build = r; output slots: s.fk s.w r.id r.v
  HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  ExecContext ctx;
  auto got = CollectPairs(&join, 0, 3, &ctx);
  EXPECT_EQ(got, ReferenceJoin(f));
  EXPECT_EQ(join.output_slots(),
            (std::vector<std::string>{"s.fk", "s.w", "r.id", "r.v"}));
}

TEST(HashJoinTest, DuplicateBuildKeys) {
  // Build side with duplicate keys: r' has each id twice.
  JoinFixture f(10, 100, 10);
  auto r2 = std::make_unique<Table>(
      "r2", Schema({{"id", LogicalType::kInt64, 0, nullptr}}));
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < 10; ++i) { ids.push_back(i); ids.push_back(i); }
  r2->SetColumnData(0, std::move(ids));
  HashJoinOp join(f.ScanS(), std::make_unique<TableScanOp>(r2.get()),
                  "s.fk", "r2.id");
  ExecContext ctx;
  auto total = DrainOperator(&join, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 200);  // each of 100 s rows matches twice
}

TEST(HashJoinTest, EmptyProbe) {
  JoinFixture f(100, 100, 100);
  auto empty_scan = std::make_unique<TableScanOp>(
      f.s.get(), MakeCmp("fk", CmpOp::kLt, -1));
  HashJoinOp join(std::move(empty_scan), f.ScanR(), "s.fk", "r.id");
  ExecContext ctx;
  EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 0);
}

TEST(HashJoinTest, SpillsUnderMemoryPressure) {
  JoinFixture f(100000, 100000, 100000);
  MemoryBroker broker(8);
  ExecContext ctx(&broker);
  HashJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  ASSERT_TRUE(DrainOperator(&join, &ctx, nullptr).ok());
  EXPECT_GT(join.spill_fraction(), 0.5);
  EXPECT_GT(ctx.counters().spill_pages, 0);

  ExecContext rich;
  HashJoinOp join2(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  ASSERT_TRUE(DrainOperator(&join2, &rich, nullptr).ok());
  EXPECT_DOUBLE_EQ(join2.spill_fraction(), 0.0);
  EXPECT_LT(rich.cost(), ctx.cost());
}

TEST(HashJoinTest, BadKeySlotFailsOpen) {
  JoinFixture f(10, 10, 10);
  HashJoinOp join(f.ScanS(), f.ScanR(), "s.nope", "r.id");
  ExecContext ctx;
  EXPECT_FALSE(join.Open(&ctx).ok());
}

// ---- ProbeResident: dense and hashed kernels against a nested loop ---------

constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();

/// A table of (k, ord) rows: ord is the row's position, so a join output
/// names the exact build or probe row it came from.
std::unique_ptr<Table> KeyTable(const std::string& name,
                                const std::vector<int64_t>& keys) {
  auto t = std::make_unique<Table>(
      name, Schema({{"k", LogicalType::kInt64, 0, nullptr},
                    {"ord", LogicalType::kInt64, 0, nullptr}}));
  t->SetColumnData(0, keys);
  t->SetColumnData(1, gen::Sequential(static_cast<int64_t>(keys.size())));
  return t;
}

/// a + d with int64 wraparound: near the int64 ends it probes the other end.
int64_t WrapAdd(int64_t a, int64_t d) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(d));
}

/// Probe keys for `build`: every build key, misses around its range, keys
/// just past both ends, and both ends of int64, shuffled.
std::vector<int64_t> ProbeKeysFor(const std::vector<int64_t>& build) {
  std::vector<int64_t> keys = {kMin64, kMin64 + 1, kMax64 - 1, kMax64, 0, -1};
  if (build.empty()) return keys;
  const auto [lo, hi] = std::minmax_element(build.begin(), build.end());
  for (const int64_t edge : {*lo, *hi}) {
    for (int64_t d = -3; d <= 3; ++d) keys.push_back(WrapAdd(edge, d));
  }
  keys.insert(keys.end(), build.begin(), build.end());
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const int64_t b = build[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(build.size()) - 1))];
    keys.push_back(WrapAdd(b, rng.Uniform(-2, 2)));
  }
  Rng(9).Shuffle(&keys);
  return keys;
}

/// (probe index, build ord) pairs in nested-loop order: probe-key major,
/// build-row order within a key.
std::vector<std::pair<int64_t, int64_t>> NestedLoopPairs(
    const std::vector<int64_t>& probe, const std::vector<int64_t>& build) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (size_t i = 0; i < probe.size(); ++i) {
    for (size_t j = 0; j < build.size(); ++j) {
      if (probe[i] == build[j]) {
        out.emplace_back(static_cast<int64_t>(i), static_cast<int64_t>(j));
      }
    }
  }
  return out;
}

/// Builds `build` in memory, asserts which kernel ProbeResident runs, and
/// requires its exact pair sequence at both SIMD levels.
void ExpectProbeMatchesNestedLoop(const std::vector<int64_t>& build,
                                  bool dense) {
  const std::vector<int64_t> probe = ProbeKeysFor(build);
  auto b = KeyTable("b", build);
  auto p = KeyTable("p", probe);
  HashJoinOp join(std::make_unique<TableScanOp>(p.get()),
                  std::make_unique<TableScanOp>(b.get()), "p.k", "b.k");
  ExecContext ctx;
  ASSERT_TRUE(join.OpenBuild(&ctx).ok());
  ASSERT_TRUE(join.build_resident());
  EXPECT_EQ(join.dense_probe(), dense);
  const auto expected = NestedLoopPairs(probe, build);
  for (const SimdLevel simd : {SimdLevel::kScalar, ResolveSimdLevel(1)}) {
    HashJoinOp::ProbeScratch s;
    join.ProbeResident(probe.data(), probe.size(), simd, &s);
    std::vector<std::pair<int64_t, int64_t>> got;
    for (const auto& [i, r] : s.pairs) {
      const int64_t* row = join.BuildRow(s.parts[i], r);
      EXPECT_EQ(row[0], probe[i]);
      got.emplace_back(i, row[1]);
    }
    EXPECT_EQ(got, expected);
  }
  join.Close();
}

TEST(ProbeResidentTest, DenseUniqueKeys) {
  std::vector<int64_t> build = gen::Sequential(3000);
  Rng(1).Shuffle(&build);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/true);
}

TEST(ProbeResidentTest, DenseKeysWithTenRowsPerKey) {
  std::vector<int64_t> build;
  for (int64_t i = 0; i < 3000; ++i) build.push_back(100 + i % 300);
  Rng(2).Shuffle(&build);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/true);
}

TEST(ProbeResidentTest, SparseKeysStayHashed) {
  std::vector<int64_t> build;
  for (int64_t i = 0; i < 2000; ++i) build.push_back((i % 700) * 1000);
  Rng(3).Shuffle(&build);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/false);
}

TEST(ProbeResidentTest, NegativeDenseKeys) {
  std::vector<int64_t> build;
  for (int64_t i = 0; i < 2000; ++i) build.push_back(-1 - i % 900);
  Rng(4).Shuffle(&build);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/true);
}

TEST(ProbeResidentTest, Int64EndsStayHashed) {
  // max − min is 2^64 − 1: the span must not overflow into "dense".
  std::vector<int64_t> build = {kMax64, 7, kMin64, 8, kMax64, kMin64, 7};
  ExpectProbeMatchesNestedLoop(build, /*dense=*/false);
}

TEST(ProbeResidentTest, SpanThresholdIsTwoPerRow) {
  // 100 rows: keys 0..98 and one outlier. Span 199 = 2·rows − 1 is dense;
  // span 200 = 2·rows is hashed.
  std::vector<int64_t> build = gen::Sequential(99);
  build.push_back(199);
  Rng(5).Shuffle(&build);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/true);
  std::replace(build.begin(), build.end(), int64_t{199}, int64_t{200});
  ExpectProbeMatchesNestedLoop(build, /*dense=*/false);
  // The same spans shifted to the top of int64.
  for (int64_t& k : build) k = kMax64 - 200 + k;
  ExpectProbeMatchesNestedLoop(build, /*dense=*/false);
  std::replace(build.begin(), build.end(), kMax64, kMax64 - 1);
  ExpectProbeMatchesNestedLoop(build, /*dense=*/true);
}

TEST(ProbeResidentTest, EmptyAndOneRowBuilds) {
  ExpectProbeMatchesNestedLoop({}, /*dense=*/false);
  ExpectProbeMatchesNestedLoop({42}, /*dense=*/true);
  ExpectProbeMatchesNestedLoop({kMin64}, /*dense=*/true);
  ExpectProbeMatchesNestedLoop({kMax64}, /*dense=*/true);
}

TEST(ProbeResidentTest, ShrinkAfterDenseBuildFallsBackToSpillPath) {
  // A dense build (~10 rows per key) under an ample grant, then a capacity
  // drop before the probe: the drained join must shed partitions, take the
  // spill path, and still produce the nested-loop multiset.
  std::vector<int64_t> build;
  for (int64_t i = 0; i < 6000; ++i) build.push_back(i % 600);
  Rng(6).Shuffle(&build);
  std::vector<int64_t> probe;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) probe.push_back(rng.Uniform(-50, 650));
  auto b = KeyTable("b", build);
  auto p = KeyTable("p", probe);
  MemoryBroker broker(4096);
  ExecContext ctx(&broker);
  HashJoinOp join(std::make_unique<TableScanOp>(p.get()),
                  std::make_unique<TableScanOp>(b.get()), "p.k", "b.k");
  ASSERT_TRUE(join.OpenBuild(&ctx).ok());
  ASSERT_TRUE(join.dense_probe());
  broker.set_capacity(8);
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&join, &ctx, &out).ok());
  EXPECT_GT(ctx.counters().memory_revocations, 0);
  EXPECT_GT(ctx.counters().spill_partitions, 0);
  // Output slots: p.k p.ord b.k b.ord.
  std::vector<std::pair<int64_t, int64_t>> got;
  for (const RowBatch& batch : out) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      ASSERT_EQ(batch.row(r)[0], batch.row(r)[2]);
      got.emplace_back(batch.row(r)[1], batch.row(r)[3]);
    }
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, NestedLoopPairs(probe, build));
}

TEST(ProbeResidentTest, SpilledLevelMatchesOnlyResidentPartitions) {
  // A build twice its grant: OpenBuild spills some partitions, and the
  // hashed kernel probes the level as it stands. A spilled partition keeps
  // an empty table, so each key gets all of its nested-loop matches, in
  // build-row order, or none.
  std::vector<int64_t> build;
  for (int64_t i = 0; i < 3000; ++i) build.push_back((i % 1000) * 3);
  Rng(8).Shuffle(&build);
  const std::vector<int64_t> probe = ProbeKeysFor(build);
  auto b = KeyTable("b", build);
  auto p = KeyTable("p", probe);
  MemoryBroker broker(48);
  ExecContext ctx(&broker);
  HashJoinOp join(std::make_unique<TableScanOp>(p.get()),
                  std::make_unique<TableScanOp>(b.get()), "p.k", "b.k");
  ASSERT_TRUE(join.OpenBuild(&ctx).ok());
  ASSERT_FALSE(join.build_resident());
  ASSERT_FALSE(join.dense_probe());
  // Each probe key's build ords, in nested-loop order.
  std::vector<std::vector<int64_t>> want(probe.size());
  for (const auto& [i, j] : NestedLoopPairs(probe, build)) {
    want[static_cast<size_t>(i)].push_back(j);
  }
  for (const SimdLevel simd : {SimdLevel::kScalar, ResolveSimdLevel(1)}) {
    HashJoinOp::ProbeScratch s;
    join.ProbeResident(probe.data(), probe.size(), simd, &s);
    std::vector<std::vector<int64_t>> got(probe.size());
    uint32_t last = 0;
    for (const auto& [i, r] : s.pairs) {
      ASSERT_GE(i, last) << "pairs are not key-major";
      last = i;
      const int64_t* row = join.BuildRow(s.parts[i], r);
      EXPECT_EQ(row[0], probe[i]);
      got[i].push_back(row[1]);
    }
    int all = 0, none = 0;
    for (size_t i = 0; i < probe.size(); ++i) {
      if (want[i].empty() || got[i].empty()) {
        EXPECT_TRUE(got[i].empty()) << "probe key " << probe[i];
        none += !want[i].empty();
        continue;
      }
      EXPECT_EQ(got[i], want[i]) << "probe key " << probe[i];
      ++all;
    }
    EXPECT_GT(all, 0);
    EXPECT_GT(none, 0);
  }
  join.Close();
}

// ---- One emission: scan views and rows give the same batches --------------

/// What one drain of a spilling HashJoinOp produced.
struct EmissionRun {
  std::vector<RowBatch> batches;
  ExecCounters counters;
  /// The drain passed the recursion and the chunked-fallback levels inside
  /// one Next call that returned a full batch mixing two phases' rows.
  bool recursion_mid_batch = false;
  bool fallback_mid_batch = false;
};

/// True when p.ord (slot 1) decreases inside `b`: a new recursion task or
/// fallback chunk pass started within the batch, because each phase emits
/// its pairs in probe-row order.
bool OrdDecreasesWithin(const RowBatch& b) {
  for (size_t r = 1; r < b.num_rows(); ++r) {
    if (b.row(r)[1] < b.row(r - 1)[1]) return true;
  }
  return false;
}

/// Drains a join of `probe` against b(k, ord) under a 16-page grant: part
/// of the build spills at depth 0, recursion re-partitions it, and the heavy
/// key's partition spills again at every level until the chunked fallback
/// at depth HashJoinOp::kMaxRecursion.
EmissionRun DrainSpillingJoin(OperatorPtr probe, const Table* build) {
  constexpr int kMaxRecursion = HashJoinOp::kMaxRecursion;
  HashJoinOp join(std::move(probe), std::make_unique<TableScanOp>(build),
                  "p.k", "b.k");
  MemoryBroker broker(16);
  ExecContext ctx(&broker);
  EmissionRun run;
  EXPECT_TRUE(join.Open(&ctx).ok());
  while (true) {
    const int64_t depth = ctx.counters().spill_recursion_depth;
    RowBatch batch;
    EXPECT_TRUE(join.Next(&batch).ok());
    if (batch.empty()) break;
    const int64_t reached = ctx.counters().spill_recursion_depth;
    const bool mixed = batch.full() && OrdDecreasesWithin(batch);
    if (depth == 0 && reached >= 1 && mixed) run.recursion_mid_batch = true;
    if (depth < kMaxRecursion && reached >= kMaxRecursion && mixed) {
      run.fallback_mid_batch = true;
    }
    run.batches.push_back(std::move(batch));
  }
  join.Close();
  run.counters = ctx.counters();
  return run;
}

std::vector<std::vector<int64_t>> Rows(const std::vector<RowBatch>& batches) {
  std::vector<std::vector<int64_t>> rows;
  for (const RowBatch& b : batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      rows.emplace_back(b.row(r), b.row(r) + b.num_cols());
    }
  }
  return rows;
}

TEST(HashJoinEmissionTest, ScanViewsAndRowsEmitTheSameBatches) {
  // b: key 0 x 500 rows (more than the grant, so re-partitioning never
  // makes it fit) and keys 1..39 x 20 rows; p: 3000 rows whose keys all hit
  // the build.
  std::vector<int64_t> build_keys(500, 0);
  for (int64_t i = 0; i < 780; ++i) build_keys.push_back(1 + i % 39);
  Rng(21).Shuffle(&build_keys);
  std::vector<int64_t> probe_keys;
  Rng rng(22);
  for (int i = 0; i < 3000; ++i) probe_keys.push_back(rng.Uniform(0, 39));
  auto b = KeyTable("b", build_keys);
  auto p = KeyTable("p", probe_keys);

  // Unfiltered: dense views. Filtered: a scattered selection.
  for (const PredicatePtr& filter :
       {PredicatePtr(), MakeCmp("k", CmpOp::kNe, 7)}) {
    SCOPED_TRACE(filter == nullptr ? "dense views" : "selection views");
    // The same probe rows as a row source, in scan-sized batches.
    auto rows = std::make_shared<std::vector<RowBatch>>();
    {
      TableScanOp scan(p.get(), filter);
      ExecContext ctx;
      ASSERT_TRUE(DrainOperator(&scan, &ctx, rows.get()).ok());
    }
    int64_t probe_rows = 0;
    for (const RowBatch& batch : *rows) {
      probe_rows += static_cast<int64_t>(batch.num_rows());
    }

    const EmissionRun views = DrainSpillingJoin(
        std::make_unique<TableScanOp>(p.get(), filter), b.get());
    const EmissionRun source = DrainSpillingJoin(
        std::make_unique<VectorSourceOp>(
            rows, std::vector<std::string>{"p.k", "p.ord"}),
        b.get());

    EXPECT_TRUE(views.recursion_mid_batch);
    EXPECT_TRUE(views.fallback_mid_batch);
    const auto got = Rows(views.batches);
    EXPECT_EQ(got, Rows(source.batches));
    ASSERT_EQ(views.batches.size(), source.batches.size());
    for (size_t i = 0; i < views.batches.size(); ++i) {
      EXPECT_EQ(views.batches[i].num_rows(), source.batches[i].num_rows());
      if (i + 1 < views.batches.size()) {
        EXPECT_EQ(views.batches[i].num_rows(), kBatchRows) << "batch " << i;
      }
    }

    // Multiset against a nested loop over the probe rows the scan emits.
    std::vector<std::vector<int64_t>> want;
    for (const auto& prow : Rows(*rows)) {
      for (size_t j = 0; j < build_keys.size(); ++j) {
        if (prow[0] == build_keys[j]) {
          want.push_back({prow[0], prow[1], build_keys[j],
                          static_cast<int64_t>(j)});
        }
      }
    }
    auto sorted = got;
    std::sort(sorted.begin(), sorted.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sorted, want);

    // rows_materialized = view pairs emitted + spilled probe rows gathered
    // + build rows. Depth 0 emits first and in probe-row order, so its view
    // pairs are the output's longest prefix with non-decreasing p.ord; every
    // probe row has a match, so the probe rows it did not emit are exactly
    // those gathered into spill files.
    size_t view_pairs = 1;
    while (view_pairs < got.size() &&
           got[view_pairs][1] >= got[view_pairs - 1][1]) {
      ++view_pairs;
    }
    std::vector<int64_t> probed;
    for (size_t i = 0; i < view_pairs; ++i) probed.push_back(got[i][1]);
    probed.erase(std::unique(probed.begin(), probed.end()), probed.end());
    const int64_t gathered = probe_rows - static_cast<int64_t>(probed.size());
    EXPECT_GT(gathered, 0);
    EXPECT_EQ(views.counters.rows_materialized,
              static_cast<int64_t>(view_pairs) + gathered +
                  static_cast<int64_t>(build_keys.size()));
    EXPECT_EQ(views.counters.transposes_elided, probe_rows);
    // The row source materializes only the build rows.
    EXPECT_EQ(source.counters.rows_materialized,
              static_cast<int64_t>(build_keys.size()));
  }
}

TEST(MergeJoinTest, MatchesReferenceOnSortedInputs) {
  JoinFixture f(1000, 5000, 1000);
  auto sorted_s =
      std::make_unique<SortOp>(f.ScanS(), "s.fk");
  auto sorted_r =
      std::make_unique<SortOp>(f.ScanR(), "r.id");
  MergeJoinOp join(std::move(sorted_s), std::move(sorted_r), "s.fk", "r.id");
  ExecContext ctx;
  auto got = CollectPairs(&join, 0, 3, &ctx);
  EXPECT_EQ(got, ReferenceJoin(f));
}

TEST(MergeJoinTest, ManyToManyGroups) {
  // Left: key 5 x3; right: key 5 x4 -> 12 output rows.
  auto l = std::make_unique<Table>(
      "l", Schema({{"k", LogicalType::kInt64, 0, nullptr}}));
  l->SetColumnData(0, {1, 5, 5, 5, 9});
  auto r = std::make_unique<Table>(
      "r", Schema({{"k", LogicalType::kInt64, 0, nullptr}}));
  r->SetColumnData(0, {5, 5, 5, 5, 7});
  MergeJoinOp join(std::make_unique<TableScanOp>(l.get()),
                   std::make_unique<TableScanOp>(r.get()), "l.k", "r.k");
  ExecContext ctx;
  EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 12);
}

TEST(NestedLoopsJoinTest, CrossJoinWithoutPredicate) {
  JoinFixture f(200, 1000, 200);
  NestedLoopsJoinOp join(f.ScanS(), f.ScanR(), nullptr);  // 1000 * 200 rows
  ExecContext ctx;
  EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 200000);
}

TEST(NestedLoopsJoinTest, ThetaJoin) {
  auto l = std::make_unique<Table>(
      "l", Schema({{"k", LogicalType::kInt64, 0, nullptr}}));
  l->SetColumnData(0, {1, 2, 3});
  auto r = std::make_unique<Table>(
      "r", Schema({{"k", LogicalType::kInt64, 0, nullptr}}));
  r->SetColumnData(0, {2, 3, 4});
  // A conjunction with one single-side comparison per input.
  NestedLoopsJoinOp join(std::make_unique<TableScanOp>(l.get()),
                         std::make_unique<TableScanOp>(r.get()),
                         MakeAnd({MakeCmp("l.k", CmpOp::kGe, 2),
                                  MakeCmp("r.k", CmpOp::kLe, 3)}));
  ExecContext ctx;
  EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 4);  // {2,3}x{2,3}
}

TEST(NestedLoopsJoinTest, ThetaPredicatesMatchNestedLoopReference) {
  // l(k, v) and r(k, w) over negatives, small values and both int64 ends.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t pool[] = {kMin, kMin + 1, -9, -1, 0, 1, 2, 5, 9, kMax - 1,
                          kMax};
  Rng rng(31);
  auto column = [&](int64_t n) {
    std::vector<int64_t> v(static_cast<size_t>(n));
    const auto last = static_cast<int64_t>(std::size(pool)) - 1;
    for (auto& x : v) x = pool[rng.Uniform(0, last)];
    return v;
  };
  auto two_columns = [&](const std::string& name, const std::string& second,
                         int64_t n) {
    auto t = std::make_unique<Table>(
        name, Schema({{"k", LogicalType::kInt64, 0, nullptr},
                      {second, LogicalType::kInt64, 0, nullptr}}));
    t->SetColumnData(0, column(n));
    t->SetColumnData(1, column(n));
    return t;
  };
  auto l = two_columns("l", "v", 40);
  auto r = two_columns("r", "w", 60);

  const std::vector<int64_t> narrow = {-1, 0, 2};     // IN bitmap
  const std::vector<int64_t> wide = {kMin, 5, kMax};  // IN binary search
  auto in = [](const std::vector<int64_t>& set, int64_t x) {
    return std::find(set.begin(), set.end(), x) != set.end();
  };
  const PredicatePtr ge = MakeColCmp("l.k", CmpOp::kGe, "r.k");
  const PredicatePtr mixed = MakeAnd(
      {ge, MakeOr({MakeIn("l.v", narrow), MakeIn("r.w", wide),
                   MakeNot(MakeColCmp("l.v", CmpOp::kEq, "r.w"))})});
  for (const bool with_or : {false, true}) {
    NestedLoopsJoinOp join(std::make_unique<TableScanOp>(l.get()),
                           std::make_unique<TableScanOp>(r.get()),
                           with_or ? mixed : ge);
    ExecContext ctx;
    std::vector<RowBatch> out;
    ASSERT_TRUE(DrainOperator(&join, &ctx, &out).ok());
    std::vector<std::vector<int64_t>> got;
    for (const RowBatch& b : out) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        got.emplace_back(b.row(i), b.row(i) + b.num_cols());
      }
    }
    // Left-major pair order, as the operator emits.
    std::vector<std::vector<int64_t>> want;
    for (int64_t i = 0; i < l->num_rows(); ++i) {
      for (int64_t j = 0; j < r->num_rows(); ++j) {
        const int64_t lk = l->Value(0, i), lv = l->Value(1, i);
        const int64_t rk = r->Value(0, j), rw = r->Value(1, j);
        bool pass = EvalCmp(lk, CmpOp::kGe, rk);
        if (with_or) {
          pass = pass && (in(narrow, lv) || in(wide, rw) ||
                          !EvalCmp(lv, CmpOp::kEq, rw));
        }
        if (pass) want.push_back({lk, lv, rk, rw});
      }
    }
    EXPECT_EQ(got, want) << (with_or ? ToString(mixed) : ToString(ge));
    EXPECT_EQ(ctx.counters().predicate_evals,
              l->num_rows() * r->num_rows());
  }
}

TEST(IndexNLJoinTest, MatchesReference) {
  JoinFixture f(1000, 5000, 1000);
  IndexNLJoinOp join(f.ScanS(), f.r.get(), f.r_index.get(), "s.fk");
  ExecContext ctx;
  auto got = CollectPairs(&join, 0, 3, &ctx);
  EXPECT_EQ(got, ReferenceJoin(f));
  EXPECT_EQ(ctx.counters().random_reads, 5000);
}

TEST(IndexNLJoinTest, InnerProjectionFetchesOnlyItsColumns) {
  JoinFixture f(1000, 5000, 1000);
  IndexNLJoinOp full(f.ScanS(), f.r.get(), f.r_index.get(), "s.fk");
  IndexNLJoinOp pruned(f.ScanS(), f.r.get(), f.r_index.get(), "s.fk", {"v"});
  EXPECT_EQ(pruned.output_slots(),
            (std::vector<std::string>{"s.fk", "s.w", "r.v"}));
  ExecContext full_ctx, pruned_ctx;
  std::vector<RowBatch> full_rows, pruned_rows;
  ASSERT_TRUE(DrainOperator(&full, &full_ctx, &full_rows).ok());
  ASSERT_TRUE(DrainOperator(&pruned, &pruned_ctx, &pruned_rows).ok());
  // The same matches in the same order, minus the unprojected r.id.
  std::vector<std::vector<int64_t>> want, got;
  for (const RowBatch& b : full_rows) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      want.push_back({b.row(i)[0], b.row(i)[1], b.row(i)[3]});
    }
  }
  for (const RowBatch& b : pruned_rows) {
    ASSERT_EQ(b.num_cols(), 3u);
    for (size_t i = 0; i < b.num_rows(); ++i) {
      got.emplace_back(b.row(i), b.row(i) + 3);
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 5000u);
  // Row width moves no charge.
  EXPECT_EQ(pruned_ctx.cost(), full_ctx.cost());
  EXPECT_EQ(pruned_ctx.counters().random_reads,
            full_ctx.counters().random_reads);
}

TEST(IndexNLJoinTest, UnknownInnerProjectionFailsAtOpen) {
  JoinFixture f(10, 10, 10);
  IndexNLJoinOp join(f.ScanS(), f.r.get(), f.r_index.get(), "s.fk",
                     {"nope"});
  ExecContext ctx;
  EXPECT_EQ(join.Open(&ctx).code(), StatusCode::kInvalidArgument);
}

TEST(IndexNLJoinTest, CheapForTinyOuterExpensiveForLargeOuter) {
  JoinFixture f(50000, 50000, 50000);
  // Tiny outer.
  {
    auto outer = std::make_unique<TableScanOp>(
        f.s.get(), MakeCmp("w", CmpOp::kLt, 50));  // ~50 rows
    IndexNLJoinOp join(std::move(outer), f.r.get(), f.r_index.get(), "s.fk");
    ExecContext inlj_ctx;
    ASSERT_TRUE(DrainOperator(&join, &inlj_ctx, nullptr).ok());
    HashJoinOp hj(std::make_unique<TableScanOp>(
                      f.s.get(), MakeCmp("w", CmpOp::kLt, 50)),
                  f.ScanR(), "s.fk", "r.id");
    ExecContext hj_ctx;
    ASSERT_TRUE(DrainOperator(&hj, &hj_ctx, nullptr).ok());
    EXPECT_LT(inlj_ctx.cost(), hj_ctx.cost());
  }
  // Large outer: index NL is the disaster.
  {
    IndexNLJoinOp join(f.ScanS(), f.r.get(), f.r_index.get(), "s.fk");
    ExecContext inlj_ctx;
    ASSERT_TRUE(DrainOperator(&join, &inlj_ctx, nullptr).ok());
    HashJoinOp hj(f.ScanS(), f.ScanR(), "s.fk", "r.id");
    ExecContext hj_ctx;
    ASSERT_TRUE(DrainOperator(&hj, &hj_ctx, nullptr).ok());
    EXPECT_GT(inlj_ctx.cost(), 5.0 * hj_ctx.cost());
  }
}

/// Reference join rows (s.fk, s.w, r.id, r.v), sorted, over the s rows with
/// w < `w_below`.
std::vector<std::vector<int64_t>> ReferenceRows(
    const JoinFixture& f,
    int64_t w_below = std::numeric_limits<int64_t>::max()) {
  std::vector<std::vector<int64_t>> rows;
  for (int64_t i = 0; i < f.s->num_rows(); ++i) {
    const int64_t fk = f.s->Value(0, i);
    const int64_t w = f.s->Value(1, i);
    if (w < w_below && fk < f.r->num_rows()) {
      rows.push_back({fk, w, fk, fk * 2});
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// An operator's output rows, whole and in slot order, sorted.
std::vector<std::vector<int64_t>> SortedRows(Operator* op, ExecContext* ctx) {
  std::vector<RowBatch> out;
  EXPECT_TRUE(DrainOperator(op, ctx, &out).ok());
  std::vector<std::vector<int64_t>> rows;
  for (const auto& b : out) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      rows.emplace_back(b.row(r), b.row(r) + b.num_cols());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(GJoinTest, MatchesReferenceAllStrategies) {
  // Full rows, column order included: build=left runs the hash join with
  // its inputs swapped and writes each pair back in (left, right) order.
  JoinFixture f(1000, 5000, 1000);
  auto small_outer = [&] {
    return std::make_unique<TableScanOp>(f.s.get(),
                                         MakeCmp("w", CmpOp::kLt, 3));
  };
  {
    GJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
    ExecContext ctx;
    EXPECT_EQ(SortedRows(&join, &ctx), ReferenceRows(f));
    EXPECT_EQ(join.chosen_strategy(), "hash(build=right)");
  }
  {
    GJoinOp join(small_outer(), f.ScanR(), "s.fk", "r.id");
    ExecContext ctx;
    EXPECT_EQ(SortedRows(&join, &ctx), ReferenceRows(f, 3));
    EXPECT_EQ(join.chosen_strategy(), "hash(build=left)");
  }
  {
    GJoinOp join(small_outer(), f.ScanR(), "s.fk", "r.id", f.r_index.get());
    ExecContext ctx;
    EXPECT_EQ(SortedRows(&join, &ctx), ReferenceRows(f, 3));
    EXPECT_EQ(join.chosen_strategy(), "index");
  }
  EXPECT_FALSE(ReferenceRows(f, 3).empty());
}

TEST(GJoinTest, IndexStandsInOnlyForAWholeTableScan) {
  // The index probes the raw table, so a right child that filters or
  // reorders the table's columns must be joined by hash.
  JoinFixture f(1000, 5000, 1000);
  {
    // Large outer, right filter rejects everything: the join is empty.
    GJoinOp join(f.ScanS(),
                 std::make_unique<TableScanOp>(f.r.get(),
                                               MakeCmp("v", CmpOp::kLt, -1)),
                 "s.fk", "r.id", f.r_index.get());
    ExecContext ctx;
    EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 0);
    EXPECT_EQ(join.chosen_strategy(), "hash(build=right)");
  }
  {
    // Tiny outer (fk < 3), right keeps only v >= 100 (id >= 50): empty.
    GJoinOp join(std::make_unique<TableScanOp>(f.s.get(),
                                               MakeCmp("w", CmpOp::kLt, 3)),
                 std::make_unique<TableScanOp>(f.r.get(),
                                               MakeCmp("v", CmpOp::kGe, 100)),
                 "s.fk", "r.id", f.r_index.get());
    ExecContext ctx;
    EXPECT_EQ(DrainOperator(&join, &ctx, nullptr).value(), 0);
    EXPECT_EQ(join.chosen_strategy(), "hash(build=left)");
  }
  {
    // Every row, columns reordered: the rows keep the child's (v, id) order.
    GJoinOp join(std::make_unique<TableScanOp>(f.s.get(),
                                               MakeCmp("w", CmpOp::kLt, 3)),
                 std::make_unique<TableScanOp>(
                     f.r.get(), nullptr, std::vector<std::string>{"v", "id"}),
                 "s.fk", "r.id", f.r_index.get());
    ExecContext ctx;
    auto expected = ReferenceRows(f, 3);
    for (auto& row : expected) std::swap(row[2], row[3]);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(SortedRows(&join, &ctx), expected);
    EXPECT_EQ(join.chosen_strategy(), "hash(build=left)");
  }
}

TEST(GJoinTest, BuildsOnActuallySmallerSide) {
  // Optimizer would not know; g-join discovers at run time that the left
  // input (after filtering) is smaller and builds there.
  JoinFixture f(10000, 50000, 10000);
  auto small_left = std::make_unique<TableScanOp>(
      f.s.get(), MakeCmp("w", CmpOp::kLt, 100));
  GJoinOp join(std::move(small_left), f.ScanR(), "s.fk", "r.id");
  ExecContext ctx;
  ASSERT_TRUE(DrainOperator(&join, &ctx, nullptr).ok());
  EXPECT_EQ(join.chosen_strategy(), "hash(build=left)");
}

TEST(GJoinTest, HashStrategySpillsUnderAnEightPageGrant) {
  // The hash strategy is HashJoinOp: under memory pressure it writes real
  // spill partitions and still returns the reference rows.
  JoinFixture f(20000, 50000, 20000);
  MemoryBroker broker(8);
  ExecContext ctx(&broker);
  GJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
  EXPECT_EQ(SortedRows(&join, &ctx), ReferenceRows(f));
  EXPECT_EQ(join.chosen_strategy(), "hash(build=right)");
  EXPECT_GT(ctx.counters().spill_partitions, 0);
  EXPECT_GT(ctx.counters().spill_pages, 0);
  EXPECT_EQ(broker.used(), 0);
}

TEST(GJoinTest, BudgetTripInsideTheHashProbeReturnsTheBuildGrant) {
  // build=right holds its build pages, in HashJoinOp's grants, through the
  // probe; after a cost budget trips inside the probe, Close() must return
  // them to a broker that later queries share.
  JoinFixture f(1000, 50000, 1000);
  MemoryBroker broker;
  double full_cost = 0;
  {
    ExecContext ctx(&broker);
    GJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
    ASSERT_TRUE(DrainOperator(&join, &ctx, nullptr).ok());
    ASSERT_EQ(join.chosen_strategy(), "hash(build=right)");
    full_cost = ctx.cost();
  }
  ASSERT_EQ(broker.used(), 0);
  for (const double fraction : {0.90, 0.95, 0.99}) {
    {
      ExecContext ctx(&broker);
      ctx.set_cost_budget(fraction * full_cost);
      GJoinOp join(f.ScanS(), f.ScanR(), "s.fk", "r.id");
      ASSERT_FALSE(DrainOperator(&join, &ctx, nullptr).ok());
      ASSERT_TRUE(ctx.has_trip());
      EXPECT_GT(broker.used(), 0) << "budget at " << fraction << "x";
      join.Close();
      EXPECT_EQ(broker.used(), 0) << "budget at " << fraction << "x";
    }
    EXPECT_EQ(broker.used(), 0) << "budget at " << fraction << "x";
  }
}

TEST(StreamedChildTest, NestedLoopJoinsCloseTheirHashJoinInputAtEof) {
  // A hash join streamed as the outer input holds its 1-page progress
  // minimum until it is closed: the consumer closes it at EOF, as HashJoinOp
  // does with its probe input, so a drained tree holds no pages.
  JoinFixture f(100, 500, 100);
  MemoryBroker broker;
  ExecContext ctx(&broker);
  {
    IndexNLJoinOp join(
        std::make_unique<HashJoinOp>(f.ScanS(), f.ScanR(), "s.fk", "r.id"),
        f.r.get(), f.r_index.get(), "s.fk");
    auto drained = DrainOperator(&join, &ctx, nullptr);
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(*drained, 500);
    EXPECT_EQ(broker.used(), 0);
  }
  {
    NestedLoopsJoinOp join(
        std::make_unique<HashJoinOp>(f.ScanS(), f.ScanR(), "s.fk", "r.id"),
        f.ScanR(), nullptr);
    auto drained = DrainOperator(&join, &ctx, nullptr);
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(*drained, 500 * 100);
    EXPECT_EQ(broker.used(), 0);
  }
}

TEST(JoinPipelineTest, JoinFeedsAggregation) {
  JoinFixture f(100, 10000, 100);
  auto join = std::make_unique<HashJoinOp>(f.ScanS(), f.ScanR(), "s.fk",
                                           "r.id");
  HashAggOp agg(std::move(join), {}, {{AggFn::kCount, "", "cnt"}});
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row(0)[0], 10000);
}

}  // namespace
}  // namespace rqp
