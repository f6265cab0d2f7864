#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/filter_ops.h"
#include "exec/scan_ops.h"
#include "exec/shared_scan.h"
#include "exec/sort_agg_ops.h"
#include "expr/expr.h"
#include "expr/pred_program.h"
#include "storage/data_generator.h"
#include "util/rng.h"

namespace rqp {
namespace {

/// Builds t(a, b) with a = 0..n-1 and b = a % 10.
std::unique_ptr<Table> MakeTable(int64_t n) {
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr},
                   {"b", LogicalType::kInt64, 0, nullptr}}));
  std::vector<int64_t> a = gen::Sequential(n), b(static_cast<size_t>(n));
  for (size_t i = 0; i < b.size(); ++i) b[i] = a[i] % 10;
  t->SetColumnData(0, std::move(a));
  t->SetColumnData(1, std::move(b));
  return t;
}

TEST(TableScanTest, FullScanProducesAllRows) {
  auto t = MakeTable(5000);
  TableScanOp scan(t.get());
  ExecContext ctx;
  auto total = DrainOperator(&scan, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 5000);
  EXPECT_EQ(scan.rows_produced(), 5000);
  EXPECT_EQ(ctx.counters().pages_read, t->num_pages());
  EXPECT_EQ(scan.output_slots(), (std::vector<std::string>{"t.a", "t.b"}));
}

TEST(TableScanTest, InlineFilter) {
  auto t = MakeTable(5000);
  TableScanOp scan(t.get(), MakeCmp("b", CmpOp::kEq, 3));
  ExecContext ctx;
  auto total = DrainOperator(&scan, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 500);
  // Filter does not reduce the scan I/O.
  EXPECT_EQ(ctx.counters().pages_read, t->num_pages());
}

TEST(TableScanTest, ProjectionSubset) {
  auto t = MakeTable(100);
  TableScanOp scan(t.get(), nullptr, {"b"});
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&scan, &ctx, &out).ok());
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].num_cols(), 1u);
  EXPECT_EQ(scan.output_slots(), (std::vector<std::string>{"t.b"}));
}

TEST(TableScanTest, FilterCanUseNonProjectedColumn) {
  auto t = MakeTable(100);
  TableScanOp scan(t.get(), MakeCmp("a", CmpOp::kLt, 10), {"b"});
  ExecContext ctx;
  auto total = DrainOperator(&scan, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 10);
}

TEST(TableScanTest, BadProjectionFailsOpen) {
  auto t = MakeTable(10);
  TableScanOp scan(t.get(), nullptr, {"zzz"});
  ExecContext ctx;
  EXPECT_FALSE(scan.Open(&ctx).ok());
}

TEST(IndexScanTest, RangeMatchesAndCosts) {
  auto t = MakeTable(10000);
  SortedIndex idx("t.a", 0);
  idx.Build(*t);
  IndexScanOp scan(t.get(), &idx, 100, 199);
  ExecContext ctx;
  auto total = DrainOperator(&scan, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 100);
  EXPECT_EQ(ctx.counters().random_reads, 100);
  // Low selectivity: index scan must be far cheaper than the full scan.
  ExecContext full_ctx;
  TableScanOp full(t.get(), MakeBetween("a", 100, 199));
  ASSERT_TRUE(DrainOperator(&full, &full_ctx, nullptr).ok());
  EXPECT_LT(ctx.cost(), full_ctx.cost());
}

TEST(IndexScanTest, HighSelectivityCostsMoreThanScan) {
  auto t = MakeTable(20000);
  SortedIndex idx("t.a", 0);
  idx.Build(*t);
  IndexScanOp scan(t.get(), &idx, 0, 19999);  // everything, random fetches
  ExecContext ctx;
  ASSERT_TRUE(DrainOperator(&scan, &ctx, nullptr).ok());
  ExecContext full_ctx;
  TableScanOp full(t.get());
  ASSERT_TRUE(DrainOperator(&full, &full_ctx, nullptr).ok());
  EXPECT_GT(ctx.cost(), full_ctx.cost());  // the plan cliff's other side
}

TEST(IndexScanTest, ResidualFilterApplies) {
  auto t = MakeTable(1000);
  SortedIndex idx("t.a", 0);
  idx.Build(*t);
  IndexScanOp scan(t.get(), &idx, 0, 99, MakeCmp("b", CmpOp::kEq, 7));
  ExecContext ctx;
  auto total = DrainOperator(&scan, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 10);
}

TEST(VectorSourceTest, ReplaysBatches) {
  auto batches = std::make_shared<std::vector<RowBatch>>();
  RowBatch b(2);
  b.AppendRow({1, 2});
  b.AppendRow({3, 4});
  batches->push_back(b);
  VectorSourceOp src(batches, {"x", "y"});
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&src, &ctx, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row(1)[1], 4);
}

TEST(FilterOpTest, FiltersOnQualifiedSlots) {
  auto t = MakeTable(1000);
  auto scan = std::make_unique<TableScanOp>(t.get());
  FilterOp filter(std::move(scan), MakeCmp("t.b", CmpOp::kEq, 0));
  ExecContext ctx;
  auto total = DrainOperator(&filter, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 100);
}

// ---- MapOp: scan views and rows give the same batches ---------------------

/// The rows MapOp sees in MapOpTest: `kept` holds the K rows (a, b, keep=1)
/// with a = 0..K-1 and b in [0, 99]; `full`, also named t, interleaves them
/// with keep=0 decoys, so scanning it with `keep = 1` selects exactly the
/// kept rows through a scattered selection.
struct MapInputs {
  std::unique_ptr<Table> kept, full;
  std::shared_ptr<std::vector<RowBatch>> batches;  ///< kept rows, 1024/batch
  std::vector<std::string> slots = {"t.a", "t.b", "t.keep"};

  MapInputs() {
    Rng rng(17);
    std::vector<int64_t> ka, kb, fa, fb, fkeep;
    for (int64_t i = 0; i < 5000; ++i) {
      const int64_t b = rng.Uniform(0, 99);
      if (rng.Uniform(0, 9) < 6) {
        fa.push_back(static_cast<int64_t>(ka.size()));
        ka.push_back(fa.back());
        kb.push_back(b);
        fkeep.push_back(1);
      } else {
        fa.push_back(-1 - i);
        fkeep.push_back(0);
      }
      fb.push_back(b);
    }
    const Schema schema({{"a", LogicalType::kInt64, 0, nullptr},
                         {"b", LogicalType::kInt64, 0, nullptr},
                         {"keep", LogicalType::kInt64, 0, nullptr}});
    kept = std::make_unique<Table>("t", schema);
    full = std::make_unique<Table>("t", schema);
    batches = std::make_shared<std::vector<RowBatch>>();
    for (size_t i = 0; i < ka.size(); ++i) {
      if (i % kBatchRows == 0) batches->emplace_back(3);
      batches->back().AppendRow({ka[i], kb[i], 1});
    }
    kept->SetColumnData(2, std::vector<int64_t>(ka.size(), 1));
    kept->SetColumnData(0, std::move(ka));
    kept->SetColumnData(1, std::move(kb));
    full->SetColumnData(0, std::move(fa));
    full->SetColumnData(1, std::move(fb));
    full->SetColumnData(2, std::move(fkeep));
  }

  /// A dense scan, a filtered scan and a row source of the same rows.
  std::vector<OperatorPtr> Children() const {
    std::vector<OperatorPtr> children;
    children.push_back(std::make_unique<TableScanOp>(kept.get()));
    children.push_back(std::make_unique<TableScanOp>(
        full.get(), MakeCmp("keep", CmpOp::kEq, 1)));
    children.push_back(std::make_unique<VectorSourceOp>(batches, slots));
    return children;
  }
};

/// Drains `map` batch by batch until EOF or the first error.
Status DrainBatches(MapOp* map, std::vector<RowBatch>* out) {
  ExecContext ctx;
  RQP_RETURN_IF_ERROR(map->Open(&ctx));
  while (true) {
    RowBatch batch;
    RQP_RETURN_IF_ERROR(map->Next(&batch));
    if (batch.empty()) break;
    out->push_back(std::move(batch));
  }
  map->Close();
  return Status::OK();
}

TEST(MapOpTest, ScanViewsAndRowsGiveTheSameBatches) {
  const MapInputs in;
  const auto a = [] { return MakeColExpr("t.a"); };
  const auto b = [] { return MakeColExpr("t.b"); };
  const std::vector<DerivedColumn> derived = {
      {"m", MakeArith(MakeArith(a(), ArithOp::kMul, MakeConstExpr(3)),
                      ArithOp::kAdd, b())},
      {"d", MakeArith(a(), ArithOp::kSub, b())},
      {"c", MakeCaseExpr(MakeCmpExpr(a(), CmpOp::kGt, b()), a(), b())},
      {"q", MakeArith(MakeArith(a(), ArithOp::kAdd, MakeConstExpr(11)),
                      ArithOp::kDiv,
                      MakeArith(b(), ArithOp::kAdd, MakeConstExpr(1000)))}};
  std::vector<std::vector<RowBatch>> outs;
  for (OperatorPtr& child : in.Children()) {
    MapOp map(std::move(child), derived);
    outs.emplace_back();
    ASSERT_TRUE(DrainBatches(&map, &outs.back()).ok());
  }
  // The derived values against the tree-walk oracle.
  std::vector<CompiledExpr> oracle;
  for (const DerivedColumn& d : derived) {
    oracle.push_back(CompiledExpr::Compile(d.expr, in.slots).value());
  }
  int64_t rows = 0;
  for (const RowBatch& batch : outs[0]) {
    ASSERT_EQ(batch.num_cols(), in.slots.size() + derived.size());
    for (size_t r = 0; r < batch.num_rows(); ++r, ++rows) {
      const int64_t* row = batch.row(r);
      ASSERT_EQ(row[0], rows);
      for (size_t d = 0; d < derived.size(); ++d) {
        int64_t want = 0;
        ASSERT_TRUE(oracle[d].Eval(row, &want).ok());
        EXPECT_EQ(row[in.slots.size() + d], want) << "row " << rows;
      }
    }
  }
  EXPECT_EQ(rows, in.kept->num_rows());
  // Same row sequences and the same batch boundaries from all three.
  for (size_t k = 1; k < outs.size(); ++k) {
    ASSERT_EQ(outs[k].size(), outs[0].size()) << "child " << k;
    for (size_t i = 0; i < outs[0].size(); ++i) {
      EXPECT_EQ(outs[k][i].data(), outs[0][i].data())
          << "child " << k << " batch " << i;
    }
  }
}

TEST(MapOpTest, DivisionByZeroFailsAtTheSameBatch) {
  // 1000 / (a - 1500) divides by zero at kept row 1500: the second batch.
  const MapInputs in;
  const std::vector<DerivedColumn> derived = {
      {"twice", MakeArith(MakeColExpr("t.a"), ArithOp::kMul,
                          MakeConstExpr(2))},
      {"q", MakeArith(MakeConstExpr(1000), ArithOp::kDiv,
                      MakeArith(MakeColExpr("t.a"), ArithOp::kSub,
                                MakeConstExpr(1500)))}};
  std::vector<std::vector<RowBatch>> outs;
  for (OperatorPtr& child : in.Children()) {
    MapOp map(std::move(child), derived);
    outs.emplace_back();
    const Status st = DrainBatches(&map, &outs.back());
    EXPECT_EQ(st.ToString(), ExprDivisionByZero().ToString());
    ASSERT_EQ(outs.back().size(), 1u);
    EXPECT_EQ(outs.back()[0].num_rows(), kBatchRows);
  }
  EXPECT_EQ(outs[1][0].data(), outs[0][0].data());
  EXPECT_EQ(outs[2][0].data(), outs[0][0].data());
}

TEST(AdaptiveFilterTest, ProducesSameRowsAsStatic) {
  auto t = MakeTable(20000);
  std::vector<PredicatePtr> preds{
      MakeCmp("t.b", CmpOp::kLe, 7),      // pass rate 0.8
      MakeCmp("t.a", CmpOp::kLt, 2000),   // pass rate 0.1
      MakeCmp("t.b", CmpOp::kGe, 1),      // pass rate 0.9
  };
  int64_t rows_static = 0, rows_adaptive = 0;
  {
    AdaptiveFilterOp::Options opt;
    opt.adaptive = false;
    AdaptiveFilterOp f(std::make_unique<TableScanOp>(t.get()), preds, opt);
    ExecContext ctx;
    rows_static = DrainOperator(&f, &ctx, nullptr).value();
  }
  {
    AdaptiveFilterOp::Options opt;
    AdaptiveFilterOp f(std::make_unique<TableScanOp>(t.get()), preds, opt);
    ExecContext ctx;
    rows_adaptive = DrainOperator(&f, &ctx, nullptr).value();
  }
  EXPECT_EQ(rows_static, rows_adaptive);
}

TEST(AdaptiveFilterTest, AdaptiveDoesFewerEvaluationsOnBadOrder) {
  auto t = MakeTable(50000);
  // Worst static order: least selective first.
  std::vector<PredicatePtr> preds{
      MakeCmp("t.b", CmpOp::kLe, 8),     // 0.9 pass
      MakeCmp("t.b", CmpOp::kLe, 5),     // 0.6 pass
      MakeCmp("t.a", CmpOp::kLt, 500),   // 0.01 pass
  };
  int64_t evals_static = 0, evals_adaptive = 0;
  {
    AdaptiveFilterOp::Options opt;
    opt.adaptive = false;
    AdaptiveFilterOp f(std::make_unique<TableScanOp>(t.get()), preds, opt);
    ExecContext ctx;
    ASSERT_TRUE(DrainOperator(&f, &ctx, nullptr).ok());
    evals_static = ctx.counters().predicate_evals;
  }
  {
    AdaptiveFilterOp f(std::make_unique<TableScanOp>(t.get()), preds,
                       AdaptiveFilterOp::Options{});
    ExecContext ctx;
    ASSERT_TRUE(DrainOperator(&f, &ctx, nullptr).ok());
    evals_adaptive = ctx.counters().predicate_evals;
  }
  EXPECT_LT(evals_adaptive, evals_static);
}

TEST(SortOpTest, SortsAscending) {
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(3);
  t->SetColumnData(0, gen::Permutation(&rng, 5000));
  SortOp sort(std::make_unique<TableScanOp>(t.get()), "t.a");
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&sort, &ctx, &out).ok());
  int64_t expected = 0;
  for (const auto& b : out) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      EXPECT_EQ(b.row(r)[0], expected++);
    }
  }
  EXPECT_EQ(expected, 5000);
  EXPECT_EQ(sort.external_passes(), 0);  // default broker is huge
}

TEST(SortOpTest, ExternalPassesUnderMemoryPressure) {
  auto t = std::make_unique<Table>(
      "t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(4);
  t->SetColumnData(0, gen::Permutation(&rng, 100000));  // ~391 pages
  MemoryBroker broker(4);
  ExecContext ctx(&broker);
  SortOp sort(std::make_unique<TableScanOp>(t.get()), "t.a");
  ASSERT_TRUE(DrainOperator(&sort, &ctx, nullptr).ok());
  EXPECT_GT(sort.external_passes(), 0);
  EXPECT_GT(ctx.counters().spill_pages, 0);

  // Same sort with ample memory is cheaper.
  ExecContext rich_ctx;
  SortOp rich_sort(std::make_unique<TableScanOp>(t.get()), "t.a");
  ASSERT_TRUE(DrainOperator(&rich_sort, &rich_ctx, nullptr).ok());
  EXPECT_LT(rich_ctx.cost(), ctx.cost());
}

TEST(HashAggTest, GroupedCounts) {
  auto t = MakeTable(1000);
  HashAggOp agg(std::make_unique<TableScanOp>(t.get()), {"t.b"},
                {{AggFn::kCount, "", "cnt"},
                 {AggFn::kSum, "t.a", "sum_a"},
                 {AggFn::kMin, "t.a", "min_a"},
                 {AggFn::kMax, "t.a", "max_a"}});
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].num_rows(), 10u);
  // Group b=0: rows 0,10,...,990.
  const int64_t* row0 = out[0].row(0);
  EXPECT_EQ(row0[0], 0);     // group key
  EXPECT_EQ(row0[1], 100);   // count
  EXPECT_EQ(row0[3], 0);     // min
  EXPECT_EQ(row0[4], 990);   // max
}

TEST(HashAggTest, GlobalAggregateOnEmptyInput) {
  auto t = MakeTable(100);
  HashAggOp agg(
      std::make_unique<TableScanOp>(t.get(), MakeCmp("a", CmpOp::kLt, -1)),
      {}, {{AggFn::kCount, "", "cnt"}});
  ExecContext ctx;
  std::vector<RowBatch> out;
  ASSERT_TRUE(DrainOperator(&agg, &ctx, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row(0)[0], 0);
}

TEST(CheckOpTest, PassesThroughWithinRange) {
  auto t = MakeTable(1000);
  CheckOp check(std::make_unique<TableScanOp>(t.get()), 1000, 500, 2000);
  check.set_plan_node_id(7);
  ExecContext ctx;
  auto total = DrainOperator(&check, &ctx, nullptr);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1000);
  EXPECT_FALSE(ctx.has_reopt_request());
}

TEST(CheckOpTest, RaisesReoptOnViolation) {
  auto t = MakeTable(1000);
  CheckOp check(std::make_unique<TableScanOp>(t.get()), 10, 1, 100);
  check.set_plan_node_id(7);
  ExecContext ctx;
  Status s = check.Open(&ctx);
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(ctx.has_reopt_request());
  const auto* req = ctx.reopt_request();
  EXPECT_EQ(req->plan_node_id, 7);
  EXPECT_EQ(req->actual_rows, 1000);
  EXPECT_EQ(req->estimated_rows, 10);
  // The materialized work below the checkpoint is preserved.
  int64_t preserved = 0;
  for (const auto& b : *req->materialized) {
    preserved += static_cast<int64_t>(b.num_rows());
  }
  EXPECT_EQ(preserved, 1000);
}

TEST(SharedScanTest, AnswersAllAttachedQueries) {
  auto t = MakeTable(20000);
  SharedScan scan(t.get());
  const int q0 = scan.Attach(MakeCmp("b", CmpOp::kEq, 3)).value();
  const int q1 = scan.Attach(MakeBetween("a", 0, 999), true).value();
  const int q2 = scan.Attach(MakeConst(false)).value();
  ExecContext ctx;
  ASSERT_TRUE(scan.Execute(&ctx).ok());
  EXPECT_EQ(scan.count(q0), 2000);
  EXPECT_EQ(scan.count(q1), 1000);
  EXPECT_EQ(scan.row_ids(q1).size(), 1000u);
  EXPECT_EQ(scan.count(q2), 0);
  // I/O charged once, not three times.
  EXPECT_EQ(ctx.counters().pages_read, t->num_pages());
}

TEST(SharedScanTest, SharingBeatsIndependentScans) {
  auto t = MakeTable(50000);
  SharedScan scan(t.get());
  const int k = 16;
  for (int i = 0; i < k; ++i) {
    ASSERT_TRUE(scan.Attach(MakeCmp("b", CmpOp::kEq, i % 10)).ok());
  }
  ExecContext ctx;
  ASSERT_TRUE(scan.Execute(&ctx).ok());
  const double independent =
      SharedScan::IndependentScansCost(*t, k, ctx.cost_model());
  EXPECT_LT(ctx.cost(), independent / 4);
}

TEST(SharedScanTest, BadPredicateRejectedAtAttach) {
  auto t = MakeTable(10);
  SharedScan scan(t.get());
  EXPECT_FALSE(scan.Attach(MakeCmp("zz", CmpOp::kEq, 0)).ok());
}

// ---- Table and per-row predicate callers against the reference evaluator --
//
// Every caller below runs PredicateProgram; each is checked against
// EvalOnTable on a table holding negatives and both int64 ends, over a
// corpus with IN lists on both sides of the bitmap crossover, OR/NOT
// nesting, column-to-column comparisons, constants and empty AND/OR.

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// e(k, a, b): k = i - n/2 (the index key, negative through positive) with
/// the first and last rows at the int64 ends; a and b mix small values with
/// a pool of negatives, IN-crossover edges and both int64 ends.
std::unique_ptr<Table> MakeEdgeTable(int64_t n) {
  auto t = std::make_unique<Table>(
      "e", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                   {"a", LogicalType::kInt64, 0, nullptr},
                   {"b", LogicalType::kInt64, 0, nullptr}}));
  const int64_t pool[] = {kMin, kMin + 1, -5000, -7,   -1,       0,
                          1,    7,        50,    4088, 4089,     9999,
                          kMax - 1, kMax};
  const int64_t pool_size = sizeof(pool) / sizeof(pool[0]);
  Rng rng(23);
  auto draw = [&] {
    return rng.Uniform(0, 1) == 0 ? pool[rng.Uniform(0, pool_size - 1)]
                                  : rng.Uniform(-60, 60);
  };
  std::vector<int64_t> k(static_cast<size_t>(n)), a(k.size()), b(k.size());
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = static_cast<int64_t>(i) - n / 2;
    a[i] = draw();
    b[i] = draw();
  }
  k.front() = kMin;
  k.back() = kMax;
  t->SetColumnData(0, std::move(k));
  t->SetColumnData(1, std::move(a));
  t->SetColumnData(2, std::move(b));
  return t;
}

/// Predicates over e's unqualified column names.
std::vector<PredicatePtr> EdgeCorpus() {
  const int64_t lo = -7;
  return {
      MakeIn("a", {-7, 0, 7, 50}),
      // Span just inside the bitmap crossover, then just past it.
      MakeIn("a", {lo, lo + kInDenseBitmapSpan - 1}),
      MakeIn("a", {lo, lo + kInDenseBitmapSpan}),
      MakeIn("b", {kMin, 0, kMax}),
      MakeIn("b", {kMax - 1, kMax}),
      MakeNot(MakeIn("a", {kMin, kMin + 1})),
      MakeOr({MakeCmp("a", CmpOp::kLt, 0),
              MakeNot(MakeBetween("b", -20, 20))}),
      MakeAnd({MakeOr({MakeIn("a", {1, 3, 7}),
                       MakeColCmp("a", CmpOp::kGt, "b")}),
               MakeNot(MakeCmp("k", CmpOp::kEq, 0))}),
      MakeColCmp("a", CmpOp::kLe, "b"),
      MakeColCmp("k", CmpOp::kNe, "a"),
      MakeConst(true),
      MakeConst(false),
      MakeAnd({}),
      MakeOr({}),
      MakeNot(MakeOr({MakeAnd({}), MakeCmp("a", CmpOp::kEq, 1)})),
      MakeAnd({MakeCmp("b", CmpOp::kGe, kMin), MakeCmp("a", CmpOp::kLe, kMax),
               MakeBetween("k", -1000, 1000)}),
  };
}

/// Row r of `t`, every column.
std::vector<int64_t> TableRow(const Table& t, int64_t r) {
  std::vector<int64_t> row;
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    row.push_back(t.Value(c, r));
  }
  return row;
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

TEST(IndexScanTest, ResidualMatchesReference) {
  auto t = MakeEdgeTable(6000);
  SortedIndex idx("e.k", 0);
  idx.Build(*t);
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {kMin, kMax}, {-1500, 1700}, {kMax, kMax}}) {
    std::vector<int64_t> range;
    idx.LookupRange(lo, hi, &range);
    const auto fetched = static_cast<int64_t>(range.size());
    for (const PredicatePtr& p : EdgeCorpus()) {
      SCOPED_TRACE(ToString(p) + " over k in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
      IndexScanOp scan(t.get(), &idx, lo, hi, p);
      ExecContext ctx;
      std::vector<RowBatch> out;
      ASSERT_TRUE(DrainOperator(&scan, &ctx, &out).ok());

      std::vector<std::vector<int64_t>> want;
      for (const int64_t r : range) {
        if (EvalOnTable(p, *t, r)) want.push_back(TableRow(*t, r));
      }
      auto got = Rows(out);
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want);

      EXPECT_EQ(ctx.counters().random_reads, fetched);
      EXPECT_EQ(ctx.counters().rows_processed, fetched);
      EXPECT_EQ(ctx.counters().predicate_evals, fetched);
      // Chunks never overfill a batch, and a batch ends only when full.
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_LE(out[i].num_rows(), kBatchRows) << "batch " << i;
        if (i + 1 < out.size()) {
          EXPECT_EQ(out[i].num_rows(), kBatchRows) << "batch " << i;
        }
      }
      // The clock is the row-at-a-time charge sequence: per fetched row a
      // random read, its row CPU and one predicate eval, in that order.
      ExecContext replay;
      replay.ChargeIndexDescend();
      replay.ChargeSeqPages((fetched + kRowsPerPage - 1) / kRowsPerPage,
                            t->name());
      for (int64_t i = 0; i < fetched; ++i) {
        replay.ChargeRandomReads(1, t->name());
        replay.ChargeRowCpu(1);
        replay.ChargePredicateEvals(1);
      }
      EXPECT_EQ(ctx.cost(), replay.cost());
    }
  }
}

TEST(SharedScanTest, EveryQueryMatchesReference) {
  auto t = MakeEdgeTable(2500);  // two full chunks and a partial one
  const std::vector<PredicatePtr> corpus = EdgeCorpus();
  SharedScan scan(t.get());
  for (const PredicatePtr& p : corpus) {
    ASSERT_TRUE(scan.Attach(p, /*collect_rows=*/true).ok()) << ToString(p);
  }
  ExecContext ctx;
  ASSERT_TRUE(scan.Execute(&ctx).ok());
  for (size_t q = 0; q < corpus.size(); ++q) {
    std::vector<int64_t> want;
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      if (EvalOnTable(corpus[q], *t, r)) want.push_back(r);
    }
    const int id = static_cast<int>(q);
    EXPECT_EQ(scan.count(id), static_cast<int64_t>(want.size()))
        << ToString(corpus[q]);
    EXPECT_EQ(scan.row_ids(id), want) << ToString(corpus[q]);
  }
  const auto queries = static_cast<int64_t>(corpus.size());
  EXPECT_EQ(ctx.counters().predicate_evals, t->num_rows() * queries);
  ExecContext replay;
  replay.ChargeSeqPages(t->num_pages());
  replay.ChargeRowCpu(t->num_rows());
  for (int64_t i = 0; i < t->num_rows() * queries; ++i) {
    replay.ChargePredicateEvals(1);
  }
  EXPECT_EQ(ctx.cost(), replay.cost());
}

/// Predicate lists for AdaptiveFilterOp: each mixes leaf kinds with an
/// OR/NOT conjunct, a column comparison or a constant.
std::vector<std::vector<PredicatePtr>> AdaptiveLists() {
  const std::vector<PredicatePtr> c = EdgeCorpus();
  return {{c[6], c[1], c[8]},
          {c[10], c[3], c[7], c[12]},
          {c[2], c[5], c[9], c[14]},
          {c[15], c[0], c[4]},
          {c[11], c[13]},
          {}};
}

TEST(AdaptiveFilterTest, SurvivorsMatchReferenceInInputOrder) {
  auto t = MakeEdgeTable(5000);
  for (const auto& list : AdaptiveLists()) {
    std::vector<PredicatePtr> qualified;
    std::string label;
    for (const PredicatePtr& p : list) {
      qualified.push_back(QualifyColumns(p, "e"));
      label += ToString(p) + "; ";
    }
    SCOPED_TRACE(label);
    std::vector<std::vector<int64_t>> want;
    int64_t short_circuit_evals = 0;
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      bool pass = true;
      for (const PredicatePtr& p : list) {
        ++short_circuit_evals;
        if (!EvalOnTable(p, *t, r)) {
          pass = false;
          break;
        }
      }
      if (pass) want.push_back(TableRow(*t, r));
    }
    for (const bool adaptive : {false, true}) {
      AdaptiveFilterOp::Options opt;
      opt.adaptive = adaptive;
      opt.reorder_interval = 64;
      AdaptiveFilterOp f(std::make_unique<TableScanOp>(t.get()), qualified,
                         opt);
      ExecContext ctx;
      std::vector<RowBatch> out;
      ASSERT_TRUE(DrainOperator(&f, &ctx, &out).ok());
      EXPECT_EQ(Rows(out), want) << (adaptive ? "adaptive" : "static");
      if (!adaptive) {
        EXPECT_EQ(ctx.counters().predicate_evals, short_circuit_evals);
      }
    }
  }
}

TEST(MemoryBrokerTest, GrantAndRelease) {
  MemoryBroker broker(100);
  MemoryGrant a(&broker), b(&broker);
  EXPECT_EQ(a.Grow(40), 40);
  EXPECT_EQ(broker.used(), 40);
  EXPECT_EQ(b.Grow(100), 60);
  EXPECT_EQ(b.Grow(10), 1);  // floor grant of 1 page
  EXPECT_EQ(b.pages(), 61);
  a.Clear();
  b.Clear();
  EXPECT_EQ(broker.used(), 0);
}

TEST(MemoryBrokerTest, CapacityFluctuation) {
  MemoryBroker broker(100);
  MemoryGrant g(&broker);
  EXPECT_EQ(g.Grow(50), 50);
  broker.set_capacity(40);  // shrink below current usage
  EXPECT_EQ(broker.deficit(), 10);
  EXPECT_EQ(g.Grow(10), 1);
}

TEST(MemoryBrokerTest, ShrinkBelowUsageClamps) {
  MemoryBroker broker(100);
  MemoryGrant g(&broker);
  EXPECT_EQ(g.Grow(80), 80);
  // Shrinking far below outstanding grants must not assert or underflow:
  // the broker stays over-committed until enough pages are returned.
  broker.set_capacity(40);
  EXPECT_EQ(broker.capacity(), 40);
  EXPECT_EQ(broker.used(), 80);
  EXPECT_EQ(broker.deficit(), 40);
  EXPECT_EQ(g.Grow(10), 1);  // progress minimum, at spill speed
  EXPECT_EQ(broker.used(), 81);

  // Negative capacities clamp to zero.
  broker.set_capacity(-5);
  EXPECT_EQ(broker.capacity(), 0);
  EXPECT_EQ(broker.deficit(), 81);

  // Shrinking a grant by more than it holds returns exactly what it holds.
  g.Shrink(500);
  EXPECT_EQ(g.pages(), 0);
  EXPECT_EQ(broker.used(), 0);

  // Once capacity recovers, normal grants resume.
  broker.set_capacity(100);
  EXPECT_EQ(g.Grow(60), 60);
}

}  // namespace
}  // namespace rqp
