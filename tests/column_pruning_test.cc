// Column pruning (DESIGN.md §15): under an aggregate root, BuildExecutable
// lowers every table scan, index scan and index-NL inner fetch with only the
// columns of its table that PlanReadSet names. For each plan shape the read
// set is asserted directly, the layout a POP CHECK would materialize is
// asserted through a CHECK that always fires, and the answers are checked
// against the reference evaluator at DOP 1 and 4: hand-built plans through
// BuildExecutable, engine-planned queries through ref::CheckAgainstReference
// (plus POP re-optimization over a pruned leaf, a hedged fallback, 8-page
// grants and 3 shards). Runs under the `exec` ctest label.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exec/thread_pool.h"
#include "expr/expr.h"
#include "expr/predicate.h"
#include "optimizer/builder.h"
#include "reference_eval.h"
#include "shard/sharded_engine.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

using Slots = std::vector<std::string>;
using ReadSet = std::set<std::string>;

struct PruningFixture : ref::StarFixture {
  ThreadPool pool{4};
  int ids = 0;

  void SetUp() override {
    StarFixture::SetUp();
    for (int d = 0; d < 3; ++d) {
      ASSERT_TRUE(catalog.BuildIndex("dim" + std::to_string(d), "id").ok());
    }
  }

  // ---- hand-built plans ----------------------------------------------------

  PlanNodePtr Node(PlanOp op, std::vector<PlanNodePtr> children = {}) {
    auto n = NewPlanNode(op, &ids);
    for (auto& c : children) n->children.push_back(std::move(c));
    return n;
  }
  PlanNodePtr Scan(const std::string& table, PredicatePtr filter = nullptr) {
    auto n = Node(PlanOp::kTableScan);
    n->table = table;
    n->predicate = std::move(filter);
    return n;
  }
  PlanNodePtr Join(PlanOp op, PlanNodePtr left, PlanNodePtr right,
                   const std::string& left_key,
                   const std::string& right_key) {
    std::vector<PlanNodePtr> kids;
    kids.push_back(std::move(left));
    kids.push_back(std::move(right));
    auto n = Node(op, std::move(kids));
    n->left_key = left_key;
    n->right_key = right_key;
    return n;
  }
  PlanNodePtr Unary(PlanOp op, PlanNodePtr child) {
    std::vector<PlanNodePtr> kids;
    kids.push_back(std::move(child));
    return Node(op, std::move(kids));
  }
  PlanNodePtr Agg(PlanNodePtr child, const QuerySpec& spec) {
    auto n = Unary(PlanOp::kHashAgg, std::move(child));
    n->group_by = spec.group_by;
    n->aggregates = spec.aggregates;
    return n;
  }

  /// Builds `plan` at `dop` and drains it, keeping the rows.
  void Drain(const PlanNode& plan, int dop, Slots* slots, ref::Rows* rows) {
    ParallelOptions par;
    par.num_threads = dop;
    par.pool = &pool;
    auto op = BuildExecutable(plan, &catalog, {}, &par);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    ExecContext ctx;
    QueryResult result;
    auto drained = DrainOperator(op->get(), &ctx, &result.rows);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    *slots = (*op)->output_slots();
    *rows = ref::SortedRows(result);
  }

  /// `plan` answers `spec` exactly as the reference evaluator does, at DOP 1
  /// and 4.
  void ExpectPlanMatchesReference(const PlanNode& plan, const QuerySpec& spec) {
    const auto want = ref::ReferenceEval(catalog, spec);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (const int dop : {1, 4}) {
      SCOPED_TRACE("dop " + std::to_string(dop));
      Slots slots;
      ref::Rows rows;
      Drain(plan, dop, &slots, &rows);
      EXPECT_EQ(rows, ref::SortedRows(want.value(), slots));
      EXPECT_FALSE(rows.empty());
    }
  }

  /// The rows an aggregate's child emits, as a POP CHECK directly under the
  /// aggregate would materialize them: a CHECK whose validity range no
  /// count satisfies fires and hands over its child's layout.
  Slots LayoutUnderAggregate(const PlanNode& agg) {
    auto plan = agg.Clone();
    auto check = Unary(PlanOp::kCheck, std::move(plan->children[0]));
    check->check_lo = -1;
    check->check_hi = -1;
    plan->children[0] = std::move(check);
    auto op = BuildExecutable(*plan, &catalog);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    if (!op.ok()) return {};
    ExecContext ctx;
    EXPECT_FALSE(DrainOperator(op->get(), &ctx, nullptr).ok());
    EXPECT_TRUE(ctx.has_reopt_request());
    return ctx.has_reopt_request() ? ctx.reopt_request()->slots : Slots{};
  }

  // ---- queries -------------------------------------------------------------

  static QuerySpec Grouped(QuerySpec q, Slots group_by,
                           std::vector<AggSpec> aggregates) {
    q.group_by = std::move(group_by);
    q.aggregates = std::move(aggregates);
    return q;
  }
  static QuerySpec StarGroupBy() {
    return Grouped(workload::StarQuery(3, {2500, 3500, 4500}), {"dim0.band"},
                   {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "fact.measure", "sum_m"}});
  }
  /// fact (measure <= 3) ⋈ dim0 ⋈ dim1 with dimension filters: small enough
  /// an outer that the optimizer joins both dimensions by index NL.
  static QuerySpec TinyOuterStar() {
    QuerySpec q = workload::StarQuery(2, {2500, 3500});
    q.tables[0].predicate = MakeBetween("measure", 0, 3);
    return Grouped(std::move(q), {"fact.fk1"},
                   {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "fact.measure", "sum_m"}});
  }
  /// A cyclic join graph: the third edge is a residual ColumnCmp filter.
  static QuerySpec CyclicStar() {
    QuerySpec q = workload::StarQuery(2, {2500, 3500});
    q.joins.push_back({"dim0", "band", "dim1", "band"});
    return Grouped(std::move(q), {"dim0.band"}, {{AggFn::kCount, "", "cnt"}});
  }
  /// Derived slots under the aggregate, grouped on one of them.
  static QuerySpec DerivedStar() {
    QuerySpec q = workload::StarQuery(2, {2500, 3500});
    q.derived = {
        {"m2", MakeArith(MakeArith(MakeColExpr("fact.measure"), ArithOp::kMul,
                                   MakeConstExpr(2)),
                         ArithOp::kAdd, MakeConstExpr(1))},
        {"bands", MakeArith(MakeArith(MakeColExpr("dim0.band"), ArithOp::kMul,
                                      MakeConstExpr(100)),
                            ArithOp::kAdd, MakeColExpr("dim1.band"))}};
    return Grouped(std::move(q), {"bands"},
                   {{AggFn::kCount, "", "cnt"}, {AggFn::kSum, "m2", "sum_m2"}});
  }
  static QuerySpec CountStar() {
    QuerySpec q;
    q.tables.push_back({"fact", MakeBetween("measure", 0, 4000)});
    q.aggregates = {{AggFn::kCount, "", "cnt"}};
    return q;
  }
  /// No join edge: the optimizer joins the two dimensions by a cross
  /// product, a nested-loops join without a predicate.
  static QuerySpec CrossProduct() {
    QuerySpec q;
    q.tables.push_back({"dim0", MakeBetween("attr", 0, 200)});
    q.tables.push_back({"dim1", MakeBetween("attr", 0, 300)});
    return Grouped(std::move(q), {"dim1.band"}, {{AggFn::kCount, "", "cnt"}});
  }
  static QuerySpec RowsOut() {
    QuerySpec q = workload::StarQuery(1, {2500});
    q.tables[0].predicate = MakeBetween("measure", 0, 300);
    return q;
  }
};

// ---- plan shapes, built by hand --------------------------------------------

TEST_F(PruningFixture, HashJoinStarReadsKeysGroupsAndInputs) {
  const QuerySpec q = StarGroupBy();
  auto plan = Agg(
      Join(PlanOp::kHashJoin,
           Join(PlanOp::kHashJoin,
                Join(PlanOp::kHashJoin, Scan("fact"),
                     Scan("dim0", MakeBetween("attr", 0, 2500)), "fact.fk0",
                     "dim0.id"),
                Scan("dim1", MakeBetween("attr", 0, 3500)), "fact.fk1",
                "dim1.id"),
           Scan("dim2", MakeBetween("attr", 0, 4500)), "fact.fk2", "dim2.id"),
      q);
  // Dimension filters are unqualified scan filters: dimN.attr is not read.
  EXPECT_EQ(PlanReadSet(*plan),
            (ReadSet{"dim0.band", "dim0.id", "dim1.id", "dim2.id", "fact.fk0",
                     "fact.fk1", "fact.fk2", "fact.measure"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk0", "fact.fk1", "fact.fk2", "fact.measure",
                   "dim0.id", "dim0.band", "dim1.id", "dim2.id"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, IndexNLJoinUnderResidualFilterFetchesWhatItReads) {
  // The optimizer's index-NL shape: the inner's local predicate becomes a
  // qualified residual Filter above the join, so dim0.attr is read.
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 500)});
  q.tables.push_back({"dim0", MakeBetween("attr", 0, 2500)});
  q.joins.push_back({"fact", "fk0", "dim0", "id"});
  q = Grouped(std::move(q), {"fact.fk1"},
              {{AggFn::kCount, "", "cnt"},
               {AggFn::kSum, "fact.measure", "sum_m"}});
  auto inlj = Unary(PlanOp::kIndexNLJoin,
                    Scan("fact", MakeBetween("measure", 0, 500)));
  inlj->left_key = "fact.fk0";
  inlj->table = "dim0";
  inlj->index_column = "id";
  auto filter = Unary(PlanOp::kFilter, std::move(inlj));
  filter->predicate = QualifyColumns(MakeBetween("attr", 0, 2500), "dim0");
  auto plan = Agg(std::move(filter), q);
  // dim0.id is read only as the join's index column; dim0.band not at all.
  EXPECT_EQ(PlanReadSet(*plan),
            (ReadSet{"dim0.attr", "dim0.id", "fact.fk0", "fact.fk1",
                     "fact.measure"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk0", "fact.fk1", "fact.measure", "dim0.id",
                   "dim0.attr"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, MergeJoinReadsItsSortKeys) {
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 3000)});
  q.tables.push_back({"dim1", MakeBetween("attr", 0, 3500)});
  q.joins.push_back({"fact", "fk1", "dim1", "id"});
  q = Grouped(std::move(q), {"dim1.band"},
              {{AggFn::kCount, "", "cnt"},
               {AggFn::kMin, "fact.measure", "min_m"}});
  auto left = Unary(PlanOp::kSort,
                    Scan("fact", MakeBetween("measure", 0, 3000)));
  left->sort_key = "fact.fk1";
  auto right = Unary(PlanOp::kSort, Scan("dim1", MakeBetween("attr", 0, 3500)));
  right->sort_key = "dim1.id";
  auto plan = Agg(Join(PlanOp::kMergeJoin, std::move(left), std::move(right),
                       "fact.fk1", "dim1.id"),
                  q);
  EXPECT_EQ(PlanReadSet(*plan), (ReadSet{"dim1.band", "dim1.id", "fact.fk1",
                                         "fact.measure"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk1", "fact.measure", "dim1.id", "dim1.band"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, CyclicResidualColumnCmpIsRead) {
  const QuerySpec q = CyclicStar();
  auto filter = Unary(
      PlanOp::kFilter,
      Join(PlanOp::kHashJoin,
           Join(PlanOp::kHashJoin, Scan("fact"),
                Scan("dim0", MakeBetween("attr", 0, 2500)), "fact.fk0",
                "dim0.id"),
           Scan("dim1", MakeBetween("attr", 0, 3500)), "fact.fk1", "dim1.id"));
  filter->predicate = MakeColCmp("dim0.band", CmpOp::kEq, "dim1.band");
  auto plan = Agg(std::move(filter), q);
  EXPECT_EQ(PlanReadSet(*plan),
            (ReadSet{"dim0.band", "dim0.id", "dim1.band", "dim1.id",
                     "fact.fk0", "fact.fk1"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk0", "fact.fk1", "dim0.id", "dim0.band", "dim1.id",
                   "dim1.band"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, IndexedGJoinRightChildKeepsEveryColumn) {
  // The index strategy stands in for the right child only while that child
  // scans its whole table, so an indexed g-join's right child is never
  // pruned; its left child is.
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 1)});
  q.tables.push_back({"dim0", nullptr});
  q.joins.push_back({"fact", "fk0", "dim0", "id"});
  q = Grouped(std::move(q), {"dim0.band"},
              {{AggFn::kCount, "", "cnt"},
               {AggFn::kSum, "fact.measure", "sum_m"}});
  auto gj = Join(PlanOp::kGJoin, Scan("fact", MakeBetween("measure", 0, 1)),
                 Scan("dim0"), "fact.fk0", "dim0.id");
  gj->table = "dim0";
  gj->index_column = "id";
  auto plan = Agg(std::move(gj), q);
  EXPECT_EQ(PlanReadSet(*plan), (ReadSet{"dim0.band", "dim0.id", "fact.fk0",
                                         "fact.measure"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk0", "fact.measure", "dim0.id", "dim0.attr",
                   "dim0.band"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, UnindexedGJoinPrunesBothChildren) {
  QuerySpec q;
  q.tables.push_back({"dim1", MakeBetween("attr", 0, 3500)});
  q.tables.push_back({"fact", nullptr});
  q.joins.push_back({"dim1", "id", "fact", "fk1"});
  q = Grouped(std::move(q), {"dim1.band"},
              {{AggFn::kCount, "", "cnt"},
               {AggFn::kSum, "fact.measure", "sum_m"}});
  auto plan = Agg(Join(PlanOp::kGJoin,
                       Scan("dim1", MakeBetween("attr", 0, 3500)),
                       Scan("fact"), "dim1.id", "fact.fk1"),
                  q);
  EXPECT_EQ(PlanReadSet(*plan), (ReadSet{"dim1.band", "dim1.id", "fact.fk1",
                                         "fact.measure"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"dim1.id", "dim1.band", "fact.fk1", "fact.measure"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, MapInputsAreReadAndDerivedSlotsGroup) {
  const QuerySpec q = DerivedStar();
  auto map = Unary(
      PlanOp::kMap,
      Join(PlanOp::kHashJoin,
           Join(PlanOp::kHashJoin, Scan("fact"),
                Scan("dim0", MakeBetween("attr", 0, 2500)), "fact.fk0",
                "dim0.id"),
           Scan("dim1", MakeBetween("attr", 0, 3500)), "fact.fk1", "dim1.id"));
  map->derived = q.derived;
  auto plan = Agg(std::move(map), q);
  EXPECT_EQ(PlanReadSet(*plan),
            (ReadSet{"bands", "dim0.band", "dim0.id", "dim1.band", "dim1.id",
                     "fact.fk0", "fact.fk1", "fact.measure", "m2"}));
  EXPECT_EQ(LayoutUnderAggregate(*plan),
            (Slots{"fact.fk0", "fact.fk1", "fact.measure", "dim0.id",
                   "dim0.band", "dim1.id", "dim1.band", "m2", "bands"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, CountStarEmitsExactlyOneColumn) {
  const QuerySpec q = CountStar();
  auto plan = Agg(Scan("fact", MakeBetween("measure", 0, 4000)), q);
  EXPECT_EQ(PlanReadSet(*plan), ReadSet{});
  // Nothing is read, so the first column stands in for the row.
  EXPECT_EQ(LayoutUnderAggregate(*plan), Slots{"fact.fk0"});
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, CrossProductReadsNothingOfItsOwn) {
  // A cross product's nested-loops join has no predicate: it adds nothing,
  // and dim0 contributes one stand-in column.
  const QuerySpec q = CrossProduct();
  std::vector<PlanNodePtr> sides;
  sides.push_back(Scan("dim0", MakeBetween("attr", 0, 200)));
  sides.push_back(Scan("dim1", MakeBetween("attr", 0, 300)));
  auto plan = Agg(Node(PlanOp::kNestedLoopsJoin, std::move(sides)), q);
  EXPECT_EQ(PlanReadSet(*plan), ReadSet{"dim1.band"});
  EXPECT_EQ(LayoutUnderAggregate(*plan), (Slots{"dim0.id", "dim1.band"}));
  ExpectPlanMatchesReference(*plan, q);
}

TEST_F(PruningFixture, NonAggregateRootEmitsEveryColumn) {
  const QuerySpec q = RowsOut();
  auto plan = Join(PlanOp::kHashJoin,
                   Scan("fact", MakeBetween("measure", 0, 300)),
                   Scan("dim0", MakeBetween("attr", 0, 2500)), "fact.fk0",
                   "dim0.id");
  EXPECT_EQ(PlanReadSet(*plan), std::nullopt);
  const Slots all = {"fact.fk0",  "fact.fk1",   "fact.fk2", "fact.measure",
                     "fact.corr", "fact.corr2", "dim0.id",  "dim0.attr",
                     "dim0.band"};
  for (const int dop : {1, 4}) {
    Slots slots;
    ref::Rows rows;
    Drain(*plan, dop, &slots, &rows);
    EXPECT_EQ(slots, all) << "dop " << dop;
  }
  ExpectPlanMatchesReference(*plan, q);
}

// ---- engine-planned queries ------------------------------------------------

/// Whether some node of `plan` satisfies `pred`.
bool HasNode(const PlanNode& plan,
             const std::function<bool(const PlanNode&)>& pred) {
  if (pred(plan)) return true;
  for (const auto& c : plan.children) {
    if (HasNode(*c, pred)) return true;
  }
  return false;
}

TEST_F(PruningFixture, EnginePlannedShapesMatchReference) {
  Engine engine(&catalog);
  engine.AnalyzeAll();
  // The tiny outer really is joined by index NL under residual filters, and
  // the cyclic edge really is a residual filter.
  auto inlj = engine.Plan(TinyOuterStar());
  ASSERT_TRUE(inlj.ok());
  EXPECT_TRUE(HasNode(**inlj, [](const PlanNode& n) {
    return n.op == PlanOp::kFilter && !n.children.empty() &&
           n.children[0]->op == PlanOp::kIndexNLJoin;
  })) << (*inlj)->Explain();
  auto cyclic = engine.Plan(CyclicStar());
  ASSERT_TRUE(cyclic.ok());
  EXPECT_TRUE(HasNode(**cyclic, [](const PlanNode& n) {
    return n.op == PlanOp::kFilter;
  })) << (*cyclic)->Explain();

  for (const QuerySpec& q : {StarGroupBy(), TinyOuterStar(), CyclicStar(),
                             DerivedStar(), CountStar(), CrossProduct(),
                             RowsOut()}) {
    ref::CheckAgainstReference(&catalog, q);
  }
}

TEST_F(PruningFixture, EnginePlannedGJoinsMatchReference) {
  // An index on fact.fk0 lets the dim0 ⋈ fact g-join carry the index
  // strategy; dim1 ⋈ (…) has none.
  ASSERT_TRUE(catalog.BuildIndex("fact", "fk0").ok());
  EngineOptions options;
  options.optimizer.use_gjoin = true;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  const QuerySpec q =
      Grouped(workload::StarQuery(2, {2500, 3500}), {"dim1.band"},
              {{AggFn::kCount, "", "cnt"},
               {AggFn::kSum, "fact.measure", "sum_m"}});
  auto plan = engine.Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(HasNode(**plan, [](const PlanNode& n) {
    return n.op == PlanOp::kGJoin && !n.table.empty();
  })) << (*plan)->Explain();
  EXPECT_TRUE(HasNode(**plan, [](const PlanNode& n) {
    return n.op == PlanOp::kGJoin && n.table.empty();
  })) << (*plan)->Explain();
  ref::CheckAgainstReference(&catalog, q, options);
  ref::CheckAgainstReference(&catalog, DerivedStar(), options);
}

/// The trap: redundant fact conjuncts drive the fact estimate ~150x low, and
/// fixed-factor validity ranges (x2) make every CHECK on it fire.
QuerySpec TrapGroupBy() {
  return PruningFixture::Grouped(
      workload::TrapStarQuery(2, 40, {5000, 2000}), {"dim0.band"},
      {{AggFn::kCount, "", "cnt"}, {AggFn::kSum, "fact.measure", "sum_m"}});
}

TEST_F(PruningFixture, PopReoptimizesOverThePrunedLeaf) {
  EngineOptions options;
  options.use_pop = true;
  options.optimizer.check_factor = 2;
  ref::CheckAgainstReference(&catalog, TrapGroupBy(), options);
  for (const int dop : {1, 4}) {
    options.num_threads = dop;
    Engine engine(&catalog, options);
    engine.AnalyzeAll();
    auto got = engine.Run(TrapGroupBy());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GE(got->reoptimizations, 1) << "dop " << dop;
    EXPECT_NE(got->final_plan.find("MaterializedSource"), std::string::npos)
        << got->final_plan;
  }
}

TEST_F(PruningFixture, HedgedFallbackMatchesReference) {
  EngineOptions options;
  options.optimizer.robust_selection.enabled = 1;
  options.optimizer.robust_selection.hedge_threshold = 0.0;  // always hedge
  options.optimizer.check_factor = 2;
  ref::CheckAgainstReference(&catalog, TrapGroupBy(), options);
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  auto got = engine.Run(TrapGroupBy());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->robust_hedged);
  EXPECT_TRUE(got->hedged_fallback_used);
}

TEST_F(PruningFixture, EightPageGrantsSpillPrunedBuilds) {
  EngineOptions options;
  options.memory_pages = 8;
  options.spill_dir = SpillDir("pruning-spill");
  ref::CheckAgainstReference(&catalog, StarGroupBy(), options);
  ref::CheckAgainstReference(&catalog, DerivedStar(), options);
  options.num_threads = 1;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  auto spilled = engine.Run(StarGroupBy());
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(spilled->counters.spill_pages, 0);
  fs::remove_all(options.spill_dir);
}

TEST_F(PruningFixture, ThreeShardsMatchReference) {
  ShardOptions sopts;
  sopts.num_shards = 3;
  sopts.partitions["fact"] = {PartitionSpec::Kind::kHash, "fk0"};
  sopts.partitions["dim0"] = {PartitionSpec::Kind::kHash, "id"};
  for (const QuerySpec& q : {StarGroupBy(), DerivedStar(), CountStar()}) {
    const auto want = ref::ReferenceEval(catalog, q);
    ASSERT_TRUE(want.ok());
    for (const int dop : {1, 4}) {
      EngineOptions eopts;
      eopts.num_threads = dop;
      ShardedEngine engine(&catalog, eopts, sopts);
      engine.AnalyzeAll();
      auto got = engine.Run(q, /*keep_rows=*/true);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->shard_stats.size(), 3u);
      EXPECT_EQ(ref::SortedRows(*got),
                ref::SortedRows(want.value(), got->output_slots))
          << "dop " << dop;
    }
  }
}

}  // namespace
}  // namespace rqp
