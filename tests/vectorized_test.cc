// Predicate-bytecode tests (DESIGN.md §10): the flattened predicate
// bytecode (PredicateProgram) agrees with the reference evaluator
// (EvalOnTable) on every predicate shape through every entry point, the IN
// lookup structures (sorted binary search + dense bitmap fallback) are
// correct, and engine answers for the scan predicate
// corpus, star joins, join+agg, the equivalence suite, and unbound
// parameters match the reference evaluator at DOP 1 and 4. Runs under the
// `vectorized` ctest label (both sanitizer CI legs).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "reference_eval.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

// ---- PredicateProgram vs the reference evaluator ----------------------------

/// Two-column row set covering negatives, zero, domain edges, and values on
/// both sides of every constant used by the predicate corpus below.
std::vector<std::vector<int64_t>> TestRows() {
  std::vector<std::vector<int64_t>> rows;
  const int64_t interesting[] = {-5000, -7, -1, 0, 1,  2,    3,    7,
                                 10,    49, 50, 51, 99, 4095, 4097, 9999};
  for (const int64_t a : interesting) {
    for (const int64_t b : interesting) {
      rows.push_back({a, b});
    }
  }
  return rows;
}

/// The predicate corpus: every leaf kind, every comparison op, narrow and
/// wide IN lists, and nested AND/OR/NOT structure.
std::vector<PredicatePtr> PredicateCorpus() {
  std::vector<PredicatePtr> corpus;
  for (const CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                         CmpOp::kGt, CmpOp::kGe}) {
    corpus.push_back(MakeCmp("a", op, 50));
    corpus.push_back(MakeColCmp("a", op, "b"));
  }
  corpus.push_back(MakeBetween("a", -1, 99));
  corpus.push_back(MakeBetween("b", 3, 3));
  corpus.push_back(MakeIn("a", {3, 7, 50}));                  // bitmap
  corpus.push_back(MakeIn("a", {-5000, 0, 4097, 9999}));      // binary search
  corpus.push_back(MakeIn("b", {}));                          // empty -> false
  corpus.push_back(MakeConst(true));
  corpus.push_back(MakeConst(false));
  corpus.push_back(MakeNot(MakeCmp("a", CmpOp::kLt, 10)));
  corpus.push_back(MakeOr({MakeCmp("a", CmpOp::kLt, 0),
                           MakeCmp("b", CmpOp::kGt, 50)}));
  corpus.push_back(MakeAnd({MakeBetween("a", 0, 4095),
                            MakeOr({MakeIn("b", {1, 2, 3}),
                                    MakeCmp("b", CmpOp::kGe, 99)})}));
  corpus.push_back(MakeNot(MakeOr({MakeNot(MakeCmp("a", CmpOp::kGe, 0)),
                                   MakeAnd({MakeCmp("b", CmpOp::kEq, 7),
                                            MakeCmp("a", CmpOp::kNe, 7)})})));
  corpus.push_back(MakeAnd({}));  // empty conjunction -> true
  corpus.push_back(MakeOr({}));   // empty disjunction -> false
  return corpus;
}

/// One int64 column `a` holding `values`, one row each.
Table OneColumnTable(const std::vector<int64_t>& values) {
  Table t("t", Schema({{"a", LogicalType::kInt64, 0, nullptr}}));
  t.SetColumnData(0, values);
  return t;
}

TEST(PredProgramTest, AgreesWithReferenceEverywhere) {
  const std::vector<std::string> slots = {"a", "b"};
  const auto rows = TestRows();

  // Row-major "batch" of all test rows, for the strided evaluation path.
  std::vector<int64_t> batch;
  for (const auto& r : rows) batch.insert(batch.end(), r.begin(), r.end());
  const int64_t* strided_cols[2] = {batch.data(), batch.data() + 1};

  // The same rows as a table: the oracle's input and the stride-1 (table
  // scan) path's column storage.
  std::vector<int64_t> col_a, col_b;
  for (const auto& r : rows) {
    col_a.push_back(r[0]);
    col_b.push_back(r[1]);
  }
  Table table("t", Schema({{"a", LogicalType::kInt64, 0, nullptr},
                           {"b", LogicalType::kInt64, 0, nullptr}}));
  table.SetColumnData(0, col_a);
  table.SetColumnData(1, col_b);
  const int64_t* columnar_cols[2] = {table.column(0).data(),
                                     table.column(1).data()};

  for (const auto& p : PredicateCorpus()) {
    auto program = PredicateProgram::Compile(p, table);
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    SelectionVector expect;
    for (size_t i = 0; i < rows.size(); ++i) {
      const bool want = EvalOnTable(p, table, static_cast<int64_t>(i));
      EXPECT_EQ(program.value().EvalRow(rows[i].data()), want)
          << ToString(p) << " EvalRow row " << i;
      if (want) expect.push_back(static_cast<uint32_t>(i));
    }

    SelectionVector sel;
    program.value().BuildSelection(strided_cols, /*stride=*/2, rows.size(),
                                   &sel);
    EXPECT_EQ(sel, expect) << ToString(p) << " strided BuildSelection";
    program.value().BuildSelection(columnar_cols, /*stride=*/1, rows.size(),
                                   &sel);
    EXPECT_EQ(sel, expect) << ToString(p) << " columnar BuildSelection";

    // FilterSelection refines an arbitrary subset (every other test row).
    SelectionVector odd, odd_expect;
    for (size_t i = 1; i < rows.size(); i += 2) {
      odd.push_back(static_cast<uint32_t>(i));
      if (EvalOnTable(p, table, static_cast<int64_t>(i))) {
        odd_expect.push_back(static_cast<uint32_t>(i));
      }
    }
    program.value().FilterSelection(strided_cols, /*stride=*/2, &odd);
    EXPECT_EQ(odd, odd_expect) << ToString(p) << " FilterSelection";
  }
}

TEST(PredProgramTest, ConjunctionSplitsIntoConjuncts) {
  const std::vector<std::string> slots = {"a", "b"};
  auto program = PredicateProgram::Compile(
      MakeAnd({MakeCmp("a", CmpOp::kGt, 0), MakeBetween("b", 0, 9),
               MakeOr({MakeCmp("a", CmpOp::kEq, 1),
                       MakeCmp("b", CmpOp::kEq, 2)})}),
      slots);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program.value().num_conjuncts(), 3u);
  EXPECT_EQ(program.value().num_slots_used(), 2u);
}

TEST(PredProgramTest, UnboundParameterIsRejected) {
  auto program =
      PredicateProgram::Compile(MakeParamCmp("a", CmpOp::kLt, 0), {"a"});
  EXPECT_FALSE(program.ok());
}

// ---- IN-list regression: binary search and bitmap fallback -----------------

/// Checks `values` as an IN list on every probe: EvalRow and BuildSelection
/// against the reference evaluator over a one-column table of the probes,
/// and against `members` (the probes that must match).
void ExpectInList(const std::vector<int64_t>& values,
                  const std::vector<int64_t>& probes,
                  const std::vector<int64_t>& members) {
  const PredicatePtr in = MakeIn("a", values);
  const Table t = OneColumnTable(probes);
  auto program = PredicateProgram::Compile(in, t);
  ASSERT_TRUE(program.ok());
  SelectionVector expect;
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool want = EvalOnTable(in, t, static_cast<int64_t>(i));
    EXPECT_EQ(want, std::find(members.begin(), members.end(), probes[i]) !=
                        members.end())
        << probes[i];
    EXPECT_EQ(program.value().EvalRow(&probes[i]), want) << probes[i];
    if (want) expect.push_back(static_cast<uint32_t>(i));
  }
  const int64_t* cols[1] = {t.column(0).data()};
  SelectionVector sel;
  program.value().BuildSelection(cols, /*stride=*/1, probes.size(), &sel);
  EXPECT_EQ(sel, expect);
}

TEST(CInRegressionTest, UnsortedInputIsSortedBeforeBinarySearch) {
  // Wide span (past kInDenseBitmapSpan) forces the binary-search path. The
  // input list is descending with duplicates and negatives: if Compile did
  // not sort it, std::binary_search's precondition would be violated and
  // members would be missed.
  const std::vector<int64_t> values = {9999, 7, 7, -3, 0, 4200, -5000};
  ASSERT_GT(9999 - (-5000), kInDenseBitmapSpan);
  std::vector<int64_t> probes = values;
  for (const int64_t v : {-5001, -4, -1, 1, 8, 4199, 10000}) {
    probes.push_back(v);
  }
  ExpectInList(values, probes, values);
}

TEST(CInRegressionTest, NarrowRangeUsesBitmapWithSameSemantics) {
  // Narrow span: the dense-bitmap fallback. Membership must match the
  // binary-search semantics exactly, including below-min and above-max
  // probes (the bounds check) and negatives.
  const std::vector<int64_t> values = {-3, 5, 8, 8, 100};
  ASSERT_LT(100 - (-3), kInDenseBitmapSpan);
  std::vector<int64_t> probes = values;
  for (const int64_t v : {-1000000, -4, -2, 0, 4, 6, 99, 101, 1000000}) {
    probes.push_back(v);
  }
  ExpectInList(values, probes, values);
}

TEST(CInRegressionTest, BitmapAndSearchPathsAgreeOnSharedValues) {
  // The same membership set probed through both structures: a narrow list
  // and the narrow list plus one far-away value (pushing the span past the
  // bitmap threshold) must agree on the shared values.
  const std::vector<int64_t> narrow = {2, 40, 777};
  std::vector<int64_t> wide = narrow;
  wide.push_back(100000);
  std::vector<int64_t> probes;
  for (int64_t v = -10; v <= 1000; ++v) probes.push_back(v);
  ExpectInList(narrow, probes, narrow);
  ExpectInList(wide, probes, narrow);
}

// ---- engine answers against the reference evaluator -----------------------

using ReferenceFixture = ref::StarFixture;

TEST_F(ReferenceFixture, ScanCorpusMatchesReference) {
  // Every bytecode shape through the scan: the SIMD compare+compact leaves
  // (Eq, Gt, Lt bounds, Between), non-kernel leaves (In over a bitmap and
  // over a wide span, ColCmp), multi-leaf conjunctions (RefineIf over the
  // first conjunct's survivors), nested structure, no filter at all, and
  // the empty result.
  auto add = [](PredicatePtr p) {
    QuerySpec q;
    q.tables.push_back({"fact", std::move(p)});
    return q;
  };
  for (const QuerySpec& q : {
           add(nullptr),
           add(MakeBetween("measure", 0, 4000)),
           add(MakeCmp("measure", CmpOp::kGt, 9000)),
           add(MakeCmp("measure", CmpOp::kEq, 77)),
           add(MakeIn("measure", {5, 17, 4099, 9999})),
           add(MakeIn("measure", {0, 5000, 9999})),
           add(MakeOr({MakeCmp("measure", CmpOp::kLt, 100),
                       MakeBetween("measure", 9000, 9100)})),
           add(MakeNot(MakeBetween("measure", 100, 9900))),
           add(MakeAnd({MakeCmp("measure", CmpOp::kGe, 1000),
                        MakeCmp("fk0", CmpOp::kLt, 300),
                        MakeBetween("fk1", 50, 450)})),
           add(MakeAnd({MakeCmp("measure", CmpOp::kGe, 1000),
                        MakeOr({MakeIn("fk0", {1, 2, 3}),
                                MakeCmp("fk1", CmpOp::kLt, 50)})})),
           add(MakeColCmp("fk0", CmpOp::kLt, "fk1")),
           add(MakeCmp("measure", CmpOp::kLt, -1)),
       }) {
    SCOPED_TRACE(q.tables[0].predicate == nullptr
                     ? std::string("no filter")
                     : ToString(q.tables[0].predicate));
    ref::CheckAgainstReference(&catalog, q);
  }
}

TEST_F(ReferenceFixture, StarJoinAndJoinAggMatchReference) {
  ref::CheckAgainstReference(&catalog,
                             workload::StarQuery(3, {2500, 3500, 4500}));

  QuerySpec agg = workload::StarQuery(3, {2500, 3500, 4500});
  agg.group_by = {"dim0.band"};
  agg.aggregates = {{AggFn::kCount, "", "cnt"},
                    {AggFn::kSum, "fact.measure", "sum_m"},
                    {AggFn::kMin, "fact.measure", "min_m"},
                    {AggFn::kMax, "fact.measure", "max_m"}};
  ref::CheckAgainstReference(&catalog, agg);

  agg.group_by.clear();  // global aggregate
  ref::CheckAgainstReference(&catalog, agg);
}

TEST(ReferenceEquivalenceTest, EquivalenceSuiteMatchesReference) {
  // The rewrite-equivalence families (negation, IN-vs-OR, range phrasing,
  // tautological padding) stress exactly the predicate shapes where the
  // bytecode could diverge from the reference evaluator.
  Catalog catalog;
  Table* t = catalog
                 .AddTable("t", Schema({{"a", LogicalType::kInt64, 0, nullptr},
                                        {"b", LogicalType::kInt64, 0, nullptr}}))
                 .value();
  Rng rng(6);
  t->SetColumnData(0, gen::Uniform(&rng, 5000, 0, 1000));
  t->SetColumnData(1, gen::Uniform(&rng, 5000, 0, 1000));
  for (const auto& family : workload::EquivalenceSuite(1000)) {
    for (const auto& formulation : family.formulations) {
      SCOPED_TRACE(family.description + ": " + ToString(formulation));
      QuerySpec q;
      q.tables.push_back({"t", formulation});
      ref::CheckAgainstReference(&catalog, q);
    }
  }
}

TEST_F(ReferenceFixture, UnboundParameterMatchesReferenceStatus) {
  // A parameterized predicate with no params supplied must surface a clean
  // status, not crash: BindParams leaves the placeholder unbound when the
  // param vector is too short, and compilation rejects it.
  QuerySpec q;
  q.tables.push_back({"fact", MakeParamCmp("measure", CmpOp::kLt, 0)});
  ASSERT_FALSE(ref::ReferenceEval(catalog, q).ok());
  ref::CheckAgainstReference(&catalog, q);

  q.params = {4000};  // bound: an ordinary filter
  ref::CheckAgainstReference(&catalog, q);
}

}  // namespace
}  // namespace rqp
