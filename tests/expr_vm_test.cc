// Expression-VM tests (DESIGN.md §13): FoldExpr constant folding is
// semantics-preserving under wraparound arithmetic and the typed
// division-by-zero error, ExprProgram's op-major bytecode is bit-identical
// to CompiledExpr's per-row tree walk (folded or not, dense or through a
// selection vector), PredicateProgram's IN lists agree with plain
// membership on both sides of the bitmap crossover, and the engine's Map
// path (derived projection, group-by on a derived slot, CASE,
// division by zero) matches the reference evaluator at DOP 1 and 4. Runs
// under the `expr_vm` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/expr_program.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "expr/rewriter.h"
#include "reference_eval.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();

// ---- constant folding ------------------------------------------------------

std::string Folded(const ExprPtr& e) { return ToString(FoldExpr(e)); }

TEST(FoldExprTest, ConstantArithmeticFoldsWithWraparound) {
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(2), ArithOp::kAdd,
                             MakeConstExpr(3))),
            ToString(MakeConstExpr(5)));
  // INT64_MAX + 1 wraps to INT64_MIN — folding must use the same Wrap*
  // helpers evaluation uses, not host signed arithmetic.
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(kI64Max), ArithOp::kAdd,
                             MakeConstExpr(1))),
            ToString(MakeConstExpr(kI64Min)));
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(kI64Min), ArithOp::kMul,
                             MakeConstExpr(-1))),
            ToString(MakeConstExpr(kI64Min)));
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(kI64Min), ArithOp::kDiv,
                             MakeConstExpr(-1))),
            ToString(MakeConstExpr(kI64Min)));
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(kI64Min), ArithOp::kMod,
                             MakeConstExpr(-1))),
            ToString(MakeConstExpr(0)));
  EXPECT_EQ(Folded(MakeNegExpr(MakeConstExpr(kI64Min))),
            ToString(MakeConstExpr(kI64Min)));
  EXPECT_EQ(Folded(MakeCmpExpr(MakeConstExpr(3), CmpOp::kLt,
                               MakeConstExpr(7))),
            ToString(MakeConstExpr(1)));
}

TEST(FoldExprTest, IdentitiesSimplify) {
  const ExprPtr a = MakeColExpr("a");
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kAdd, MakeConstExpr(0))),
            ToString(a));
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(0), ArithOp::kAdd, a)),
            ToString(a));
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kSub, MakeConstExpr(0))),
            ToString(a));
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kMul, MakeConstExpr(1))),
            ToString(a));
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kDiv, MakeConstExpr(1))),
            ToString(a));
  EXPECT_EQ(Folded(MakeNegExpr(MakeNegExpr(a))), ToString(a));
  // Elidable zero-product and x % 1 collapse to the literal.
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kMul, MakeConstExpr(0))),
            ToString(MakeConstExpr(0)));
  EXPECT_EQ(Folded(MakeArith(a, ArithOp::kMod, MakeConstExpr(1))),
            ToString(MakeConstExpr(0)));
}

TEST(FoldExprTest, ConstantsCanonicalizeToTheRight) {
  const ExprPtr a = MakeColExpr("a");
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(5), ArithOp::kAdd, a)),
            ToString(MakeArith(a, ArithOp::kAdd, MakeConstExpr(5))));
  EXPECT_EQ(Folded(MakeArith(MakeConstExpr(5), ArithOp::kMul, a)),
            ToString(MakeArith(a, ArithOp::kMul, MakeConstExpr(5))));
  // Comparisons mirror the operator when the constant moves.
  EXPECT_EQ(Folded(MakeCmpExpr(MakeConstExpr(5), CmpOp::kLt, a)),
            ToString(MakeCmpExpr(a, CmpOp::kGt, MakeConstExpr(5))));
}

TEST(FoldExprTest, ErrorPreservationGatesEliding) {
  const ExprPtr a = MakeColExpr("a");
  const ExprPtr b = MakeColExpr("b");
  const ExprPtr a_div_b = MakeArith(a, ArithOp::kDiv, b);

  // A literal division by zero stays unfolded so the runtime error fires.
  const ExprPtr div0 =
      MakeArith(MakeConstExpr(1), ArithOp::kDiv, MakeConstExpr(0));
  EXPECT_EQ(Folded(div0), ToString(div0));

  // (a/b) * 0 may NOT fold to 0: the division can still error.
  EXPECT_EQ(Folded(MakeArith(a_div_b, ArithOp::kMul, MakeConstExpr(0))),
            ToString(MakeArith(a_div_b, ArithOp::kMul, MakeConstExpr(0))));
  // (a/b) % 1 likewise keeps the division alive.
  EXPECT_NE(Folded(MakeArith(a_div_b, ArithOp::kMod, MakeConstExpr(1))),
            ToString(MakeConstExpr(0)));
  // But a division-free subtree does elide.
  EXPECT_EQ(Folded(MakeArith(MakeArith(a, ArithOp::kAdd, b), ArithOp::kMul,
                             MakeConstExpr(0))),
            ToString(MakeConstExpr(0)));

  // Constant-condition CASE drops the untaken branch only when that branch
  // cannot error (CASE is eager: both branches always run).
  EXPECT_EQ(Folded(MakeCaseExpr(MakeConstExpr(1), a, b)), ToString(a));
  EXPECT_EQ(Folded(MakeCaseExpr(MakeConstExpr(0), a, b)), ToString(b));
  EXPECT_EQ(Folded(MakeCaseExpr(MakeConstExpr(1), a, a_div_b)),
            ToString(MakeCaseExpr(MakeConstExpr(1), a, a_div_b)));
  EXPECT_EQ(Folded(MakeCaseExpr(MakeConstExpr(0), a_div_b, b)),
            ToString(MakeCaseExpr(MakeConstExpr(0), a_div_b, b)));
}

// ---- randomized corpus: folded vs unfolded vs tree walk vs VM --------------

/// Depth-limited random expression over columns {a, b, c} and a constant
/// pool rich in wraparound and divisor edge cases.
ExprPtr RandomExpr(Rng* rng, int depth) {
  static const int64_t kConsts[] = {0,  1,  -1, 2,       7,       -7,
                                    97, kI64Max, kI64Min, 4096, 1000000};
  static const char* kCols[] = {"a", "b", "c"};
  if (depth <= 0 || rng->Uniform(0, 3) == 0) {
    if (rng->Uniform(0, 1) == 0) {
      return MakeColExpr(kCols[rng->Uniform(0, 2)]);
    }
    return MakeConstExpr(
        kConsts[rng->Uniform(0, sizeof(kConsts) / sizeof(kConsts[0]) - 1)]);
  }
  switch (rng->Uniform(0, 7)) {
    case 0:
      return MakeNegExpr(RandomExpr(rng, depth - 1));
    case 1:
      return MakeArith(RandomExpr(rng, depth - 1), ArithOp::kAdd,
                       RandomExpr(rng, depth - 1));
    case 2:
      return MakeArith(RandomExpr(rng, depth - 1), ArithOp::kSub,
                       RandomExpr(rng, depth - 1));
    case 3:
      return MakeArith(RandomExpr(rng, depth - 1), ArithOp::kMul,
                       RandomExpr(rng, depth - 1));
    case 4:
      return MakeArith(RandomExpr(rng, depth - 1),
                       rng->Uniform(0, 1) == 0 ? ArithOp::kDiv : ArithOp::kMod,
                       RandomExpr(rng, depth - 1));
    case 5: {
      static const CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                   CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
      return MakeCmpExpr(RandomExpr(rng, depth - 1), kOps[rng->Uniform(0, 5)],
                         RandomExpr(rng, depth - 1));
    }
    default:
      return MakeCaseExpr(RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1),
                          RandomExpr(rng, depth - 1));
  }
}

TEST(ExprVmEquivalenceTest, RandomCorpusBitForBit) {
  const std::vector<std::string> slots = {"a", "b", "c"};
  // Row values drawn from the same edge-heavy pool the generator uses.
  const int64_t pool[] = {0, 1, -1, 2, -2, 7, 97, kI64Max, kI64Min,
                          4095, 4097, -1000000};
  Rng rows_rng(41);
  const size_t kRows = 96;
  std::vector<int64_t> batch;  // row-major, 3 columns
  for (size_t i = 0; i < kRows; ++i) {
    for (int c = 0; c < 3; ++c) {
      batch.push_back(
          pool[rows_rng.Uniform(0, sizeof(pool) / sizeof(pool[0]) - 1)]);
    }
  }
  const int64_t* cols[3] = {batch.data(), batch.data() + 1, batch.data() + 2};

  Rng rng(7);
  const Status div0 = ExprDivisionByZero();
  int evaluable = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const ExprPtr e = RandomExpr(&rng, 4);
    const ExprPtr folded = FoldExpr(e);

    auto tree = CompiledExpr::Compile(e, slots);
    auto tree_folded = CompiledExpr::Compile(folded, slots);
    auto vm = ExprProgram::Compile(e, slots);
    auto vm_folded = ExprProgram::Compile(folded, slots);
    ASSERT_TRUE(tree.ok() && tree_folded.ok() && vm.ok() && vm_folded.ok())
        << ToString(e);

    // Per-row reference: the unfolded tree walk.
    std::vector<int64_t> want(kRows, 0);
    std::vector<bool> errs(kRows, false);
    bool any_err = false;
    for (size_t i = 0; i < kRows; ++i) {
      const Status st = tree.value().Eval(&batch[i * 3], &want[i]);
      errs[i] = !st.ok();
      any_err |= errs[i];
      if (!st.ok()) {
        EXPECT_EQ(st.ToString(), div0.ToString()) << ToString(e);
      }
      // Folding is semantics-preserving row by row.
      int64_t fv = 0;
      const Status fst = tree_folded.value().Eval(&batch[i * 3], &fv);
      EXPECT_EQ(fst.ok(), st.ok()) << ToString(e) << " row " << i;
      if (st.ok() && fst.ok()) {
        EXPECT_EQ(fv, want[i]) << ToString(e) << " row " << i;
      }
      // The VM over a one-row selection: the same value, and the same
      // error exactly when this row divides by zero.
      int64_t pv = 0;
      ExprScratch row_scratch;
      const Status pst = vm.value().EvalSelection(
          cols, 3, {static_cast<uint32_t>(i)}, &pv, &row_scratch);
      EXPECT_EQ(pst.ok(), st.ok()) << ToString(e) << " row " << i;
      if (!pst.ok()) {
        EXPECT_EQ(pst.ToString(), div0.ToString()) << ToString(e);
      } else if (st.ok()) {
        EXPECT_EQ(pv, want[i]) << ToString(e) << " row " << i;
      }
    }
    if (!any_err) ++evaluable;

    ExprScratch scratch;
    for (const auto* prog : {&vm.value(), &vm_folded.value()}) {
      // Dense: the whole batch errors iff any row errors, same fixed text.
      std::vector<int64_t> out(kRows, 0);
      const Status st = prog->EvalDense(cols, 3, kRows, out.data(), &scratch);
      EXPECT_EQ(st.ok(), !any_err) << ToString(e);
      if (!st.ok()) {
        EXPECT_EQ(st.ToString(), div0.ToString()) << ToString(e);
      } else {
        EXPECT_EQ(out, want) << ToString(e);
      }

      // Selection: only selected lanes participate — errors in unselected
      // rows are invisible, errors in selected rows still surface.
      SelectionVector sel;
      std::vector<int64_t> sel_want;
      bool sel_err = false;
      for (size_t i = 0; i < kRows; i += 3) {
        sel.push_back(static_cast<uint32_t>(i));
        sel_want.push_back(want[i]);
        sel_err |= errs[i];
      }
      std::vector<int64_t> sel_out(sel.size(), 0);
      const Status ss =
          prog->EvalSelection(cols, 3, sel, sel_out.data(), &scratch);
      EXPECT_EQ(ss.ok(), !sel_err) << ToString(e);
      if (!ss.ok()) {
        EXPECT_EQ(ss.ToString(), div0.ToString()) << ToString(e);
      } else if (!sel_err) {
        EXPECT_EQ(sel_out, sel_want) << ToString(e);
      }
    }
  }
  // The corpus must actually exercise the success path, not just errors.
  EXPECT_GT(evaluable, 50);
}

// ---- IN-bitmap crossover ---------------------------------------------------

TEST(InBitmapSpanTest, EveryEntryPointAgreesAcrossTheCrossover) {
  // IN lists straddling the crossover (span just inside the bitmap
  // threshold and just past it: binary search) and lists at the ends of
  // int64 (a bitmap at either end, and one list spanning the whole domain)
  // whose spans and probe offsets overflow a signed difference. The
  // bytecode, per row, dense and refining, must agree with plain
  // membership for every probe around each value and at both ends of
  // int64, whichever structure it picked.
  const std::vector<std::string> slots = {"a"};
  const int64_t lo = -17;
  std::vector<std::vector<int64_t>> lists = {
      {kI64Min, kI64Min + 2}, {kI64Max - 2, kI64Max}, {kI64Min, lo, kI64Max}};
  for (const int64_t span : {kInDenseBitmapSpan - 1, kInDenseBitmapSpan + 1}) {
    lists.push_back({lo, lo + 3, lo + span / 2, lo + span});
  }
  for (const auto& values : lists) {
    auto program = PredicateProgram::Compile(MakeIn("a", values), slots);
    ASSERT_TRUE(program.ok());

    std::vector<int64_t> probes = {kI64Min, kI64Min + 1, kI64Max - 1,
                                   kI64Max};
    for (int64_t v = lo - 2; v <= lo + 6; ++v) probes.push_back(v);
    for (const int64_t v : values) {
      if (v > kI64Min) probes.push_back(v - 1);
      probes.push_back(v);
      if (v < kI64Max) probes.push_back(v + 1);
    }

    SelectionVector expect;
    for (size_t i = 0; i < probes.size(); ++i) {
      const bool want = std::find(values.begin(), values.end(), probes[i]) !=
                        values.end();
      EXPECT_EQ(program.value().EvalRow(&probes[i]), want) << probes[i];
      if (want) expect.push_back(static_cast<uint32_t>(i));
    }
    const int64_t* cols[1] = {probes.data()};
    SelectionVector dense;
    program.value().BuildSelection(cols, 1, probes.size(), &dense);
    EXPECT_EQ(dense, expect) << values.front();
    SelectionVector refined(probes.size());
    std::iota(refined.begin(), refined.end(), 0u);
    program.value().FilterSelection(cols, 1, &refined);
    EXPECT_EQ(refined, expect) << values.front();
  }
}

// ---- engine answers through the Map path -----------------------------------

using ExprVmFixture = ref::StarFixture;

TEST_F(ExprVmFixture, ProjectionMatchesReference) {
  // Derived columns with no aggregation: MapOp output flows straight out.
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 2000)});
  q.derived = {
      {"d0", MakeArith(MakeArith(MakeColExpr("fact.measure"), ArithOp::kMul,
                                 MakeConstExpr(3)),
                       ArithOp::kSub, MakeColExpr("fact.fk1"))},
      {"d1", MakeArith(MakeColExpr("fact.measure"), ArithOp::kDiv,
                       MakeArith(MakeColExpr("fact.fk0"), ArithOp::kAdd,
                                 MakeConstExpr(1)))},
  };
  ref::CheckAgainstReference(&catalog, q);
}

TEST_F(ExprVmFixture, GroupByDerivedSlotMatchesReference) {
  // Grouping on a derived slot exercises Map feeding HashAgg key assembly.
  QuerySpec q;
  q.tables.push_back({"fact", MakeCmp("measure", CmpOp::kLt, 5000)});
  q.derived = {{"bucket", MakeArith(MakeColExpr("fact.measure"), ArithOp::kDiv,
                                    MakeConstExpr(500))}};
  q.group_by = {"bucket"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"}};
  ref::CheckAgainstReference(&catalog, q);
}

TEST_F(ExprVmFixture, CaseOverStarJoinMatchesReference) {
  // Star join with derived columns over the joined slots (a modulo and a
  // CASE) and aggregates over the derived slots — the full Map → HashAgg
  // path.
  QuerySpec q = workload::StarQuery(3, {2500, 3500, 4500});
  q.derived = {
      {"m2", MakeArith(MakeColExpr("fact.measure"), ArithOp::kMod,
                       MakeConstExpr(97))},
      {"m3", MakeCaseExpr(
                 MakeCmpExpr(MakeColExpr("fact.fk0"), CmpOp::kLt,
                             MakeConstExpr(250)),
                 MakeColExpr("fact.measure"),
                 MakeNegExpr(MakeColExpr("fact.measure")))},
  };
  q.group_by = {"dim0.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "m3", "sum_m3"},
                  {AggFn::kMin, "m3", "min_m3"},
                  {AggFn::kMax, "m2", "max_m2"}};
  ref::CheckAgainstReference(&catalog, q);
}

TEST_F(ExprVmFixture, DivisionByZeroMatchesReferenceStatus) {
  // x - x does not fold (no such rule), so every row divides by zero; the
  // engine must surface the oracle's payload-free status.
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.derived = {{"boom", MakeArith(MakeColExpr("fact.measure"), ArithOp::kDiv,
                                  MakeArith(MakeColExpr("fact.fk0"),
                                            ArithOp::kSub,
                                            MakeColExpr("fact.fk0")))}};
  const auto want = ref::ReferenceEval(catalog, q);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.status().ToString(), ExprDivisionByZero().ToString());
  ref::CheckAgainstReference(&catalog, q);
}

}  // namespace
}  // namespace rqp
