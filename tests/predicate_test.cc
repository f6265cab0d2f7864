#include <gtest/gtest.h>

#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace rqp {
namespace {

Table MakeTestTable() {
  Table t("t", Schema({{"a", LogicalType::kInt64, 0, nullptr},
                       {"b", LogicalType::kInt64, 0, nullptr}}));
  t.SetColumnData(0, {1, 2, 3, 4, 5});
  t.SetColumnData(1, {10, 20, 30, 40, 50});
  return t;
}

int CountMatches(const PredicatePtr& p, const Table& t) {
  int n = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (EvalOnTable(p, t, r)) ++n;
  }
  return n;
}

TEST(PredicateTest, EvalCmpAllOps) {
  EXPECT_TRUE(EvalCmp(1, CmpOp::kEq, 1));
  EXPECT_FALSE(EvalCmp(1, CmpOp::kEq, 2));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kNe, 2));
  EXPECT_TRUE(EvalCmp(1, CmpOp::kLt, 2));
  EXPECT_FALSE(EvalCmp(2, CmpOp::kLt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kLe, 2));
  EXPECT_TRUE(EvalCmp(3, CmpOp::kGt, 2));
  EXPECT_TRUE(EvalCmp(2, CmpOp::kGe, 2));
}

TEST(PredicateTest, ComparisonOnTable) {
  Table t = MakeTestTable();
  EXPECT_EQ(CountMatches(MakeCmp("a", CmpOp::kGe, 3), t), 3);
  EXPECT_EQ(CountMatches(MakeCmp("b", CmpOp::kEq, 20), t), 1);
}

TEST(PredicateTest, BetweenInclusive) {
  Table t = MakeTestTable();
  EXPECT_EQ(CountMatches(MakeBetween("a", 2, 4), t), 3);
}

TEST(PredicateTest, InList) {
  Table t = MakeTestTable();
  EXPECT_EQ(CountMatches(MakeIn("a", {1, 5, 99}), t), 2);
}

TEST(PredicateTest, BooleanCombinators) {
  Table t = MakeTestTable();
  auto p = MakeAnd({MakeCmp("a", CmpOp::kGe, 2), MakeCmp("b", CmpOp::kLe, 40)});
  EXPECT_EQ(CountMatches(p, t), 3);  // a in {2,3,4}
  auto q = MakeOr({MakeCmp("a", CmpOp::kEq, 1), MakeCmp("a", CmpOp::kEq, 5)});
  EXPECT_EQ(CountMatches(q, t), 2);
  EXPECT_EQ(CountMatches(MakeNot(q), t), 3);
  EXPECT_EQ(CountMatches(MakeConst(true), t), 5);
  EXPECT_EQ(CountMatches(MakeConst(false), t), 0);
}

TEST(PredicateTest, ColumnCmpEvaluates) {
  Table t = MakeTestTable();
  // b == a * 10, so a < b everywhere and a == b nowhere.
  EXPECT_EQ(CountMatches(MakeColCmp("a", CmpOp::kLt, "b"), t), 5);
  EXPECT_EQ(CountMatches(MakeColCmp("a", CmpOp::kEq, "b"), t), 0);
  EXPECT_EQ(CountMatches(MakeColCmp("b", CmpOp::kGe, "a"), t), 5);
  EXPECT_EQ(ToString(MakeColCmp("a", CmpOp::kLt, "b")), "a < b");
  EXPECT_EQ(ReferencedColumns(MakeColCmp("b", CmpOp::kLt, "a")),
            (std::vector<std::string>{"a", "b"}));
}

TEST(PredProgramTest, ColumnCmpCompiles) {
  auto p = MakeColCmp("x", CmpOp::kLe, "y");
  auto program = PredicateProgram::Compile(p, {"x", "y"});
  ASSERT_TRUE(program.ok());
  int64_t row_le[2] = {3, 5};
  EXPECT_TRUE(program->EvalRow(row_le));
  int64_t row_gt[2] = {6, 5};
  EXPECT_FALSE(program->EvalRow(row_gt));
  // Either side missing from the layout fails.
  EXPECT_FALSE(PredicateProgram::Compile(p, {"x"}).ok());
  EXPECT_FALSE(PredicateProgram::Compile(p, {"y"}).ok());
}

TEST(PredicateTest, ToStringIsReadable) {
  auto p = MakeAnd({MakeCmp("a", CmpOp::kGe, 2), MakeBetween("b", 1, 3)});
  EXPECT_EQ(ToString(p), "(a >= 2 AND b BETWEEN 1 AND 3)");
  EXPECT_EQ(ToString(MakeIn("c", {1, 2})), "c IN (1, 2)");
  EXPECT_EQ(ToString(MakeParamCmp("x", CmpOp::kEq, 3)), "x = ?3");
}

TEST(PredicateTest, ReferencedColumnsDeduplicated) {
  auto p = MakeAnd({MakeCmp("b", CmpOp::kGe, 2), MakeCmp("a", CmpOp::kLe, 3),
                    MakeNot(MakeCmp("b", CmpOp::kEq, 7))});
  EXPECT_EQ(ReferencedColumns(p), (std::vector<std::string>{"a", "b"}));
}

TEST(PredicateTest, ReferencedColumnsOfNullPredicateIsEmpty) {
  // Index-NL joins and cross products carry no predicate; plan walks ask
  // every node for its columns.
  EXPECT_TRUE(ReferencedColumns(nullptr).empty());
}

TEST(PredicateTest, ParamsBindAndDetect) {
  auto p = MakeAnd(
      {MakeParamCmp("a", CmpOp::kGe, 0), MakeParamCmp("a", CmpOp::kLe, 1)});
  EXPECT_TRUE(HasParams(p));
  auto bound = BindParams(p, {2, 4});
  EXPECT_FALSE(HasParams(bound));
  Table t = MakeTestTable();
  EXPECT_EQ(CountMatches(bound, t), 3);
}

TEST(PredProgramTest, MissingSlotFails) {
  auto program = PredicateProgram::Compile(MakeCmp("zz", CmpOp::kEq, 1),
                                           {"a", "b"});
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
  // Against a table the layout is its unqualified column names.
  Table t = MakeTestTable();
  EXPECT_TRUE(PredicateProgram::Compile(MakeCmp("a", CmpOp::kEq, 1), t).ok());
  EXPECT_FALSE(
      PredicateProgram::Compile(MakeCmp("t.a", CmpOp::kEq, 1), t).ok());
}

TEST(PredProgramTest, ConstantConjunctsArePrunedBeforeResolution) {
  // A FALSE conjunct collapses the conjunction before any column resolves,
  // so an unknown column (or an unbound parameter) beside it compiles.
  Table t = MakeTestTable();
  auto never = PredicateProgram::Compile(
      MakeAnd({MakeConst(false), MakeCmp("zz", CmpOp::kEq, 1)}), t);
  ASSERT_TRUE(never.ok());
  EXPECT_EQ(never->num_conjuncts(), 1u);
  const int64_t row[2] = {1, 10};
  EXPECT_FALSE(never->EvalRow(row));
  EXPECT_TRUE(PredicateProgram::Compile(
                  MakeAnd({MakeParamCmp("a", CmpOp::kEq, 0), MakeConst(false)}),
                  t)
                  .ok());
  // TRUE conjuncts are dropped, but the rest still resolves.
  EXPECT_FALSE(PredicateProgram::Compile(
                   MakeAnd({MakeConst(true), MakeCmp("zz", CmpOp::kEq, 1)}), t)
                   .ok());
}

}  // namespace
}  // namespace rqp
