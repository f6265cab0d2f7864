#ifndef RQP_EXPR_PREDICATE_H_
#define RQP_EXPR_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "storage/table.h"

namespace rqp {

/// Comparison operators supported in selection predicates.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);
bool EvalCmp(int64_t lhs, CmpOp op, int64_t rhs);

/// Index of `name` in a slot layout (`slots[i]` names tuple position i), or
/// -1 when absent — the one slot lookup the compilers and operators share.
int FindSlot(const std::vector<std::string>& slots, const std::string& name);

struct Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// `column op value`. If `param_index >= 0` the value is a placeholder bound
/// at execution time via BindParams.
struct Comparison {
  std::string column;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;
  int param_index = -1;
};

/// `column BETWEEN lo AND hi` (inclusive).
struct Between {
  std::string column;
  int64_t lo = 0;
  int64_t hi = 0;
};

/// `column IN (values...)`.
struct InList {
  std::string column;
  std::vector<int64_t> values;
};

/// `left_column op right_column` — a column-to-column comparison (theta
/// joins, residual join predicates in cyclic join graphs).
struct ColumnCmp {
  std::string left_column;
  CmpOp op = CmpOp::kEq;
  std::string right_column;
};

struct Conjunction { std::vector<PredicatePtr> children; };
struct Disjunction { std::vector<PredicatePtr> children; };
struct Negation { PredicatePtr child; };
struct ConstPred { bool value = true; };

/// Predicate AST node. Trees are immutable and shared; rewrites build new
/// trees.
struct Predicate {
  std::variant<Comparison, Between, InList, ColumnCmp, Conjunction,
               Disjunction, Negation, ConstPred>
      node;
};

// ---- Builders ------------------------------------------------------------

PredicatePtr MakeCmp(std::string column, CmpOp op, int64_t value);
PredicatePtr MakeParamCmp(std::string column, CmpOp op, int param_index);
PredicatePtr MakeBetween(std::string column, int64_t lo, int64_t hi);
PredicatePtr MakeIn(std::string column, std::vector<int64_t> values);
PredicatePtr MakeColCmp(std::string left_column, CmpOp op,
                        std::string right_column);
PredicatePtr MakeAnd(std::vector<PredicatePtr> children);
PredicatePtr MakeOr(std::vector<PredicatePtr> children);
PredicatePtr MakeNot(PredicatePtr child);
PredicatePtr MakeConst(bool value);

// ---- Inspection ----------------------------------------------------------

/// Canonical text form; used for debugging, feedback-cache keys, and the
/// equivalence experiment (two formulations normalize to the same string).
std::string ToString(const PredicatePtr& p);

/// Column names referenced by the predicate (deduplicated, sorted); none
/// for a null predicate.
std::vector<std::string> ReferencedColumns(const PredicatePtr& p);

/// True if the tree contains unbound parameters.
bool HasParams(const PredicatePtr& p);

/// Replaces parameter placeholders with values from `params`.
PredicatePtr BindParams(const PredicatePtr& p,
                        const std::vector<int64_t>& params);

/// Rewrites every column reference as `prefix + "." + column` (used by the
/// executor to qualify single-table predicates against join-output slots).
PredicatePtr QualifyColumns(const PredicatePtr& p, const std::string& prefix);

// ---- Evaluation ----------------------------------------------------------

/// Evaluates `p` against row `row` of `table` by walking the tree and
/// resolving columns by name on every call — the reference evaluator: tests
/// check every execution path against it, and ActualSelectivity (the ground
/// truth of the selectivity tests) counts with it. Execution paths run
/// PredicateProgram instead.
bool EvalOnTable(const PredicatePtr& p, const Table& table, int64_t row);

}  // namespace rqp

#endif  // RQP_EXPR_PREDICATE_H_
