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

/// IN-list membership crossover shared by every evaluator: lists whose
/// value range spans fewer than this many integers use a dense membership
/// bitmap (bounds check + one load) instead of a binary search over the
/// sorted values. CompiledPredicate (per row) and PredicateProgram (batch)
/// use the SAME crossover: both membership structures give the same
/// answer, and one constant removes the risk of the thresholds drifting
/// apart silently (they were two hard-coded 4096s before).
inline constexpr int64_t kInDenseBitmapSpan = 4096;

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

/// Column names referenced by the predicate (deduplicated, sorted).
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

/// Evaluates `p` against row `row` of `table`. Columns are resolved by name
/// on every call; use CompiledPredicate on hot paths.
bool EvalOnTable(const PredicatePtr& p, const Table& table, int64_t row);

/// Predicate compiled against a slot layout (name -> index), for evaluation
/// over executor tuples without per-row name lookups.
class CompiledPredicate {
 public:
  /// `slots[i]` is the column name occupying tuple position i.
  static StatusOr<CompiledPredicate> Compile(
      const PredicatePtr& p, const std::vector<std::string>& slots);

  bool Eval(const int64_t* row) const { return EvalNode(*root_, row); }
  const PredicatePtr& source() const { return source_; }

  /// IN-list bitmap crossover (see kInDenseBitmapSpan).
  static constexpr int64_t kInBitmapSpan = kInDenseBitmapSpan;

 private:
  struct CNode;
  using CNodePtr = std::shared_ptr<const CNode>;
  struct CCmp { size_t slot; CmpOp op; int64_t value; };
  struct CColCmp { size_t left_slot; CmpOp op; size_t right_slot; };
  struct CBetween { size_t slot; int64_t lo, hi; };
  struct CIn {
    size_t slot;
    std::vector<int64_t> sorted_values;
    std::vector<uint8_t> bitmap;  ///< non-empty: use bitmap membership
    int64_t bitmap_min = 0;
  };
  struct CAnd { std::vector<CNodePtr> children; };
  struct COr { std::vector<CNodePtr> children; };
  struct CNot { CNodePtr child; };
  struct CConst { bool value; };
  struct CNode {
    std::variant<CCmp, CColCmp, CBetween, CIn, CAnd, COr, CNot, CConst> node;
  };

  static StatusOr<CNodePtr> CompileNode(
      const PredicatePtr& p, const std::vector<std::string>& slots);
  static bool EvalNode(const CNode& n, const int64_t* row);

  PredicatePtr source_;
  CNodePtr root_;
};

}  // namespace rqp

#endif  // RQP_EXPR_PREDICATE_H_
