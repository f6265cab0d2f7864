#ifndef RQP_EXPR_EXPR_H_
#define RQP_EXPR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "expr/predicate.h"
#include "util/status.h"

namespace rqp {

/// Arithmetic operators supported in scalar expressions.
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };

const char* ArithOpName(ArithOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Column reference by (qualified) slot name.
struct ExprCol { std::string column; };

/// Integer literal.
struct ExprConst { int64_t value = 0; };

/// Unary negation (two's-complement wraparound on INT64_MIN).
struct ExprNeg { ExprPtr child; };

/// `left <op> right`. Add/Sub/Mul wrap around on overflow (two's
/// complement, evaluated through unsigned arithmetic); Div/Mod raise the
/// engine's single typed division-by-zero error on a zero divisor, and
/// INT64_MIN / -1 wraps to INT64_MIN (INT64_MIN % -1 is 0).
struct ExprArith {
  ArithOp op = ArithOp::kAdd;
  ExprPtr left, right;
};

/// `left <op> right` as an integer: 1 when the comparison holds, else 0.
struct ExprCmp {
  CmpOp op = CmpOp::kEq;
  ExprPtr left, right;
};

/// `CASE WHEN cond != 0 THEN then ELSE els END`. Evaluation is EAGER: both
/// branches are always evaluated and the condition selects between the two
/// results. This makes error *presence* (division by zero in an untaken
/// branch) independent of evaluation order, which is what keeps the
/// row-major tree walk (CompiledExpr) and the op-major VM (ExprProgram)
/// bit-identical — including on which queries fail.
struct ExprCase {
  ExprPtr cond, then_expr, else_expr;
};

/// Scalar expression AST node. Trees are immutable and shared; rewrites
/// (constant folding) build new trees.
struct Expr {
  std::variant<ExprCol, ExprConst, ExprNeg, ExprArith, ExprCmp, ExprCase>
      node;
};

/// A derived output column: `name` bound to the value of `expr` (the
/// projection list entry carried by QuerySpec/PlanNode and lowered to the
/// executor's MapOp).
struct DerivedColumn {
  std::string name;
  ExprPtr expr;
};

// ---- Builders ------------------------------------------------------------

ExprPtr MakeColExpr(std::string column);
ExprPtr MakeConstExpr(int64_t value);
ExprPtr MakeNegExpr(ExprPtr child);
ExprPtr MakeArith(ExprPtr left, ArithOp op, ExprPtr right);
ExprPtr MakeCmpExpr(ExprPtr left, CmpOp op, ExprPtr right);
ExprPtr MakeCaseExpr(ExprPtr cond, ExprPtr then_expr, ExprPtr else_expr);

// ---- Inspection ----------------------------------------------------------

/// Canonical text form (plan fingerprints, EXPLAIN, debugging).
std::string ToString(const ExprPtr& e);

/// Column names referenced by the expression (deduplicated, sorted).
std::vector<std::string> ExprReferencedColumns(const ExprPtr& e);

// ---- Evaluation semantics ------------------------------------------------

/// The engine's single typed expression-evaluation error. Deliberately a
/// fixed text with no row or operator detail: the tree walk hits the first
/// offending *row* while the VM hits the first offending *operator*, and a
/// shared payload-free status is what keeps the two evaluators
/// indistinguishable when a query fails.
Status ExprDivisionByZero();

/// Wraparound arithmetic helpers (two's complement via unsigned math — no
/// signed-overflow UB, identical results in every evaluator).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
inline int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}
/// Quotient with the INT64_MIN / -1 overflow wrapped to INT64_MIN.
/// Callers must reject b == 0 first (ExprDivisionByZero).
inline int64_t WrapDiv(int64_t a, int64_t b) {
  if (b == -1) return WrapNeg(a);
  return a / b;
}
/// Remainder with INT64_MIN % -1 defined as 0. Callers reject b == 0 first.
inline int64_t WrapMod(int64_t a, int64_t b) {
  if (b == -1) return 0;
  return a % b;
}

/// Expression compiled against a slot layout (name -> index) for per-row
/// tree-walk evaluation — the scalar counterpart of ExprProgram, kept as the
/// test oracle the VM must match bit-for-bit. No operator runs it.
class CompiledExpr {
 public:
  /// `slots[i]` is the column name occupying tuple position i.
  static StatusOr<CompiledExpr> Compile(const ExprPtr& e,
                                        const std::vector<std::string>& slots);

  /// Evaluates against one row; `*out` is defined only on OK.
  Status Eval(const int64_t* row, int64_t* out) const {
    return EvalNode(*root_, row, out);
  }
  const ExprPtr& source() const { return source_; }

 private:
  struct CNode;
  using CNodePtr = std::shared_ptr<const CNode>;
  struct CCol { size_t slot; };
  struct CConst { int64_t value; };
  struct CNeg { CNodePtr child; };
  struct CArith { ArithOp op; CNodePtr left, right; };
  struct CCmp { CmpOp op; CNodePtr left, right; };
  struct CCase { CNodePtr cond, then_node, else_node; };
  struct CNode {
    std::variant<CCol, CConst, CNeg, CArith, CCmp, CCase> node;
  };

  static StatusOr<CNodePtr> CompileNode(const ExprPtr& e,
                                        const std::vector<std::string>& slots);
  static Status EvalNode(const CNode& n, const int64_t* row, int64_t* out);

  ExprPtr source_;
  CNodePtr root_;
};

}  // namespace rqp

#endif  // RQP_EXPR_EXPR_H_
