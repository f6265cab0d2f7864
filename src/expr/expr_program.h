#ifndef RQP_EXPR_EXPR_PROGRAM_H_
#define RQP_EXPR_EXPR_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "expr/pred_program.h"
#include "util/status.h"

namespace rqp {

/// Caller-owned evaluation scratch for ExprProgram: the VM's stack of value
/// vectors, reused across batches so the hot path never allocates after
/// warm-up. One scratch per thread — the program itself is immutable after
/// Compile and safe to share across DOP > 1 workers.
struct ExprScratch {
  std::vector<std::vector<int64_t>> stack;
};

/// A scalar expression compiled to flattened postfix bytecode, evaluated
/// column-at-a-time — the arithmetic generalization of PredicateProgram
/// (same minmath-style optimizer/bytecode split: FoldExpr simplifies the
/// AST, Compile emits one contiguous op vector, evaluation is a tight
/// stack-machine loop per operator over the whole vector).
///
/// Columns are addressed as `cols[slot][row * stride]`, exactly like
/// PredicateProgram: table columns pass raw data() pointers with stride 1,
/// row-major RowBatches pass `data() + slot` with stride = num_cols.
///
/// Semantics are bit-identical to CompiledExpr's per-row tree walk:
/// wraparound add/sub/mul/neg, WrapDiv/WrapMod, eager CASE, and the single
/// payload-free ExprDivisionByZero() error — the VM detects a zero divisor
/// on the first offending *operator* while the tree walk hits the first
/// offending *row*, but because the status carries no position, the two
/// modes return the same error for the same data.
class ExprProgram {
 public:
  /// Compiles `e` against a slot layout (`slots[i]` = name of column i).
  static StatusOr<ExprProgram> Compile(const ExprPtr& e,
                                       const std::vector<std::string>& slots);

  /// Evaluates over the dense range [0, n): `out[i]` = value at row i.
  Status EvalDense(const int64_t* const* cols, size_t stride, size_t n,
                   int64_t* out, ExprScratch* scratch) const;

  /// Evaluates over a selection vector: `out[k]` = value at row sel[k].
  Status EvalSelection(const int64_t* const* cols, size_t stride,
                       const SelectionVector& sel, int64_t* out,
                       ExprScratch* scratch) const;

  /// Highest slot index referenced plus one.
  size_t num_slots_used() const { return num_slots_used_; }
  size_t num_instructions() const { return code_.size(); }
  /// Maximum operand-stack depth the program reaches (scratch sizing).
  size_t max_stack_depth() const { return max_depth_; }

 private:
  struct Instr {
    enum class Op : uint8_t {
      kLoadCol,    ///< push cols[slot]
      kLoadConst,  ///< push value
      kNeg,        ///< a = -a (wraparound)
      kAdd,        ///< pop b; a = a + b (wraparound)
      kSub,        ///< pop b; a = a - b (wraparound)
      kMul,        ///< pop b; a = a * b (wraparound)
      kDiv,        ///< pop b; a = a / b (error on b == 0)
      kMod,        ///< pop b; a = a % b (error on b == 0)
      kCmp,        ///< pop b; a = (a <cmp> b) ? 1 : 0
      kCase,       ///< pop else, then; a = cond != 0 ? then : else
    };
    Op op = Op::kLoadConst;
    CmpOp cmp = CmpOp::kEq;
    uint32_t slot = 0;
    int64_t value = 0;
  };

  static Status EmitNode(const ExprPtr& e,
                         const std::vector<std::string>& slots,
                         ExprProgram* prog);

  std::vector<Instr> code_;
  size_t num_slots_used_ = 0;
  size_t max_depth_ = 0;
};

}  // namespace rqp

#endif  // RQP_EXPR_EXPR_PROGRAM_H_
