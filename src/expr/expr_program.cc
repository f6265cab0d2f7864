#include "expr/expr_program.h"

#include <algorithm>

namespace rqp {

StatusOr<ExprProgram> ExprProgram::Compile(
    const ExprPtr& e, const std::vector<std::string>& slots) {
  if (e == nullptr) {
    return Status::InvalidArgument("cannot compile null expression");
  }
  ExprProgram prog;
  RQP_RETURN_IF_ERROR(EmitNode(e, slots, &prog));
  size_t depth = 0;
  for (const Instr& ins : prog.code_) {
    switch (ins.op) {
      case Instr::Op::kLoadCol:
        prog.num_slots_used_ = std::max(
            prog.num_slots_used_, static_cast<size_t>(ins.slot) + 1);
        ++depth;
        break;
      case Instr::Op::kLoadConst:
        ++depth;
        break;
      case Instr::Op::kNeg:
        break;  // in place
      case Instr::Op::kCase:
        depth -= 2;
        break;
      default:
        --depth;  // binary ops pop one
        break;
    }
    prog.max_depth_ = std::max(prog.max_depth_, depth);
  }
  return prog;
}

Status ExprProgram::EmitNode(const ExprPtr& e,
                             const std::vector<std::string>& slots,
                             ExprProgram* prog) {
  Status error = Status::OK();
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ExprCol>) {
          const int slot = FindSlot(slots, n.column);
          if (slot < 0) {
            error = Status::NotFound("slot for column '" + n.column + "'");
            return;
          }
          Instr ins;
          ins.op = Instr::Op::kLoadCol;
          ins.slot = static_cast<uint32_t>(slot);
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ExprConst>) {
          Instr ins;
          ins.op = Instr::Op::kLoadConst;
          ins.value = n.value;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ExprNeg>) {
          error = EmitNode(n.child, slots, prog);
          if (!error.ok()) return;
          Instr ins;
          ins.op = Instr::Op::kNeg;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ExprArith>) {
          error = EmitNode(n.left, slots, prog);
          if (!error.ok()) return;
          error = EmitNode(n.right, slots, prog);
          if (!error.ok()) return;
          Instr ins;
          switch (n.op) {
            case ArithOp::kAdd: ins.op = Instr::Op::kAdd; break;
            case ArithOp::kSub: ins.op = Instr::Op::kSub; break;
            case ArithOp::kMul: ins.op = Instr::Op::kMul; break;
            case ArithOp::kDiv: ins.op = Instr::Op::kDiv; break;
            case ArithOp::kMod: ins.op = Instr::Op::kMod; break;
          }
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ExprCmp>) {
          error = EmitNode(n.left, slots, prog);
          if (!error.ok()) return;
          error = EmitNode(n.right, slots, prog);
          if (!error.ok()) return;
          Instr ins;
          ins.op = Instr::Op::kCmp;
          ins.cmp = n.op;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ExprCase>) {
          error = EmitNode(n.cond, slots, prog);
          if (!error.ok()) return;
          error = EmitNode(n.then_expr, slots, prog);
          if (!error.ok()) return;
          error = EmitNode(n.else_expr, slots, prog);
          if (!error.ok()) return;
          Instr ins;
          ins.op = Instr::Op::kCase;
          prog->code_.push_back(ins);
        }
      },
      e->node);
  return error;
}

Status ExprProgram::EvalDense(const int64_t* const* cols, size_t stride,
                              size_t n, int64_t* out,
                              ExprScratch* scratch) const {
  auto& stack = scratch->stack;
  if (stack.size() < max_depth_) stack.resize(max_depth_);
  for (auto& v : stack) {
    if (v.size() < n) v.resize(n);
  }
  size_t depth = 0;
  for (const Instr& ins : code_) {
    switch (ins.op) {
      case Instr::Op::kLoadCol: {
        // Operand-stack vectors are distinct allocations and never alias the
        // source columns (table storage, batch cells, or the gather area
        // above max_depth_), so every loop below is declared alias-free —
        // stride-free loads plus __restrict is what lets the compiler emit
        // straight-line SIMD for the whole interpreter without runtime
        // overlap checks.
        int64_t* __restrict dst = stack[depth].data();
        const int64_t* __restrict col = cols[ins.slot];
        if (stride == 1) {
          std::copy(col, col + n, dst);
        } else {
          for (size_t i = 0; i < n; ++i) dst[i] = col[i * stride];
        }
        ++depth;
        break;
      }
      case Instr::Op::kLoadConst: {
        int64_t* dst = stack[depth].data();
        std::fill(dst, dst + n, ins.value);
        ++depth;
        break;
      }
      case Instr::Op::kNeg: {
        int64_t* __restrict a = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) a[i] = WrapNeg(a[i]);
        break;
      }
      case Instr::Op::kAdd: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) a[i] = WrapAdd(a[i], b[i]);
        --depth;
        break;
      }
      case Instr::Op::kSub: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) a[i] = WrapSub(a[i], b[i]);
        --depth;
        break;
      }
      case Instr::Op::kMul: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) a[i] = WrapMul(a[i], b[i]);
        --depth;
        break;
      }
      case Instr::Op::kDiv: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) {
          if (b[i] == 0) return ExprDivisionByZero();
        }
        for (size_t i = 0; i < n; ++i) a[i] = WrapDiv(a[i], b[i]);
        --depth;
        break;
      }
      case Instr::Op::kMod: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) {
          if (b[i] == 0) return ExprDivisionByZero();
        }
        for (size_t i = 0; i < n; ++i) a[i] = WrapMod(a[i], b[i]);
        --depth;
        break;
      }
      case Instr::Op::kCmp: {
        int64_t* __restrict a = stack[depth - 2].data();
        const int64_t* __restrict b = stack[depth - 1].data();
        switch (ins.cmp) {
          case CmpOp::kEq:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] == b[i] ? 1 : 0;
            break;
          case CmpOp::kNe:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] != b[i] ? 1 : 0;
            break;
          case CmpOp::kLt:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] < b[i] ? 1 : 0;
            break;
          case CmpOp::kLe:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] <= b[i] ? 1 : 0;
            break;
          case CmpOp::kGt:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] > b[i] ? 1 : 0;
            break;
          case CmpOp::kGe:
            for (size_t i = 0; i < n; ++i) a[i] = a[i] >= b[i] ? 1 : 0;
            break;
        }
        --depth;
        break;
      }
      case Instr::Op::kCase: {
        int64_t* __restrict cond = stack[depth - 3].data();
        const int64_t* __restrict tv = stack[depth - 2].data();
        const int64_t* __restrict ev = stack[depth - 1].data();
        for (size_t i = 0; i < n; ++i) {
          cond[i] = cond[i] != 0 ? tv[i] : ev[i];
        }
        depth -= 2;
        break;
      }
    }
  }
  const int64_t* result = stack[0].data();
  std::copy(result, result + n, out);
  return Status::OK();
}

Status ExprProgram::EvalSelection(const int64_t* const* cols, size_t stride,
                                  const SelectionVector& sel, int64_t* out,
                                  ExprScratch* scratch) const {
  // Gather the referenced lanes once per kLoadCol; everything downstream of
  // the loads is identical to the dense evaluator over sel.size() lanes.
  // Rather than duplicate the 10-op interpreter, gather into a compacted
  // per-slot view and run EvalDense with stride 1 over it.
  const size_t n = sel.size();
  if (n == 0) return Status::OK();
  auto& stack = scratch->stack;
  // Reserve extra vectors beyond the program's stack for the gathered
  // column views (slots occupy [max_depth_, max_depth_ + num_slots_used_)).
  const size_t needed = max_depth_ + num_slots_used_;
  if (stack.size() < needed) stack.resize(needed);
  std::vector<const int64_t*> views(num_slots_used_, nullptr);
  for (const Instr& ins : code_) {
    if (ins.op != Instr::Op::kLoadCol) continue;
    const size_t s = ins.slot;
    if (views[s] != nullptr) continue;
    std::vector<int64_t>& v = stack[max_depth_ + s];
    if (v.size() < n) v.resize(n);
    const int64_t* col = cols[s];
    for (size_t k = 0; k < n; ++k) v[k] = col[sel[k] * stride];
    views[s] = v.data();
  }
  return EvalDense(views.data(), 1, n, out, scratch);
}

}  // namespace rqp
