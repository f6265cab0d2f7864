#include "expr/pred_program.h"

#include <algorithm>
#include <numeric>

namespace rqp {

namespace {

/// Compacts `sel` to the rows where `pred(value)` holds — the tight loop
/// every single-leaf conjunct runs, specialized per comparison. The store is
/// unconditional and the cursor advances by the predicate's truth value, so
/// the loop carries no data-dependent branch (mixed selectivities would
/// otherwise stall it on mispredictions); stride 1 gets its own copy so the
/// common zero-copy columnar case indexes without the multiply.
template <typename Pred>
void RefineIf(const int64_t* col, size_t stride, SelectionVector* sel,
              Pred pred) {
  SelectionVector& s = *sel;
  size_t out = 0;
  if (stride == 1) {
    for (size_t k = 0; k < s.size(); ++k) {
      const uint32_t r = s[k];
      s[out] = r;
      out += pred(col[r]) ? 1 : 0;
    }
  } else {
    for (size_t k = 0; k < s.size(); ++k) {
      const uint32_t r = s[k];
      s[out] = r;
      out += pred(col[r * stride]) ? 1 : 0;
    }
  }
  s.resize(out);
}

/// Dense variant of RefineIf: evaluates `pred` over rows [0, n) directly,
/// fusing the iota initialization with the first refinement pass so the
/// selection vector is written once, already compacted.
template <typename Pred>
void DenseIf(const int64_t* col, size_t stride, size_t n, SelectionVector* sel,
             Pred pred) {
  SelectionVector& s = *sel;
  s.resize(n);
  size_t out = 0;
  if (stride == 1) {
    for (size_t i = 0; i < n; ++i) {
      s[out] = static_cast<uint32_t>(i);
      out += pred(col[i]) ? 1 : 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      s[out] = static_cast<uint32_t>(i);
      out += pred(col[i * stride]) ? 1 : 0;
    }
  }
  s.resize(out);
}

template <typename Pred>
void MaskIf(const int64_t* col, size_t stride, const SelectionVector& sel,
            std::vector<uint8_t>* mask, Pred pred) {
  std::vector<uint8_t>& m = *mask;
  m.resize(sel.size());
  for (size_t k = 0; k < sel.size(); ++k) {
    m[k] = pred(col[sel[k] * stride]) ? 1 : 0;
  }
}

/// Dispatches a comparison op to a specialized loop body.
template <typename Body>
void WithCmp(CmpOp op, int64_t rhs, Body body) {
  switch (op) {
    case CmpOp::kEq: body([rhs](int64_t v) { return v == rhs; }); return;
    case CmpOp::kNe: body([rhs](int64_t v) { return v != rhs; }); return;
    case CmpOp::kLt: body([rhs](int64_t v) { return v < rhs; }); return;
    case CmpOp::kLe: body([rhs](int64_t v) { return v <= rhs; }); return;
    case CmpOp::kGt: body([rhs](int64_t v) { return v > rhs; }); return;
    case CmpOp::kGe: body([rhs](int64_t v) { return v >= rhs; }); return;
  }
}

}  // namespace

bool PredicateProgram::InSet::Contains(int64_t v) const {
  if (!bitmap.empty()) {
    // Unsigned offset: probes below `min` wrap past the end of the bitmap,
    // and no probe overflows a signed difference.
    const uint64_t off =
        static_cast<uint64_t>(v) - static_cast<uint64_t>(min);
    return off < bitmap.size() && bitmap[off] != 0;
  }
  return std::binary_search(sorted_values.begin(), sorted_values.end(), v);
}

StatusOr<PredicateProgram> PredicateProgram::Compile(
    const PredicatePtr& p, const std::vector<std::string>& slots) {
  PredicateProgram prog;
  // Split the top-level conjunction (recursively: an AND of ANDs flattens)
  // into conjunct spans so evaluation can refine the selection between them.
  std::vector<PredicatePtr> conjuncts;
  auto flatten = [&](auto&& self, const PredicatePtr& node) -> void {
    if (const auto* c = std::get_if<Conjunction>(&node->node)) {
      for (const auto& child : c->children) self(self, child);
      return;
    }
    conjuncts.push_back(node);
  };
  flatten(flatten, p);
  // Prune constant conjuncts before emission: TRUE conjuncts refine nothing
  // (predicate leaves have no side effects, so dropping them is always
  // sound), and one FALSE conjunct makes the whole conjunction FALSE — the
  // program collapses to that single constant. Always-true trees produced
  // by Normalize/parameter folding then cost zero instructions per batch.
  bool always_false = false;
  for (const PredicatePtr& c : conjuncts) {
    if (const auto* k = std::get_if<ConstPred>(&c->node)) {
      if (!k->value) { always_false = true; break; }
    }
  }
  if (always_false) {
    conjuncts.assign(1, MakeConst(false));
  } else {
    conjuncts.erase(
        std::remove_if(conjuncts.begin(), conjuncts.end(),
                       [](const PredicatePtr& c) {
                         const auto* k = std::get_if<ConstPred>(&c->node);
                         return k != nullptr && k->value;
                       }),
        conjuncts.end());
  }
  // An empty AND is the constant TRUE: zero conjuncts, nothing to refine.
  for (const PredicatePtr& c : conjuncts) {
    const auto begin = static_cast<uint32_t>(prog.code_.size());
    RQP_RETURN_IF_ERROR(EmitNode(c, slots, &prog));
    prog.conjuncts_.push_back(
        Conjunct{begin, static_cast<uint32_t>(prog.code_.size())});
  }
  for (const Instr& ins : prog.code_) {
    if (ins.op == Instr::Op::kCmp || ins.op == Instr::Op::kBetween ||
        ins.op == Instr::Op::kIn || ins.op == Instr::Op::kColCmp) {
      prog.num_slots_used_ = std::max(
          prog.num_slots_used_, static_cast<size_t>(ins.slot) + 1);
    }
    if (ins.op == Instr::Op::kColCmp) {
      prog.num_slots_used_ = std::max(
          prog.num_slots_used_, static_cast<size_t>(ins.slot2) + 1);
    }
  }
  return prog;
}

StatusOr<PredicateProgram> PredicateProgram::Compile(const PredicatePtr& p,
                                                     const Table& table) {
  std::vector<std::string> names;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    names.push_back(table.schema().column(c).name);
  }
  return Compile(p, names);
}

Status PredicateProgram::EmitNode(const PredicatePtr& p,
                                  const std::vector<std::string>& slots,
                                  PredicateProgram* prog) {
  Status error = Status::OK();
  std::visit(
      [&](const auto& n) {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Comparison>) {
          if (n.param_index >= 0) {
            error = Status::FailedPrecondition(
                "cannot compile predicate with unbound parameter");
            return;
          }
          const int s = FindSlot(slots, n.column);
          if (s < 0) {
            error = Status::NotFound("slot for column '" + n.column + "'");
            return;
          }
          Instr ins;
          ins.op = Instr::Op::kCmp;
          ins.cmp = n.op;
          ins.slot = static_cast<uint32_t>(s);
          ins.lo = n.value;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, Between>) {
          const int s = FindSlot(slots, n.column);
          if (s < 0) {
            error = Status::NotFound("slot for column '" + n.column + "'");
            return;
          }
          Instr ins;
          ins.op = Instr::Op::kBetween;
          ins.slot = static_cast<uint32_t>(s);
          ins.lo = n.lo;
          ins.hi = n.hi;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, InList>) {
          const int s = FindSlot(slots, n.column);
          if (s < 0) {
            error = Status::NotFound("slot for column '" + n.column + "'");
            return;
          }
          InSet set;
          set.sorted_values = n.values;
          std::sort(set.sorted_values.begin(), set.sorted_values.end());
          if (!set.sorted_values.empty()) {
            const int64_t lo = set.sorted_values.front();
            const int64_t hi = set.sorted_values.back();
            // Unsigned differences: the span of a list reaching both ends
            // of int64 does not fit a signed difference.
            const uint64_t span =
                static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
            if (span < static_cast<uint64_t>(kInDenseBitmapSpan)) {
              set.min = lo;
              set.bitmap.assign(static_cast<size_t>(span + 1), 0);
              for (const int64_t v : set.sorted_values) {
                set.bitmap[static_cast<uint64_t>(v) -
                           static_cast<uint64_t>(lo)] = 1;
              }
            }
          }
          Instr ins;
          ins.op = Instr::Op::kIn;
          ins.slot = static_cast<uint32_t>(s);
          ins.in_index = static_cast<int32_t>(prog->in_sets_.size());
          prog->in_sets_.push_back(std::move(set));
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          const int ls = FindSlot(slots, n.left_column);
          const int rs = FindSlot(slots, n.right_column);
          if (ls < 0 || rs < 0) {
            error = Status::NotFound(
                "slot for column '" +
                (ls < 0 ? n.left_column : n.right_column) + "'");
            return;
          }
          Instr ins;
          ins.op = Instr::Op::kColCmp;
          ins.cmp = n.op;
          ins.slot = static_cast<uint32_t>(ls);
          ins.slot2 = static_cast<uint32_t>(rs);
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, Conjunction>) {
          // Nested AND below an OR/NOT: postfix with binary folds.
          bool first = true;
          for (const auto& c : n.children) {
            error = EmitNode(c, slots, prog);
            if (!error.ok()) return;
            if (!first) {
              Instr ins;
              ins.op = Instr::Op::kAnd;
              prog->code_.push_back(ins);
            }
            first = false;
          }
          if (first) {  // empty AND == TRUE
            Instr ins;
            ins.op = Instr::Op::kConst;
            ins.lo = 1;
            prog->code_.push_back(ins);
          }
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          bool first = true;
          for (const auto& c : n.children) {
            error = EmitNode(c, slots, prog);
            if (!error.ok()) return;
            if (!first) {
              Instr ins;
              ins.op = Instr::Op::kOr;
              prog->code_.push_back(ins);
            }
            first = false;
          }
          if (first) {  // empty OR == FALSE
            Instr ins;
            ins.op = Instr::Op::kConst;
            ins.lo = 0;
            prog->code_.push_back(ins);
          }
        } else if constexpr (std::is_same_v<T, Negation>) {
          error = EmitNode(n.child, slots, prog);
          if (!error.ok()) return;
          Instr ins;
          ins.op = Instr::Op::kNot;
          prog->code_.push_back(ins);
        } else if constexpr (std::is_same_v<T, ConstPred>) {
          Instr ins;
          ins.op = Instr::Op::kConst;
          ins.lo = n.value ? 1 : 0;
          prog->code_.push_back(ins);
        }
      },
      p->node);
  return error;
}

void PredicateProgram::RefineLeaf(const Instr& ins, const int64_t* const* cols,
                                  size_t stride, SelectionVector* sel) const {
  switch (ins.op) {
    case Instr::Op::kCmp: {
      const int64_t* col = cols[ins.slot];
      WithCmp(ins.cmp, ins.lo, [&](auto pred) {
        RefineIf(col, stride, sel, pred);
      });
      return;
    }
    case Instr::Op::kBetween: {
      const int64_t* col = cols[ins.slot];
      const int64_t lo = ins.lo, hi = ins.hi;
      RefineIf(col, stride, sel,
               [lo, hi](int64_t v) { return v >= lo && v <= hi; });
      return;
    }
    case Instr::Op::kIn: {
      const int64_t* col = cols[ins.slot];
      const InSet& set = in_sets_[static_cast<size_t>(ins.in_index)];
      if (!set.bitmap.empty()) {
        const auto min = static_cast<uint64_t>(set.min);
        const uint64_t span = set.bitmap.size();
        const uint8_t* bits = set.bitmap.data();
        RefineIf(col, stride, sel, [min, span, bits](int64_t v) {
          const uint64_t off = static_cast<uint64_t>(v) - min;
          return off < span && bits[off] != 0;
        });
      } else {
        RefineIf(col, stride, sel,
                 [&set](int64_t v) { return set.Contains(v); });
      }
      return;
    }
    case Instr::Op::kColCmp: {
      const int64_t* lcol = cols[ins.slot];
      const int64_t* rcol = cols[ins.slot2];
      SelectionVector& s = *sel;
      size_t out = 0;
      for (size_t k = 0; k < s.size(); ++k) {
        const uint32_t r = s[k];
        if (EvalCmp(lcol[r * stride], ins.cmp, rcol[r * stride])) {
          s[out++] = r;
        }
      }
      s.resize(out);
      return;
    }
    case Instr::Op::kConst:
      if (ins.lo == 0) sel->clear();
      return;
    default:
      return;  // unreachable: only leaves are dispatched here
  }
}

void PredicateProgram::DenseLeaf(const Instr& ins, const int64_t* const* cols,
                                 size_t stride, size_t n,
                                 SelectionVector* sel, SimdLevel simd) const {
  switch (ins.op) {
    case Instr::Op::kCmp: {
      const int64_t* col = cols[ins.slot];
      // Stride 1 (zero-copy columnar storage) is the only layout the
      // intrinsic compare+compact handles; its output matches DenseIf's
      // unconditional-store compact index for index.
      if (stride == 1 && simd != SimdLevel::kScalar) {
        sel->resize(n);
        sel->resize(SimdDenseCmp(col, n, ins.cmp, ins.lo, sel->data(), simd));
        return;
      }
      WithCmp(ins.cmp, ins.lo, [&](auto pred) {
        DenseIf(col, stride, n, sel, pred);
      });
      return;
    }
    case Instr::Op::kBetween: {
      const int64_t* col = cols[ins.slot];
      const int64_t lo = ins.lo, hi = ins.hi;
      if (stride == 1 && simd != SimdLevel::kScalar) {
        sel->resize(n);
        sel->resize(SimdDenseBetween(col, n, lo, hi, sel->data(), simd));
        return;
      }
      DenseIf(col, stride, n, sel,
              [lo, hi](int64_t v) { return v >= lo && v <= hi; });
      return;
    }
    case Instr::Op::kIn: {
      const int64_t* col = cols[ins.slot];
      const InSet& set = in_sets_[static_cast<size_t>(ins.in_index)];
      if (!set.bitmap.empty()) {
        const auto min = static_cast<uint64_t>(set.min);
        const uint64_t span = set.bitmap.size();
        const uint8_t* bits = set.bitmap.data();
        DenseIf(col, stride, n, sel, [min, span, bits](int64_t v) {
          const uint64_t off = static_cast<uint64_t>(v) - min;
          return off < span && bits[off] != 0;
        });
      } else {
        DenseIf(col, stride, n, sel,
                [&set](int64_t v) { return set.Contains(v); });
      }
      return;
    }
    case Instr::Op::kColCmp: {
      const int64_t* lcol = cols[ins.slot];
      const int64_t* rcol = cols[ins.slot2];
      SelectionVector& s = *sel;
      s.resize(n);
      size_t out = 0;
      for (size_t i = 0; i < n; ++i) {
        s[out] = static_cast<uint32_t>(i);
        out += EvalCmp(lcol[i * stride], ins.cmp, rcol[i * stride]) ? 1 : 0;
      }
      s.resize(out);
      return;
    }
    case Instr::Op::kConst:
      if (ins.lo != 0) {
        sel->resize(n);
        std::iota(sel->begin(), sel->end(), 0u);
      } else {
        sel->clear();
      }
      return;
    default:
      return;  // unreachable: only leaves are dispatched here
  }
}

void PredicateProgram::EvalLeafMask(const Instr& ins,
                                    const int64_t* const* cols, size_t stride,
                                    const SelectionVector& sel,
                                    std::vector<uint8_t>* mask) const {
  switch (ins.op) {
    case Instr::Op::kCmp: {
      const int64_t* col = cols[ins.slot];
      WithCmp(ins.cmp, ins.lo, [&](auto pred) {
        MaskIf(col, stride, sel, mask, pred);
      });
      return;
    }
    case Instr::Op::kBetween: {
      const int64_t* col = cols[ins.slot];
      const int64_t lo = ins.lo, hi = ins.hi;
      MaskIf(col, stride, sel, mask,
             [lo, hi](int64_t v) { return v >= lo && v <= hi; });
      return;
    }
    case Instr::Op::kIn: {
      const int64_t* col = cols[ins.slot];
      const InSet& set = in_sets_[static_cast<size_t>(ins.in_index)];
      MaskIf(col, stride, sel, mask,
             [&set](int64_t v) { return set.Contains(v); });
      return;
    }
    case Instr::Op::kColCmp: {
      const int64_t* lcol = cols[ins.slot];
      const int64_t* rcol = cols[ins.slot2];
      std::vector<uint8_t>& m = *mask;
      m.resize(sel.size());
      for (size_t k = 0; k < sel.size(); ++k) {
        m[k] = EvalCmp(lcol[sel[k] * stride], ins.cmp,
                       rcol[sel[k] * stride])
                   ? 1
                   : 0;
      }
      return;
    }
    case Instr::Op::kConst:
      mask->assign(sel.size(), ins.lo != 0 ? 1 : 0);
      return;
    default:
      return;  // unreachable: only leaves are dispatched here
  }
}

void PredicateProgram::FilterSelection(const int64_t* const* cols,
                                       size_t stride,
                                       SelectionVector* sel) const {
  FilterFrom(0, cols, stride, sel);
}

void PredicateProgram::FilterFrom(size_t first, const int64_t* const* cols,
                                  size_t stride, SelectionVector* sel) const {
  // Mask stack for multi-instruction conjuncts, reused across conjuncts.
  std::vector<std::vector<uint8_t>> stack;
  size_t depth = 0;
  for (size_t ci = first; ci < conjuncts_.size(); ++ci) {
    const Conjunct& conj = conjuncts_[ci];
    if (sel->empty()) return;
    if (conj.end - conj.begin == 1) {
      RefineLeaf(code_[conj.begin], cols, stride, sel);
      continue;
    }
    // Postfix evaluation over byte masks aligned with the current selection:
    // leaves fill masks column-at-a-time, AND/OR merge bitwise, NOT flips.
    depth = 0;
    for (uint32_t pc = conj.begin; pc < conj.end; ++pc) {
      const Instr& ins = code_[pc];
      switch (ins.op) {
        case Instr::Op::kAnd: {
          std::vector<uint8_t>& a = stack[depth - 2];
          const std::vector<uint8_t>& b = stack[depth - 1];
          for (size_t k = 0; k < a.size(); ++k) a[k] &= b[k];
          --depth;
          break;
        }
        case Instr::Op::kOr: {
          std::vector<uint8_t>& a = stack[depth - 2];
          const std::vector<uint8_t>& b = stack[depth - 1];
          for (size_t k = 0; k < a.size(); ++k) a[k] |= b[k];
          --depth;
          break;
        }
        case Instr::Op::kNot: {
          std::vector<uint8_t>& a = stack[depth - 1];
          for (size_t k = 0; k < a.size(); ++k) a[k] ^= 1;
          break;
        }
        default: {
          if (stack.size() <= depth) stack.emplace_back();
          EvalLeafMask(ins, cols, stride, *sel, &stack[depth]);
          ++depth;
          break;
        }
      }
    }
    const std::vector<uint8_t>& m = stack[0];
    SelectionVector& s = *sel;
    size_t out = 0;
    for (size_t k = 0; k < s.size(); ++k) {
      if (m[k]) s[out++] = s[k];
    }
    s.resize(out);
  }
}

void PredicateProgram::BuildSelection(const int64_t* const* cols,
                                      size_t stride, size_t n,
                                      SelectionVector* sel,
                                      SimdLevel simd) const {
  // A single-leaf first conjunct evaluates densely over [0, n): the iota
  // initialization fuses with the first refinement so the selection is
  // written once, already compacted (the usual case — a pushed-down range
  // or IN filter leading the conjunction).
  if (!conjuncts_.empty() &&
      conjuncts_[0].end - conjuncts_[0].begin == 1) {
    DenseLeaf(code_[conjuncts_[0].begin], cols, stride, n, sel, simd);
    FilterFrom(1, cols, stride, sel);
    return;
  }
  sel->resize(n);
  std::iota(sel->begin(), sel->end(), 0u);
  FilterFrom(0, cols, stride, sel);
}

bool PredicateProgram::EvalLeafRow(const Instr& ins, const int64_t* row) const {
  switch (ins.op) {
    case Instr::Op::kCmp:
      return EvalCmp(row[ins.slot], ins.cmp, ins.lo);
    case Instr::Op::kBetween:
      return row[ins.slot] >= ins.lo && row[ins.slot] <= ins.hi;
    case Instr::Op::kIn:
      return in_sets_[static_cast<size_t>(ins.in_index)].Contains(
          row[ins.slot]);
    case Instr::Op::kColCmp:
      return EvalCmp(row[ins.slot], ins.cmp, row[ins.slot2]);
    case Instr::Op::kConst:
      return ins.lo != 0;
    default:
      return false;  // unreachable: only leaves are dispatched here
  }
}

bool PredicateProgram::EvalRow(const int64_t* row) const {
  // Postfix depth is bounded by a conjunct's instruction count: short
  // conjuncts use the local buffer, and only an unusually long OR/NOT tree
  // spills to the heap.
  char local[32];
  std::vector<char> heap;
  for (const Conjunct& conj : conjuncts_) {
    const size_t len = conj.end - conj.begin;
    if (len == 1) {
      if (!EvalLeafRow(code_[conj.begin], row)) return false;
      continue;
    }
    char* stack = local;
    if (len > sizeof(local)) {
      heap.resize(len);
      stack = heap.data();
    }
    size_t depth = 0;
    for (uint32_t pc = conj.begin; pc < conj.end; ++pc) {
      const Instr& ins = code_[pc];
      switch (ins.op) {
        case Instr::Op::kAnd:
          stack[depth - 2] = stack[depth - 2] && stack[depth - 1];
          --depth;
          break;
        case Instr::Op::kOr:
          stack[depth - 2] = stack[depth - 2] || stack[depth - 1];
          --depth;
          break;
        case Instr::Op::kNot:
          stack[depth - 1] = !stack[depth - 1];
          break;
        default:
          stack[depth++] = EvalLeafRow(ins, row);
          break;
      }
    }
    if (!stack[0]) return false;
  }
  return true;
}

}  // namespace rqp
