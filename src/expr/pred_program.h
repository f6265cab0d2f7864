#ifndef RQP_EXPR_PRED_PROGRAM_H_
#define RQP_EXPR_PRED_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "expr/simd.h"
#include "storage/table.h"
#include "util/status.h"

namespace rqp {

/// A selection vector: indices of the rows (into whatever column view the
/// caller evaluates against) that survive a predicate. The vectorized
/// executor threads one of these through the scan→filter pipeline instead
/// of materializing rejected rows.
using SelectionVector = std::vector<uint32_t>;

/// IN-list membership crossover: lists whose value range spans fewer than
/// this many integers use a dense membership bitmap (bounds check + one
/// load) instead of a binary search over the sorted values. Both structures
/// give the same answer; the constant only picks the instructions.
inline constexpr int64_t kInDenseBitmapSpan = 4096;

/// A predicate compiled to a flattened postfix bytecode program — the one
/// predicate evaluator every execution path runs. Batch callers evaluate it
/// column-at-a-time over a selection vector; per-row callers (adaptive
/// conjunct ordering, nested-loops pairs) call EvalRow on a row they
/// already hold.
///
/// Layout: the top-level conjunction is split into conjuncts, each a postfix
/// instruction span over the flat `code_` array (minmath-style: one
/// contiguous op vector, no pointers, no recursion). Evaluation refines the
/// selection conjunct by conjunct, so each conjunct only touches rows that
/// survived the previous ones:
///   - a single-leaf conjunct (comparison, BETWEEN, IN, column-column,
///     const) runs as one tight loop that compacts the selection in place;
///   - a multi-instruction conjunct (OR / NOT / nested structure) evaluates
///     postfix with a small stack of byte masks — leaves fill masks with
///     tight column loops, AND/OR merge masks bitwise, NOT flips — and the
///     final mask compacts the selection.
///
/// Columns are addressed as `cols[slot][row * stride]`: table columns pass
/// their raw data() pointers with stride 1 (zero-copy over columnar
/// storage); row-major RowBatches pass `data() + slot` for every slot with
/// stride = num_cols.
///
/// Every entry point returns the same boolean per row as the reference
/// evaluator EvalOnTable: leaves have no side effects, so short-circuit and
/// mask-at-a-time evaluation collapse to the same boolean algebra.
/// Constant conjuncts are pruned at Compile, so `AND(FALSE, x)` compiles
/// to FALSE without resolving `x`.
class PredicateProgram {
 public:
  /// Compiles `p` against a slot layout (`slots[i]` = name of column i).
  static StatusOr<PredicateProgram> Compile(
      const PredicatePtr& p, const std::vector<std::string>& slots);

  /// Compiles `p` against `table`'s unqualified column names, so slot i is
  /// `table.column(i)` — every caller that evaluates straight over table
  /// storage (at stride 1) compiles through here.
  static StatusOr<PredicateProgram> Compile(const PredicatePtr& p,
                                            const Table& table);

  /// Refines `sel` in place to the rows satisfying the predicate.
  void FilterSelection(const int64_t* const* cols, size_t stride,
                       SelectionVector* sel) const;

  /// Initializes `sel` to [0, n) and refines it. `simd` selects explicit
  /// intrinsic kernels for the dense compare/BETWEEN compact at stride 1;
  /// every level produces byte-identical selections (the kernels are
  /// integer-exact), so it is purely an instruction-selection knob.
  void BuildSelection(const int64_t* const* cols, size_t stride, size_t n,
                      SelectionVector* sel,
                      SimdLevel simd = SimdLevel::kScalar) const;

  /// Evaluates one row (`row[slot]`), conjunct by conjunct with early exit
  /// — the per-row callers' entry point. Single-leaf conjuncts never touch
  /// the postfix stack.
  bool EvalRow(const int64_t* row) const;

  /// Highest slot index referenced plus one (how many column pointers
  /// FilterSelection needs).
  size_t num_slots_used() const { return num_slots_used_; }
  size_t num_instructions() const { return code_.size(); }
  size_t num_conjuncts() const { return conjuncts_.size(); }

 private:
  struct Instr {
    enum class Op : uint8_t {
      kCmp,      ///< cols[slot] <op> lo
      kColCmp,   ///< cols[slot] <op> cols[slot2]
      kBetween,  ///< lo <= cols[slot] <= hi
      kIn,       ///< cols[slot] ∈ in_sets_[in_index]
      kConst,    ///< lo != 0
      kAnd,      ///< pop b, a; push a && b
      kOr,       ///< pop b, a; push a || b
      kNot,      ///< flip top of stack
    };
    Op op = Op::kConst;
    CmpOp cmp = CmpOp::kEq;
    uint32_t slot = 0;
    uint32_t slot2 = 0;
    int32_t in_index = -1;
    int64_t lo = 0;
    int64_t hi = 0;
  };

  /// IN-list membership structure: sorted values for binary search, with a
  /// dense bitmap fallback when the value range is narrow (below
  /// kInDenseBitmapSpan) — one load + compare instead of a log₂(n) probe
  /// chain.
  struct InSet {
    std::vector<int64_t> sorted_values;
    std::vector<uint8_t> bitmap;  ///< non-empty: use bitmap membership
    int64_t min = 0;

    bool Contains(int64_t v) const;
  };

  /// Instruction span [begin, end) of one top-level conjunct.
  struct Conjunct {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  static Status EmitNode(const PredicatePtr& p,
                         const std::vector<std::string>& slots,
                         PredicateProgram* prog);
  /// FilterSelection starting at conjunct `first` (BuildSelection runs
  /// conjunct 0 densely over [0, n) and resumes here at 1).
  void FilterFrom(size_t first, const int64_t* const* cols, size_t stride,
                  SelectionVector* sel) const;
  void RefineLeaf(const Instr& ins, const int64_t* const* cols, size_t stride,
                  SelectionVector* sel) const;
  /// Evaluates a leaf over the dense range [0, n), writing survivors to
  /// `sel` — the fused iota+refine fast path for the first conjunct.
  void DenseLeaf(const Instr& ins, const int64_t* const* cols, size_t stride,
                 size_t n, SelectionVector* sel, SimdLevel simd) const;
  void EvalLeafMask(const Instr& ins, const int64_t* const* cols,
                    size_t stride, const SelectionVector& sel,
                    std::vector<uint8_t>* mask) const;
  bool EvalLeafRow(const Instr& ins, const int64_t* row) const;

  std::vector<Instr> code_;
  std::vector<InSet> in_sets_;
  std::vector<Conjunct> conjuncts_;
  size_t num_slots_used_ = 0;
};

}  // namespace rqp

#endif  // RQP_EXPR_PRED_PROGRAM_H_
