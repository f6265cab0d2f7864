#include "exec/filter_ops.h"

#include <algorithm>
#include <numeric>

#include "exec/scan_ops.h"
#include "expr/rewriter.h"

namespace rqp {

Status FilterOp::DoOpen(ExecContext* ctx) {
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  auto program = PredicateProgram::Compile(predicate_, child_->output_slots());
  if (!program.ok()) return program.status();
  program_ = std::move(program.value());
  return Status::OK();
}

Status FilterOp::DoNext(RowBatch* out) {
  out->Reset(output_slots().size());
  while (!out->full()) {
    RQP_RETURN_IF_ERROR(child_->Next(&in_));
    if (in_.empty()) break;
    ctx()->ChargePredicateEvals(static_cast<int64_t>(in_.num_rows()));
    const size_t ncols = in_.num_cols();
    col_ptrs_.resize(ncols);
    const int64_t* base = in_.data().data();
    for (size_t c = 0; c < ncols; ++c) col_ptrs_[c] = base + c;
    program_->BuildSelection(col_ptrs_.data(), /*stride=*/ncols,
                             in_.num_rows(), &sel_);
    for (const uint32_t r : sel_) out->AppendRow(in_.row(r));
  }
  return Status::OK();
}

MapOp::MapOp(OperatorPtr child, std::vector<DerivedColumn> derived)
    : child_(std::move(child)), derived_(std::move(derived)) {
  slots_ = child_->output_slots();
  for (const auto& d : derived_) slots_.push_back(d.name);
}

Status MapOp::DoOpen(ExecContext* ctx) {
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  slots_ = child_->output_slots();
  for (const auto& d : derived_) slots_.push_back(d.name);
  programs_.clear();
  const auto& in_slots = child_->output_slots();
  for (const auto& d : derived_) {
    auto p = ExprProgram::Compile(FoldExpr(d.expr), in_slots);
    if (!p.ok()) return p.status();
    programs_.push_back(std::move(p.value()));
  }
  scan_ = dynamic_cast<TableScanOp*>(child_.get());
  return Status::OK();
}

// Derived columns are evaluated column-at-a-time into derived_vals_: over a
// scan's views stride-free (EvalDense over a dense range, EvalSelection over
// the absolute row ids, which gathers each referenced slot once), or over
// input rows at stride = width. Each output row is then written once,
// straight into the batch. Charge order: whole-batch eval charge before
// evaluation, per-row CPU after.
Status MapOp::DoNext(RowBatch* out) {
  out->Reset(slots_.size());
  size_t n = 0;
  if (scan_ != nullptr) {
    RQP_RETURN_IF_ERROR(scan_->NextColumnar(&in_col_));
    n = in_col_.num_rows();
    ctx()->counters().transposes_elided += static_cast<int64_t>(n);
  } else {
    RQP_RETURN_IF_ERROR(child_->Next(&in_));
    n = in_.num_rows();
  }
  const size_t width = slots_.size() - derived_.size();
  // Whole-batch eval charge, flushed before any evaluation, so the clock at
  // every guardrail and fault point is the same whether an expression
  // errors mid-batch or not.
  if (n > 0 && !derived_.empty()) {
    ctx()->ChargePredicateEvals(static_cast<int64_t>(n * derived_.size()));
  }
  derived_vals_.resize(programs_.size());
  if (n > 0) {
    const bool selection = scan_ != nullptr && in_col_.has_selection();
    const size_t stride = scan_ != nullptr ? 1 : width;
    col_ptrs_.resize(width);
    for (size_t c = 0; c < width; ++c) {
      col_ptrs_[c] = scan_ == nullptr ? in_.data().data() + c
                     : selection      ? in_col_.base(c)
                                      : in_col_.DensePtr(c);
    }
    for (size_t d = 0; d < programs_.size(); ++d) {
      derived_vals_[d].resize(n);
      int64_t* vals = derived_vals_[d].data();
      RQP_RETURN_IF_ERROR(
          selection ? programs_[d].EvalSelection(col_ptrs_.data(), 1,
                                                 in_col_.sel(), vals, &scratch_)
                    : programs_[d].EvalDense(col_ptrs_.data(), stride, n,
                                             vals, &scratch_));
    }
  }
  const size_t out_width = slots_.size();
  std::vector<int64_t>& data = out->mutable_data();
  data.resize(n * out_width);
  int64_t* dst = data.data();
  if (scan_ != nullptr) {
    in_col_.WriteRows(dst, out_width);
    ctx()->counters().rows_materialized += static_cast<int64_t>(n);
  } else {
    for (size_t r = 0; r < n; ++r) {
      const int64_t* src = in_.row(r);
      std::copy(src, src + width, dst + r * out_width);
    }
  }
  for (size_t d = 0; d < derived_vals_.size(); ++d) {
    const int64_t* vals = derived_vals_[d].data();
    int64_t* col = dst + width + d;
    for (size_t r = 0; r < n; ++r) col[r * out_width] = vals[r];
  }
  ctx()->ChargeRowCpu(static_cast<int64_t>(n));
  return Status::OK();
}

Status AdaptiveFilterOp::DoOpen(ExecContext* ctx) {
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  programs_.clear();
  for (const auto& p : predicates_) {
    auto program = PredicateProgram::Compile(p, child_->output_slots());
    if (!program.ok()) return program.status();
    programs_.push_back(std::move(program.value()));
  }
  order_.resize(programs_.size());
  std::iota(order_.begin(), order_.end(), 0);
  evals_.assign(programs_.size(), 1.0);   // Laplace prior
  passes_.assign(programs_.size(), 0.5);
  rows_since_reorder_ = 0;
  return Status::OK();
}

void AdaptiveFilterOp::MaybeReorder() {
  if (!options_.adaptive) return;
  if (rows_since_reorder_ < options_.reorder_interval) return;
  rows_since_reorder_ = 0;
  // Rank by observed pass rate ascending: evaluate the most selective
  // predicate first (all predicates have unit cost here, so A-Greedy's
  // rank (1 - selectivity)/cost ordering reduces to pass-rate order).
  std::stable_sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
    return passes_[a] / evals_[a] < passes_[b] / evals_[b];
  });
  for (size_t i = 0; i < evals_.size(); ++i) {
    evals_[i] *= options_.decay;
    passes_[i] *= options_.decay;
  }
}

Status AdaptiveFilterOp::DoNext(RowBatch* out) {
  // Per-row by design: its whole point is adaptive predicate ordering with
  // per-predicate pass-rate statistics.
  out->Reset(output_slots().size());
  while (!out->full()) {
    RQP_RETURN_IF_ERROR(child_->Next(&in_));
    if (in_.empty()) break;
    for (size_t r = 0; r < in_.num_rows(); ++r) {
      bool pass = true;
      for (size_t k : order_) {
        ctx()->ChargePredicateEvals(1);
        evals_[k] += 1.0;
        const bool ok = programs_[k].EvalRow(in_.row(r));
        if (ok) passes_[k] += 1.0;
        if (!ok) { pass = false; break; }
      }
      if (pass) out->AppendRow(in_.row(r));
      ++rows_since_reorder_;
      MaybeReorder();
    }
  }
  return Status::OK();
}

}  // namespace rqp
