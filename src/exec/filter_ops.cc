#include "exec/filter_ops.h"

#include <algorithm>
#include <numeric>

#include "expr/rewriter.h"

namespace rqp {

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ResetCount();
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  auto program = PredicateProgram::Compile(predicate_, child_->output_slots());
  if (!program.ok()) return program.status();
  program_ = std::move(program.value());
  // Columnar pass-through needs a child whose view bases are table storage
  // (stable across fetches): the filter packs survivors from several child
  // batches into one output batch over a single set of bases.
  columnar_ = child_->supports_columnar() && child_->stable_columnar_views();
  return Status::OK();
}

// Columnar filter: the child's column views pass through untouched and only
// the selection is refined — dense input runs the fused iota+compact
// (BuildSelection, the SIMD compare+compact entry point) and selective input
// is refined in place over the absolute row ids. No row is ever copied, and
// the charge sequence (one whole-batch eval charge between child fetches)
// matches the row-major path below.
Status FilterOp::NextColumnar(ColumnBatch* out) {
  const size_t ncols = output_slots().size();
  out->Reset(ncols);
  out->set_stable_views(true);
  out->UseSelection();
  std::vector<uint32_t>& osel = out->mutable_sel();
  bool bases_set = false;
  while (out->num_rows() < kBatchRows) {
    RQP_RETURN_IF_ERROR(child_->NextColumnar(&in_col_));
    if (in_col_.empty()) break;
    ctx_->counters().transposes_elided +=
        static_cast<int64_t>(in_col_.num_rows());
    ctx_->ChargePredicateEvals(static_cast<int64_t>(in_col_.num_rows()));
    if (!bases_set) {
      for (size_t c = 0; c < ncols; ++c) out->SetView(c, in_col_.col(c).base);
      bases_set = true;
    }
    col_ptrs_.resize(ncols);
    if (!in_col_.has_selection()) {
      for (size_t c = 0; c < ncols; ++c) col_ptrs_[c] = in_col_.DensePtr(c);
      program_->BuildSelection(col_ptrs_.data(), /*stride=*/1,
                               in_col_.num_rows(), &sel_, ctx_->simd());
      const uint32_t base = static_cast<uint32_t>(in_col_.phys_begin());
      for (const uint32_t r : sel_) osel.push_back(base + r);
      out->set_num_rows(out->num_rows() + sel_.size());
    } else {
      // Selective input: bases are absolute, so the child's row ids feed
      // straight into FilterSelection at stride 1.
      for (size_t c = 0; c < ncols; ++c) col_ptrs_[c] = in_col_.col(c).base;
      sel_ = in_col_.sel();
      program_->FilterSelection(col_ptrs_.data(), /*stride=*/1, &sel_);
      osel.insert(osel.end(), sel_.begin(), sel_.end());
      out->set_num_rows(out->num_rows() + sel_.size());
    }
  }
  CountProducedRows(ctx_, static_cast<int64_t>(out->num_rows()),
                    /*eof=*/out->empty());
  return Status::OK();
}

Status FilterOp::Next(RowBatch* out) {
  if (columnar_) {
    RQP_RETURN_IF_ERROR(NextColumnar(&col_scratch_));
    out->Reset(output_slots().size());
    col_scratch_.MaterializeInto(out, ctx_);
    return Status::OK();
  }
  // Row-major input (a non-columnar child): the same bytecode runs over the
  // batch viewed column-wise at stride = num_cols, with one eval charge per
  // input batch.
  out->Reset(output_slots().size());
  while (!out->full()) {
    RQP_RETURN_IF_ERROR(child_->Next(&in_));
    if (in_.empty()) break;
    ctx_->ChargePredicateEvals(static_cast<int64_t>(in_.num_rows()));
    const size_t ncols = in_.num_cols();
    col_ptrs_.resize(ncols);
    const int64_t* base = in_.data().data();
    for (size_t c = 0; c < ncols; ++c) col_ptrs_[c] = base + c;
    program_->BuildSelection(col_ptrs_.data(), /*stride=*/ncols,
                             in_.num_rows(), &sel_);
    for (const uint32_t r : sel_) out->AppendRow(in_.row(r));
  }
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

MapOp::MapOp(OperatorPtr child, std::vector<DerivedColumn> derived)
    : child_(std::move(child)), derived_(std::move(derived)) {
  slots_ = child_->output_slots();
  for (const auto& d : derived_) slots_.push_back(d.name);
}

Status MapOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ResetCount();
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
  columnar_ = child_->supports_columnar() && child_->stable_columnar_views();
  return Status::OK();
}

// Columnar map: input views pass through and each derived column is computed
// stride-free straight off the child's column storage — dense input runs
// EvalDense at stride 1 over the view range, selective input runs
// EvalSelection over the absolute row ids (which gathers each referenced
// slot once, then evaluates stride-1). The input rows themselves are never
// copied. Charge order matches the row-major path: whole-batch eval charge
// before evaluation, per-row CPU after.
Status MapOp::NextColumnar(ColumnBatch* out) {
  RQP_RETURN_IF_ERROR(child_->NextColumnar(&in_col_));
  const size_t n = in_col_.num_rows();
  const size_t width = in_col_.num_cols();
  ctx_->counters().transposes_elided += static_cast<int64_t>(n);
  if (n > 0 && !derived_.empty()) {
    ctx_->ChargePredicateEvals(static_cast<int64_t>(n * derived_.size()));
  }
  out->Reset(slots_.size());
  for (size_t c = 0; c < width; ++c) out->SetView(c, in_col_.col(c).base);
  if (in_col_.has_selection()) {
    out->UseSelection();
    out->mutable_sel() = in_col_.sel();
    out->set_num_rows(n);
  } else {
    out->SetDense(in_col_.phys_begin(), n);
  }
  if (n > 0) {
    col_ptrs_.resize(width);
    if (in_col_.has_selection()) {
      for (size_t c = 0; c < width; ++c) col_ptrs_[c] = in_col_.col(c).base;
      for (size_t d = 0; d < programs_.size(); ++d) {
        std::vector<int64_t>& flat = out->col(width + d).flat;
        flat.resize(n);
        RQP_RETURN_IF_ERROR(programs_[d].EvalSelection(
            col_ptrs_.data(), /*stride=*/1, in_col_.sel(), flat.data(),
            &scratch_));
      }
    } else {
      for (size_t c = 0; c < width; ++c) col_ptrs_[c] = in_col_.DensePtr(c);
      for (size_t d = 0; d < programs_.size(); ++d) {
        std::vector<int64_t>& flat = out->col(width + d).flat;
        flat.resize(n);
        RQP_RETURN_IF_ERROR(programs_[d].EvalDense(col_ptrs_.data(),
                                                   /*stride=*/1, n,
                                                   flat.data(), &scratch_));
      }
    }
  }
  ctx_->ChargeRowCpu(static_cast<int64_t>(n));
  CountProducedRows(ctx_, static_cast<int64_t>(n), /*eof=*/out->empty());
  return Status::OK();
}

Status MapOp::Next(RowBatch* out) {
  if (columnar_) {
    RQP_RETURN_IF_ERROR(NextColumnar(&col_scratch_));
    out->Reset(slots_.size());
    col_scratch_.MaterializeInto(out, ctx_);
    return Status::OK();
  }
  out->Reset(slots_.size());
  RQP_RETURN_IF_ERROR(child_->Next(&in_));
  const size_t n = in_.num_rows();
  const size_t width = in_.num_cols();
  // Whole-batch eval charge, flushed before any evaluation, so the clock at
  // every guardrail and fault point is the same whether an expression
  // errors mid-batch or not.
  if (n > 0 && !derived_.empty()) {
    ctx_->ChargePredicateEvals(static_cast<int64_t>(n * derived_.size()));
  }
  if (n > 0) {
    col_ptrs_.resize(width);
    const int64_t* base = in_.data().data();
    for (size_t c = 0; c < width; ++c) col_ptrs_[c] = base + c;
    derived_vals_.resize(programs_.size());
    for (size_t d = 0; d < programs_.size(); ++d) {
      derived_vals_[d].resize(n);
      RQP_RETURN_IF_ERROR(programs_[d].EvalDense(col_ptrs_.data(), width, n,
                                                 derived_vals_[d].data(),
                                                 &scratch_));
    }
  }
  std::vector<int64_t> row(slots_.size());
  for (size_t r = 0; r < n; ++r) {
    const int64_t* src = in_.row(r);
    std::copy(src, src + width, row.begin());
    for (size_t d = 0; d < derived_.size(); ++d) {
      row[width + d] = derived_vals_[d][r];
    }
    out->AppendRow(row);
  }
  ctx_->ChargeRowCpu(static_cast<int64_t>(n));
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

Status AdaptiveFilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ResetCount();
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

Status AdaptiveFilterOp::Next(RowBatch* out) {
  // Per-row by design: its whole point is adaptive predicate ordering with
  // per-predicate pass-rate statistics.
  out->Reset(output_slots().size());
  while (!out->full()) {
    RQP_RETURN_IF_ERROR(child_->Next(&in_));
    if (in_.empty()) break;
    for (size_t r = 0; r < in_.num_rows(); ++r) {
      bool pass = true;
      for (size_t k : order_) {
        ctx_->ChargePredicateEvals(1);
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
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

}  // namespace rqp
