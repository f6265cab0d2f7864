#include "exec/scan_ops.h"

#include <algorithm>

namespace rqp {

Status ResolveProjection(const Table& table,
                         const std::vector<std::string>& projection,
                         std::vector<size_t>* columns,
                         std::vector<std::string>* slots) {
  columns->clear();
  slots->clear();
  if (projection.empty()) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      columns->push_back(c);
      slots->push_back(table.name() + "." + table.schema().column(c).name);
    }
    return Status::OK();
  }
  for (const auto& name : projection) {
    auto idx = table.ColumnIndex(name);
    if (!idx.ok()) return idx.status();
    columns->push_back(idx.value());
    slots->push_back(table.name() + "." + name);
  }
  return Status::OK();
}

TableScanOp::TableScanOp(const Table* table, PredicatePtr filter,
                         std::vector<std::string> projection)
    : table_(table), filter_(std::move(filter)) {
  Status s = ResolveProjection(*table_, projection, &columns_, &slots_);
  (void)s;  // projection errors surface in Open
  projection_error_ = !s.ok();
}

Status TableScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_row_ = 0;
  sel_.clear();
  sel_pos_ = 0;
  sel_base_ = 0;
  program_.reset();
  ResetCount();
  if (projection_error_) {
    return Status::InvalidArgument("bad projection for table " +
                                   table_->name());
  }
  if (filter_ != nullptr) {
    // The filter references unqualified column names; compile it against
    // the *full* table layout so residual columns outside the projection
    // still resolve.
    auto program = PredicateProgram::Compile(filter_, *table_);
    if (!program.ok()) return program.status();
    program_ = std::move(program.value());
    chunk_cols_.resize(table_->schema().num_columns());
  }
  return Status::OK();
}

Status TableScanOp::Next(RowBatch* out) {
  // Row consumers get the view batch transposed once, here.
  RQP_RETURN_IF_ERROR(NextColumnar(&col_scratch_));
  out->Reset(slots_.size());
  col_scratch_.MaterializeInto(out, ctx_);
  return Status::OK();
}

// Columnar scan: per source chunk of kBatchRows rows the charge block is a
// guardrail check, a fault draw, sequential pages, per-row CPU, then the
// chunk's predicate evals in one flush. The filter bytecode builds a
// selection vector straight over Table::column() storage (stride 1, zero
// copy), and survivors are *described*, not copied: the dense path emits
// one chunk as a view range and the filtered path packs absolute surviving
// row ids into the batch's selection vector (DESIGN.md §15).
Status TableScanOp::NextColumnar(ColumnBatch* out) {
  out->Reset(slots_.size());
  const int64_t n = table_->num_rows();
  const size_t ncols = columns_.size();
  for (size_t c = 0; c < ncols; ++c) {
    out->SetView(c, table_->column(columns_[c]).data());
  }
  if (!program_.has_value()) {
    // Dense path (no filter): one chunk per batch, zero copies.
    if (next_row_ < n) {
      RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
      const int64_t chunk_end =
          std::min(n, next_row_ + static_cast<int64_t>(kBatchRows));
      const int64_t chunk = chunk_end - next_row_;
      RQP_RETURN_IF_ERROR(ctx_->MaybeInjectReadFault(table_->name()));
      ctx_->ChargeSeqPages((chunk + kRowsPerPage - 1) / kRowsPerPage,
                           table_->name());
      ctx_->ChargeRowCpu(chunk);
      out->SetDense(next_row_, static_cast<size_t>(chunk));
      next_row_ = chunk_end;
    }
    CountProducedRows(ctx_, static_cast<int64_t>(out->num_rows()),
                      /*eof=*/out->empty());
    return Status::OK();
  }
  out->UseSelection();
  std::vector<uint32_t>& osel = out->mutable_sel();
  while (out->num_rows() < kBatchRows) {
    if (sel_pos_ >= sel_.size()) {
      if (next_row_ >= n) break;
      RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
      const int64_t chunk_end =
          std::min(n, next_row_ + static_cast<int64_t>(kBatchRows));
      const int64_t chunk = chunk_end - next_row_;
      RQP_RETURN_IF_ERROR(ctx_->MaybeInjectReadFault(table_->name()));
      ctx_->ChargeSeqPages((chunk + kRowsPerPage - 1) / kRowsPerPage,
                           table_->name());
      ctx_->ChargeRowCpu(chunk);
      ctx_->ChargePredicateEvals(chunk);
      for (size_t c = 0; c < chunk_cols_.size(); ++c) {
        chunk_cols_[c] = table_->column(c).data() + next_row_;
      }
      program_->BuildSelection(chunk_cols_.data(), /*stride=*/1,
                               static_cast<size_t>(chunk), &sel_,
                               ctx_->simd());
      sel_base_ = next_row_;
      sel_pos_ = 0;
      next_row_ = chunk_end;
    }
    const size_t take =
        std::min(sel_.size() - sel_pos_, kBatchRows - out->num_rows());
    // Survivors are appended as absolute row ids — no gather, no transpose.
    const uint32_t* sel = sel_.data() + sel_pos_;
    const uint32_t base = static_cast<uint32_t>(sel_base_);
    for (size_t i = 0; i < take; ++i) osel.push_back(base + sel[i]);
    out->set_num_rows(out->num_rows() + take);
    sel_pos_ += take;
  }
  CountProducedRows(ctx_, static_cast<int64_t>(out->num_rows()),
                    /*eof=*/out->empty());
  return Status::OK();
}

void TableScanOp::Close() {}

bool TableScanOp::ScansWholeTable() const {
  if (filter_ != nullptr || projection_error_ ||
      columns_.size() != table_->schema().num_columns()) {
    return false;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] != c) return false;
  }
  return true;
}

IndexScanOp::IndexScanOp(const Table* table, const SortedIndex* index,
                         int64_t lo, int64_t hi, PredicatePtr residual_filter,
                         std::vector<std::string> projection)
    : table_(table), index_(index), lo_(lo), hi_(hi),
      filter_(std::move(residual_filter)) {
  Status s = ResolveProjection(*table_, projection, &columns_, &slots_);
  projection_error_ = !s.ok();
}

Status IndexScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_ = 0;
  row_ids_.clear();
  program_.reset();
  ResetCount();
  if (projection_error_) {
    return Status::InvalidArgument("bad projection for table " +
                                   table_->name());
  }
  if (filter_ != nullptr) {
    auto program = PredicateProgram::Compile(filter_, *table_);
    if (!program.ok()) return program.status();
    program_ = std::move(program.value());
    cols_.resize(table_->schema().num_columns());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c] = table_->column(c).data();
    }
  }
  ctx_->ChargeIndexDescend();
  RQP_RETURN_IF_ERROR(ctx_->MaybeInjectReadFault(table_->name()));
  const int64_t matches = index_->LookupRange(lo_, hi_, &row_ids_);
  // Index leaf pages are read sequentially.
  ctx_->ChargeSeqPages((matches + kRowsPerPage - 1) / kRowsPerPage,
                       table_->name());
  return Status::OK();
}

// Fetched rows are filtered in chunks no larger than the batch's remaining
// capacity: the residual runs over the table's columns with the fetched row
// ids as the selection, so at most a chunk's worth of survivors lands in
// the batch and every batch ends on the same fetched row as a
// row-at-a-time loop would. Each fetched row is charged before its chunk
// is evaluated.
Status IndexScanOp::Next(RowBatch* out) {
  out->Reset(slots_.size());
  std::vector<int64_t> proj_row(columns_.size());
  RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
  while (next_ < row_ids_.size() && !out->full()) {
    const size_t take =
        std::min(row_ids_.size() - next_, out->capacity_remaining());
    sel_.clear();
    for (size_t i = next_; i < next_ + take; ++i) {
      // Each qualifying row costs one random page fetch (unclustered index).
      ctx_->ChargeRandomReads(1, table_->name());
      ctx_->ChargeRowCpu(1);
      if (program_) ctx_->ChargePredicateEvals(1);
      sel_.push_back(static_cast<uint32_t>(row_ids_[i]));
    }
    next_ += take;
    if (program_) program_->FilterSelection(cols_.data(), /*stride=*/1, &sel_);
    for (const uint32_t r : sel_) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        proj_row[c] = table_->Value(columns_[c], r);
      }
      out->AppendRow(proj_row);
    }
  }
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

void IndexScanOp::Close() {}

Status VectorSourceOp::Next(RowBatch* out) {
  if (next_ < batches_->size()) {
    *out = (*batches_)[next_++];
    ctx_->ChargeRowCpu(static_cast<int64_t>(out->num_rows()));
  } else {
    out->Reset(slots_.size());
  }
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

StatusOr<int64_t> DrainOperator(Operator* op, ExecContext* ctx,
                                std::vector<RowBatch>* out) {
  RQP_RETURN_IF_ERROR(op->Open(ctx));
  int64_t total = 0;
  auto* scan = dynamic_cast<TableScanOp*>(op);
  if (out == nullptr && scan != nullptr) {
    // Count-only drain of a scan root: count the views the scan already
    // produces and never transpose them. Charge points (inside
    // NextColumnar) and the guardrail cadence match the row path exactly.
    ColumnBatch batch;
    while (true) {
      RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
      RQP_RETURN_IF_ERROR(scan->NextColumnar(&batch));
      if (batch.empty()) break;
      total += static_cast<int64_t>(batch.num_rows());
      ctx->counters().transposes_elided += static_cast<int64_t>(batch.num_rows());
    }
    op->Close();
    return total;
  }
  while (true) {
    RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
    RowBatch batch;
    RQP_RETURN_IF_ERROR(op->Next(&batch));
    if (batch.empty()) break;
    total += static_cast<int64_t>(batch.num_rows());
    if (out != nullptr) out->push_back(std::move(batch));
  }
  op->Close();
  return total;
}

}  // namespace rqp
