#ifndef RQP_EXEC_SCAN_OPS_H_
#define RQP_EXEC_SCAN_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operator.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace rqp {

/// Sequential scan with optional inline filter and column projection.
/// Charges one sequential page read per kRowsPerPage source rows.
class TableScanOp : public Operator {
 public:
  /// `projection` lists column names of `table` to emit (empty = all).
  /// `filter` (if set) references unqualified column names of `table`.
  TableScanOp(const Table* table, PredicatePtr filter = nullptr,
              std::vector<std::string> projection = {});

  void Close() override;
  /// The scan's rows as views over the table's column storage: the one
  /// ColumnBatch producer. Next and NextColumnar count, charge and batch
  /// identically; a consumer calls one of them for the whole scan.
  Status NextColumnar(ColumnBatch* out);
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "TableScan(" + table_->name() + ")"; }

  const Table* table() const { return table_; }
  /// The bound filter, over the whole table's unqualified column names.
  const PredicatePtr& filter() const { return filter_; }
  /// The projected source column of each output slot, in output order.
  const std::vector<size_t>& columns() const { return columns_; }
  /// True when the scan emits every row and column of its table in table
  /// order: no filter and the full projection.
  bool ScansWholeTable() const;

 private:
  Status DoOpen(ExecContext* ctx) override;
  /// The fetched views, transposed once with MaterializeInto.
  Status DoNext(RowBatch* out) override;
  /// The next view batch, charged but not counted: Next counts the rows it
  /// transposes, NextColumnar the views it hands out.
  Status FetchViews(ColumnBatch* out);

  const Table* table_;
  PredicatePtr filter_;
  std::vector<size_t> columns_;       // projected source column indices
  std::vector<std::string> slots_;    // qualified output names
  int64_t next_row_ = 0;
  bool projection_error_ = false;
  // The filter compiled to flat bytecode, evaluated column-at-a-time
  // straight over Table::column() storage — rejected rows are never touched
  // again. Batches are column views over the same storage.
  std::optional<PredicateProgram> program_;
  std::vector<const int64_t*> chunk_cols_;  ///< per-chunk column base ptrs
  SelectionVector sel_;    ///< surviving rows of the current chunk
  size_t sel_pos_ = 0;     ///< next unconsumed selection entry
  int64_t sel_base_ = 0;   ///< source row of selection index 0
  ColumnBatch col_scratch_;  ///< Next's view batch — no per-Next allocation
};

/// Index range scan: descends a sorted index, fetches qualifying rows by
/// row id (charged as random page reads — the unclustered worst case), and
/// applies an optional residual filter. The cost crossover against
/// TableScanOp is the plan-switch cliff studied in the smoothness experiment.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const Table* table, const SortedIndex* index, int64_t lo,
              int64_t hi, PredicatePtr residual_filter = nullptr,
              std::vector<std::string> projection = {});

  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override {
    return "IndexScan(" + index_->name() + ")";
  }

 private:
  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;

  const Table* table_;
  const SortedIndex* index_;
  int64_t lo_, hi_;
  PredicatePtr filter_;
  std::vector<size_t> columns_;
  std::vector<std::string> slots_;
  /// The residual as bytecode over Table::column() storage at stride 1.
  std::optional<PredicateProgram> program_;
  std::vector<const int64_t*> cols_;  ///< every column's base pointer
  SelectionVector sel_;  ///< fetched row ids of the current chunk
  std::vector<int64_t> row_ids_;
  size_t next_ = 0;
  bool projection_error_ = false;
};

/// Replays previously materialized batches (re-optimization restart source,
/// tests).
class VectorSourceOp : public Operator {
 public:
  VectorSourceOp(std::shared_ptr<std::vector<RowBatch>> batches,
                 std::vector<std::string> slots)
      : batches_(std::move(batches)), slots_(std::move(slots)) {}

  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "VectorSource"; }

 private:
  Status DoOpen(ExecContext*) override {
    next_ = 0;
    return Status::OK();
  }
  Status DoNext(RowBatch* out) override;

  std::shared_ptr<std::vector<RowBatch>> batches_;
  std::vector<std::string> slots_;
  size_t next_ = 0;
};

/// Shared plumbing: resolves a projection list to column indices and
/// qualified slot names. Empty projection selects all columns.
Status ResolveProjection(const Table& table,
                         const std::vector<std::string>& projection,
                         std::vector<size_t>* columns,
                         std::vector<std::string>* slots);

}  // namespace rqp

#endif  // RQP_EXEC_SCAN_OPS_H_
