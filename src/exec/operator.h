#ifndef RQP_EXEC_OPERATOR_H_
#define RQP_EXEC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/context.h"
#include "util/status.h"

namespace rqp {

/// Volcano-style physical operator producing row batches.
///
/// Every operator hands its parent a RowBatch. TableScanOp alone can also
/// emit its rows as ColumnBatch views (TableScanOp::NextColumnar); the
/// consumers that read them find a scan child at Open (DESIGN.md §15).
///
/// Protocol: Open() once, then Next() until it returns an empty batch (EOF),
/// then Close(). Every operator counts the rows it produces; the engine
/// harvests these actual cardinalities (keyed by plan-node id) for the
/// paper's Metric1/Metric2 error metrics and for LEO feedback.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual Status Open(ExecContext* ctx) = 0;
  /// Fills `out` with up to kBatchRows rows; empty batch signals EOF.
  virtual Status Next(RowBatch* out) = 0;
  virtual void Close() {}

  /// Names of the output tuple slots (qualified "table.column").
  virtual const std::vector<std::string>& output_slots() const = 0;

  /// Rows produced so far (actual cardinality once EOF is reached).
  int64_t rows_produced() const { return rows_produced_; }

  /// Plan-node id this operator implements (-1 when standalone).
  int plan_node_id() const { return plan_node_id_; }
  void set_plan_node_id(int id) { plan_node_id_ = id; }

  /// Human-readable operator name for EXPLAIN output.
  virtual std::string name() const = 0;

 protected:
  /// Called by subclasses for every produced batch; updates the counter,
  /// feeds the node's cardinality fuse (if armed), and publishes the actual
  /// cardinality at EOF.
  void CountProduced(ExecContext* ctx, const RowBatch& batch, bool eof) {
    rows_produced_ += static_cast<int64_t>(batch.num_rows());
    if (ctx != nullptr && plan_node_id_ >= 0) {
      ctx->ObserveProduced(plan_node_id_, rows_produced_);
      if (eof) ctx->actual_cardinalities()[plan_node_id_] = rows_produced_;
    }
  }
  /// Row-count variant of CountProduced for TableScanOp's view batches (its
  /// Next transposes them and must not count the copy again).
  void CountProducedRows(ExecContext* ctx, int64_t rows, bool eof) {
    rows_produced_ += rows;
    if (ctx != nullptr && plan_node_id_ >= 0) {
      ctx->ObserveProduced(plan_node_id_, rows_produced_);
      if (eof) ctx->actual_cardinalities()[plan_node_id_] = rows_produced_;
    }
  }
  void ResetCount() { rows_produced_ = 0; }

 private:
  int64_t rows_produced_ = 0;
  int plan_node_id_ = -1;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` (Open/Next*/Close), appending all batches to `out` (which
/// may be nullptr to just count). Returns total rows. A count-only drain of
/// a TableScanOp root counts the scan's views and never transposes them.
StatusOr<int64_t> DrainOperator(Operator* op, ExecContext* ctx,
                                std::vector<RowBatch>* out);

}  // namespace rqp

#endif  // RQP_EXEC_OPERATOR_H_
