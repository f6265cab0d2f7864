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
/// then Close(); an operator may be opened again after Close. Open and Next
/// are the non-virtual half of the protocol and hold everything operators
/// share (DESIGN.md §16): Open binds the context and zeroes rows_produced()
/// before the subclass's DoOpen runs, and Next counts each batch DoNext
/// produced, which feeds the node's cardinality fuse and, at EOF, publishes
/// the node's actual cardinality. The engine harvests these actuals (keyed by
/// plan-node id) for the paper's Metric1/Metric2 error metrics, POP and LEO
/// feedback. Subclasses implement DoOpen and DoNext and reach the context
/// through ctx().
class Operator {
 public:
  virtual ~Operator() = default;

  Status Open(ExecContext* ctx) {
    Bind(ctx);
    return DoOpen(ctx);
  }
  /// Fills `out` with up to kBatchRows rows; empty batch signals EOF.
  Status Next(RowBatch* out) {
    RQP_RETURN_IF_ERROR(DoNext(out));
    Count(static_cast<int64_t>(out->num_rows()), /*eof=*/out->empty());
    return Status::OK();
  }
  virtual void Close() {}

  /// Names of the output tuple slots (qualified "table.column").
  virtual const std::vector<std::string>& output_slots() const = 0;

  /// Rows produced since the last Open (actual cardinality once EOF is
  /// reached).
  int64_t rows_produced() const { return rows_produced_; }

  /// Plan-node id this operator implements (-1 when standalone).
  int plan_node_id() const { return plan_node_id_; }
  void set_plan_node_id(int id) { plan_node_id_ = id; }

  /// Human-readable operator name for EXPLAIN output.
  virtual std::string name() const = 0;

 protected:
  /// The context of the current Open (null before the first).
  ExecContext* ctx() const { return ctx_; }
  /// Binds `ctx` and zeroes the row count: Open's first step, and
  /// HashJoinOp::OpenBuild's, which GatherOp runs before Open.
  void Bind(ExecContext* ctx) {
    ctx_ = ctx;
    rows_produced_ = 0;
  }
  /// Counts `rows` produced rows, feeds the node's cardinality fuse (if
  /// armed) and publishes the actual cardinality at EOF. Next calls it for
  /// every batch; TableScanOp::NextColumnar, the one producer outside Next,
  /// calls it for its view batches.
  void Count(int64_t rows, bool eof) {
    rows_produced_ += rows;
    if (ctx_ != nullptr && plan_node_id_ >= 0) {
      ctx_->ObserveProduced(plan_node_id_, rows_produced_);
      if (eof) ctx_->actual_cardinalities()[plan_node_id_] = rows_produced_;
    }
  }

 private:
  virtual Status DoOpen(ExecContext* ctx) = 0;
  virtual Status DoNext(RowBatch* out) = 0;

  ExecContext* ctx_ = nullptr;
  int64_t rows_produced_ = 0;
  int plan_node_id_ = -1;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// The guarded batch loop that every drain of a child or a spill file to
/// its end runs (DESIGN.md §16): a guardrail check, then a fresh batch
/// filled by `next(&batch)`; the first empty batch ends the loop, and every
/// other one goes to `body(batch)`. Either callable's error ends it too.
template <typename Batch, typename NextFn, typename BodyFn>
Status DrainBatches(ExecContext* ctx, NextFn&& next, BodyFn&& body) {
  while (true) {
    RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
    Batch batch;
    RQP_RETURN_IF_ERROR(next(&batch));
    if (batch.empty()) return Status::OK();
    RQP_RETURN_IF_ERROR(body(batch));
  }
}

/// Drains `op` (Open/Next*/Close), appending all batches to `out` (which
/// may be nullptr to just count). Returns total rows. A count-only drain of
/// a TableScanOp root counts the scan's views and never transposes them.
StatusOr<int64_t> DrainOperator(Operator* op, ExecContext* ctx,
                                std::vector<RowBatch>* out);

}  // namespace rqp

#endif  // RQP_EXEC_OPERATOR_H_
