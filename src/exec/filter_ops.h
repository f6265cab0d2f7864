#ifndef RQP_EXEC_FILTER_OPS_H_
#define RQP_EXEC_FILTER_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operator.h"
#include "expr/expr.h"
#include "expr/expr_program.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"

namespace rqp {

class TableScanOp;

/// Filters child rows by a predicate over qualified slot names. The
/// optimizer places it only above a join (the index-NL-join inner residual
/// and cyclic-edge residuals), so it reads rows: the bytecode runs over each
/// input batch viewed column-wise at stride = num_cols, with one eval charge
/// per input batch.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, PredicatePtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  void Close() override { child_->Close(); }
  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "Filter"; }

 private:
  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;

  OperatorPtr child_;
  PredicatePtr predicate_;
  std::optional<PredicateProgram> program_;
  RowBatch in_;  ///< reused input batch — no per-Next allocation
  std::vector<const int64_t*> col_ptrs_;
  SelectionVector sel_;
};

/// Computes derived columns through the expression layer and appends them
/// to the child's slots. Each expression is constant-folded (FoldExpr) at
/// Open and compiled to the postfix ExprProgram VM, evaluated
/// column-at-a-time over the input batch. Division by zero is the sole
/// expression runtime error and carries a fixed text; the VM checks every
/// divisor lane before dividing and CASE evaluates both branches eagerly,
/// so a batch errors iff one of its rows would, and the whole-batch eval
/// charge is flushed before evaluation so the clock is the same on the
/// error path.
///
/// A TableScanOp child hands over its column views: the programs run over
/// them stride-free (EvalDense over a dense range, EvalSelection over a
/// selection) and each output row is written once, straight from the views.
/// Any other child's rows are evaluated at stride = width and copied once.
class MapOp : public Operator {
 public:
  MapOp(OperatorPtr child, std::vector<DerivedColumn> derived);

  void Close() override { child_->Close(); }
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "Map"; }

 private:
  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;

  OperatorPtr child_;
  std::vector<DerivedColumn> derived_;
  std::vector<std::string> slots_;  ///< child slots + derived names
  /// One VM program per derived column.
  std::vector<ExprProgram> programs_;
  ExprScratch scratch_;
  TableScanOp* scan_ = nullptr;  ///< the child, when it is a scan (at Open)
  ColumnBatch in_col_;  ///< reused view input from scan_
  RowBatch in_;         ///< reused row input from any other child
  std::vector<const int64_t*> col_ptrs_;
  std::vector<std::vector<int64_t>> derived_vals_;  ///< [derived][row]
};

/// Conjunctive filter with run-time predicate reordering — the A-Greedy /
/// eddies-lite adaptive selection ordering of §5.3 ("deferring optimization
/// decisions to execution"). In static mode the predicates run in the given
/// order; in adaptive mode observed pass rates (exponentially decayed, so
/// drifting data shifts the order) re-rank the evaluation order every
/// `reorder_interval` input rows. The work metric is
/// ExecCounters::predicate_evals.
class AdaptiveFilterOp : public Operator {
 public:
  struct Options {
    bool adaptive = true;
    int64_t reorder_interval = 512;
    double decay = 0.98;  ///< per-interval decay of historical pass rates
  };

  AdaptiveFilterOp(OperatorPtr child, std::vector<PredicatePtr> predicates,
                   Options options)
      : child_(std::move(child)), predicates_(std::move(predicates)),
        options_(options) {}

  void Close() override { child_->Close(); }
  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override {
    return options_.adaptive ? "AdaptiveFilter" : "StaticFilter";
  }

  /// Current evaluation order (for tests/EXPLAIN).
  const std::vector<size_t>& evaluation_order() const { return order_; }

 private:
  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;
  void MaybeReorder();

  OperatorPtr child_;
  std::vector<PredicatePtr> predicates_;
  Options options_;
  std::vector<PredicateProgram> programs_;  ///< one per predicate, EvalRow'd
  std::vector<size_t> order_;
  std::vector<double> evals_;   // decayed evaluation counts per predicate
  std::vector<double> passes_;  // decayed pass counts per predicate
  int64_t rows_since_reorder_ = 0;
  RowBatch in_;  ///< reused input batch — no per-Next allocation
};

}  // namespace rqp

#endif  // RQP_EXEC_FILTER_OPS_H_
