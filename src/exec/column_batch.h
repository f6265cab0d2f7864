#ifndef RQP_EXEC_COLUMN_BATCH_H_
#define RQP_EXEC_COLUMN_BATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/batch.h"

namespace rqp {

class ExecContext;

/// Late-materialized columnar batch: the unit of data flow on the hot
/// pipeline edges (scan→filter→map→join-probe→sink). Each column is either
/// a zero-copy *view*
/// (a base pointer into full `Table::column()` storage, addressed by
/// absolute row id) or an owned *flat* vector (addressed by logical
/// position). Row addressing is batch-level: with a selection vector,
/// logical position i maps to absolute row id sel()[i]; without one the
/// batch is a dense range starting at phys_begin(). Flat columns ignore the
/// mapping — they are written in logical order by whoever derived them
/// (map expressions, join build-side gathers).
///
/// View bases for scan/filter output point into immutable table storage, so
/// they stay valid — and identical — across successive producer calls
/// (`stable_views()`); that is what lets a consumer hold view references
/// from several producer batches at once (the join probe packing output
/// across fetches). Producers whose views alias reused scratch memory must
/// leave stable_views false, and consumers requiring cross-batch stability
/// must check it at Open.
///
/// Row-major RowBatch remains the interface everywhere else (blocking and
/// spilling operators, the result surface); MaterializeInto is the single
/// conversion point and counts every converted row in the
/// `rows_materialized` diagnostic.
class ColumnBatch {
 public:
  struct Column {
    const int64_t* base = nullptr;  ///< view base, absolute row-id indexed
    std::vector<int64_t> flat;      ///< owned values, logical-position indexed
    bool is_view = false;
  };

  /// Reconfigures for `num_cols` columns with no rows, no selection, and all
  /// columns flat-empty. Keeps per-column capacity, like RowBatch::Reset.
  void Reset(size_t num_cols) {
    if (cols_.size() != num_cols) cols_.resize(num_cols);
    for (auto& c : cols_) {
      c.base = nullptr;
      c.is_view = false;
      c.flat.clear();
    }
    n_ = 0;
    has_sel_ = false;
    sel_.clear();
    phys_begin_ = 0;
    stable_views_ = false;
  }

  size_t num_cols() const { return cols_.size(); }
  size_t num_rows() const { return n_; }
  bool empty() const { return n_ == 0; }
  bool full() const { return n_ >= kBatchRows; }
  void set_num_rows(size_t n) { n_ = n; }

  Column& col(size_t c) { return cols_[c]; }
  const Column& col(size_t c) const { return cols_[c]; }
  void SetView(size_t c, const int64_t* base) {
    cols_[c].base = base;
    cols_[c].is_view = true;
  }
  bool all_views() const {
    for (const auto& c : cols_) {
      if (!c.is_view) return false;
    }
    return !cols_.empty();
  }

  bool stable_views() const { return stable_views_; }
  void set_stable_views(bool v) { stable_views_ = v; }

  /// Dense addressing: logical position i is absolute row phys_begin + i.
  void SetDense(int64_t phys_begin, size_t n) {
    has_sel_ = false;
    sel_.clear();
    phys_begin_ = phys_begin;
    n_ = n;
  }
  /// Switches to selection addressing. Callers append absolute row ids to
  /// mutable_sel() and keep num_rows in sync (set_num_rows / AppendSelRow).
  void UseSelection() {
    has_sel_ = true;
    phys_begin_ = 0;
  }
  bool has_selection() const { return has_sel_; }
  int64_t phys_begin() const { return phys_begin_; }
  const std::vector<uint32_t>& sel() const { return sel_; }
  std::vector<uint32_t>& mutable_sel() { return sel_; }
  void AppendSelRow(uint32_t row_id) {
    assert(has_sel_);
    sel_.push_back(row_id);
    ++n_;
  }

  /// Absolute row id of logical position i (view-column addressing).
  int64_t RowId(size_t i) const {
    return has_sel_ ? static_cast<int64_t>(sel_[i]) : phys_begin_ + i;
  }
  int64_t Value(size_t c, size_t i) const {
    const Column& col = cols_[c];
    return col.is_view ? col.base[RowId(i)] : col.flat[i];
  }
  /// Start of the contiguous value run for a dense view column — the
  /// stride-free pointer the VM kernels run over. Valid only when
  /// !has_selection() and the column is a view.
  const int64_t* DensePtr(size_t c) const {
    assert(!has_sel_ && cols_[c].is_view);
    return cols_[c].base + phys_begin_;
  }

  /// Copies logical row i into `dst` (one cell per column) — the on-demand
  /// row gather for spill routing and exchange staging.
  void GatherRow(size_t i, int64_t* dst) const {
    for (size_t c = 0; c < cols_.size(); ++c) dst[c] = Value(c, i);
  }

  /// Appends every logical row to `out` in row-major order — the single
  /// columnar→row conversion point. Counts the rows in the
  /// rows_materialized diagnostic when `ctx` is non-null (zero cost-clock
  /// charge: a transpose is not a unit of the simulated clock).
  void MaterializeInto(RowBatch* out, ExecContext* ctx) const;

  /// Rewrites every view column as a flat column holding its current values
  /// and drops the selection mapping, so subsequent rows can be appended
  /// flat. Used by producers whose emission switches from view references to
  /// owned values mid-batch (the join probe crossing into its spill phases),
  /// so output stays packed to kBatchRows across that transition.
  void DemoteViewsToFlat() {
    for (auto& c : cols_) {
      if (!c.is_view) continue;
      std::vector<int64_t> values(n_);
      for (size_t i = 0; i < n_; ++i) {
        values[i] = c.base[RowId(i)];
      }
      c.flat = std::move(values);
      c.is_view = false;
      c.base = nullptr;
    }
    has_sel_ = false;
    sel_.clear();
    phys_begin_ = 0;
    stable_views_ = false;
  }

 private:
  std::vector<Column> cols_;
  size_t n_ = 0;
  bool has_sel_ = false;
  std::vector<uint32_t> sel_;  ///< absolute row ids, one per logical row
  int64_t phys_begin_ = 0;     ///< dense-range start when no selection
  bool stable_views_ = false;
};

}  // namespace rqp

#endif  // RQP_EXEC_COLUMN_BATCH_H_
