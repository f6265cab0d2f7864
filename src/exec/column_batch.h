#ifndef RQP_EXEC_COLUMN_BATCH_H_
#define RQP_EXEC_COLUMN_BATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/batch.h"

namespace rqp {

class ExecContext;

/// A TableScanOp's output as zero-copy column *views*: one base pointer per
/// projected column into the table's immutable `Table::column()` storage,
/// addressed by absolute row id. Row addressing is batch-level: with a
/// selection vector, logical position i maps to absolute row id sel()[i]
/// (filtered scans); without one the batch is a dense range starting at
/// phys_begin() (unfiltered scans).
///
/// Views in, rows out: the scan is the only producer, and every other
/// operator hands its parent a RowBatch. The scan's direct consumers that
/// skip payload columns read the views — the hash-join probe fetch gathers
/// only the key column, MapOp evaluates derived columns stride-free — and
/// write their output rows once, straight from the views (WriteRows /
/// WriteRowIds). A count-only drain of a scan root reads them too. Every
/// other consumer gets the scan's rows through TableScanOp::Next, which
/// transposes with MaterializeInto. Rows written row-major from views count
/// in the `rows_materialized` diagnostic; rows a consumer read as views
/// count in `transposes_elided`.
class ColumnBatch {
 public:
  /// Reconfigures for `num_cols` columns with no rows and no selection.
  void Reset(size_t num_cols) {
    bases_.assign(num_cols, nullptr);
    n_ = 0;
    has_sel_ = false;
    sel_.clear();
    phys_begin_ = 0;
  }

  size_t num_cols() const { return bases_.size(); }
  size_t num_rows() const { return n_; }
  bool empty() const { return n_ == 0; }
  void set_num_rows(size_t n) { n_ = n; }

  void SetView(size_t c, const int64_t* base) { bases_[c] = base; }
  /// Column c's view base, indexed by absolute row id.
  const int64_t* base(size_t c) const { return bases_[c]; }

  /// Dense addressing: logical position i is absolute row phys_begin + i.
  void SetDense(int64_t phys_begin, size_t n) {
    has_sel_ = false;
    sel_.clear();
    phys_begin_ = phys_begin;
    n_ = n;
  }
  /// Switches to selection addressing. Callers append absolute row ids to
  /// mutable_sel() and keep num_rows in sync with set_num_rows.
  void UseSelection() {
    has_sel_ = true;
    phys_begin_ = 0;
  }
  bool has_selection() const { return has_sel_; }
  int64_t phys_begin() const { return phys_begin_; }
  const std::vector<uint32_t>& sel() const { return sel_; }
  std::vector<uint32_t>& mutable_sel() { return sel_; }

  /// Absolute row id of logical position i.
  int64_t RowId(size_t i) const {
    return has_sel_ ? static_cast<int64_t>(sel_[i]) : phys_begin_ + i;
  }
  int64_t Value(size_t c, size_t i) const { return bases_[c][RowId(i)]; }
  /// Start of column c's contiguous value run — the stride-free pointer the
  /// VM kernels run over. Valid only when !has_selection().
  const int64_t* DensePtr(size_t c) const {
    assert(!has_sel_);
    return bases_[c] + phys_begin_;
  }

  /// Copies logical row i into `dst` (one cell per column) — the on-demand
  /// row gather for spill routing.
  void GatherRow(size_t i, int64_t* dst) const {
    for (size_t c = 0; c < bases_.size(); ++c) dst[c] = Value(c, i);
  }

  /// Writes every logical row into row-major `dst`, rows `stride` cells
  /// apart (stride >= num_cols(); the caller fills the rest of each row),
  /// one column at a time.
  void WriteRows(int64_t* dst, size_t stride) const;
  /// Writes the rows with absolute ids `ids[0..n)` the same way.
  void WriteRowIds(const uint32_t* ids, size_t n, int64_t* dst,
                   size_t stride) const;

  /// Appends every logical row to `out` in row-major order — TableScanOp's
  /// transpose for row consumers. Counts the rows in the rows_materialized
  /// diagnostic when `ctx` is non-null (zero cost-clock charge: a transpose
  /// is not a unit of the simulated clock).
  void MaterializeInto(RowBatch* out, ExecContext* ctx) const;

 private:
  std::vector<const int64_t*> bases_;  ///< view bases, absolute row-id indexed
  size_t n_ = 0;
  bool has_sel_ = false;
  std::vector<uint32_t> sel_;  ///< absolute row ids, one per logical row
  int64_t phys_begin_ = 0;     ///< dense-range start when no selection
};

}  // namespace rqp

#endif  // RQP_EXEC_COLUMN_BATCH_H_
