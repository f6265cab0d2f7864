#include "exec/column_batch.h"

#include "exec/context.h"

namespace rqp {

void ColumnBatch::MaterializeInto(RowBatch* out, ExecContext* ctx) const {
  const size_t ncols = cols_.size();
  std::vector<int64_t>& data = out->mutable_data();
  const size_t base = data.size();
  data.resize(base + n_ * ncols);
  int64_t* dst = data.data() + base;
  // Column-at-a-time strided stores: each source (view gather or flat run)
  // is read sequentially.
  for (size_t c = 0; c < ncols; ++c) {
    const Column& col = cols_[c];
    int64_t* d = dst + c;
    if (!col.is_view) {
      const int64_t* src = col.flat.data();
      for (size_t i = 0; i < n_; ++i) d[i * ncols] = src[i];
    } else if (has_sel_) {
      const uint32_t* sel = sel_.data();
      const int64_t* src = col.base;
      for (size_t i = 0; i < n_; ++i) d[i * ncols] = src[sel[i]];
    } else {
      const int64_t* src = col.base + phys_begin_;
      for (size_t i = 0; i < n_; ++i) d[i * ncols] = src[i];
    }
  }
  if (ctx != nullptr) {
    ctx->counters().rows_materialized += static_cast<int64_t>(n_);
  }
}

}  // namespace rqp
