#include "exec/column_batch.h"

#include "exec/context.h"

namespace rqp {

// Column-at-a-time strided stores: each view is read sequentially (a dense
// range) or gathered through the row ids.
void ColumnBatch::WriteRows(int64_t* dst, size_t stride) const {
  if (has_sel_) {
    WriteRowIds(sel_.data(), n_, dst, stride);
    return;
  }
  for (size_t c = 0; c < bases_.size(); ++c) {
    const int64_t* src = bases_[c] + phys_begin_;
    int64_t* d = dst + c;
    for (size_t i = 0; i < n_; ++i) d[i * stride] = src[i];
  }
}

void ColumnBatch::WriteRowIds(const uint32_t* ids, size_t n, int64_t* dst,
                              size_t stride) const {
  for (size_t c = 0; c < bases_.size(); ++c) {
    const int64_t* src = bases_[c];
    int64_t* d = dst + c;
    for (size_t i = 0; i < n; ++i) d[i * stride] = src[ids[i]];
  }
}

void ColumnBatch::MaterializeInto(RowBatch* out, ExecContext* ctx) const {
  const size_t ncols = bases_.size();
  std::vector<int64_t>& data = out->mutable_data();
  const size_t base = data.size();
  data.resize(base + n_ * ncols);
  WriteRows(data.data() + base, ncols);
  if (ctx != nullptr) {
    ctx->counters().rows_materialized += static_cast<int64_t>(n_);
  }
}

}  // namespace rqp
