#include "shard/exchange.h"

#include <algorithm>

#include "storage/table.h"

namespace rqp {

ExchangeChannel::ExchangeChannel(ExchangeBuffers* sink, ExecContext* ctx,
                                 int64_t queue_pages)
    : sink_(sink), ctx_(ctx),
      queue_pages_(std::max<int64_t>(1, queue_pages)),
      staged_owned_(static_cast<size_t>(sink->num_shards())),
      staged_broadcast_(static_cast<size_t>(sink->num_shards())),
      staging_(ctx->memory()) {}

int64_t ExchangeChannel::StagedPages() const {
  return (staged_rows_ + kRowsPerPage - 1) / kRowsPerPage;
}

void ExchangeChannel::StageOwned(int dest, const int64_t* row) {
  auto& cells = staged_owned_[static_cast<size_t>(dest)];
  cells.insert(cells.end(), row, row + sink_->num_cols());
  ++staged_rows_;
  MaybeFlush();
}

void ExchangeChannel::StageBroadcast(const int64_t* row) {
  for (auto& cells : staged_broadcast_) {
    cells.insert(cells.end(), row, row + sink_->num_cols());
    ++staged_rows_;
  }
  MaybeFlush();
}

void ExchangeChannel::MaybeFlush() {
  const int64_t staged = StagedPages();
  peak_staged_pages_ = std::max(peak_staged_pages_, staged);
  // The staged queue holds broker pages while in flight — the bounded
  // network buffer. Grant growth is page-at-a-time; under pressure the
  // broker may short the grant (progress minimum), which only means the
  // accounting shows overcommit until the next flush.
  if (staged > staging_.pages()) staging_.Grow(staged - staging_.pages());
  if (staged >= queue_pages_) Flush();
}

void ExchangeChannel::Flush() {
  if (staged_rows_ == 0) {
    staging_.Clear();
    return;
  }
  const size_t ncols = sink_->num_cols();
  int64_t shuffle_rows = 0, shuffle_pages = 0;
  int64_t bcast_rows = 0, bcast_pages = 0;
  for (int s = 0; s < sink_->num_shards(); ++s) {
    auto& own = staged_owned_[static_cast<size_t>(s)];
    if (!own.empty()) {
      const int64_t rows = static_cast<int64_t>(own.size() / ncols);
      shuffle_rows += rows;
      shuffle_pages += (rows + kRowsPerPage - 1) / kRowsPerPage;
      for (size_t i = 0; i < own.size(); i += ncols) {
        sink_->Append(s, own.data() + i, /*broadcast=*/false);
      }
      own.clear();
    }
    auto& bc = staged_broadcast_[static_cast<size_t>(s)];
    if (!bc.empty()) {
      const int64_t rows = static_cast<int64_t>(bc.size() / ncols);
      bcast_rows += rows;
      bcast_pages += (rows + kRowsPerPage - 1) / kRowsPerPage;
      for (size_t i = 0; i < bc.size(); i += ncols) {
        sink_->Append(s, bc.data() + i, /*broadcast=*/true);
      }
      bc.clear();
    }
  }
  staged_rows_ = 0;
  if (shuffle_rows > 0) {
    ctx_->ChargeExchange(shuffle_rows, shuffle_pages, /*broadcast=*/false);
  }
  if (bcast_rows > 0) {
    ctx_->ChargeExchange(bcast_rows, bcast_pages, /*broadcast=*/true);
  }
  staging_.Clear();
}

Status ShuffleExchangeOp::DoOpen(ExecContext* ctx) {
  return child_->Open(ctx);
}

// Not DrainBatches: the loop ends at the first child batch that leaves a
// row home, not at the child's EOF.
Status ShuffleExchangeOp::DoNext(RowBatch* out) {
  out->Reset(output_slots().size());
  RowBatch in;
  while (out->empty()) {
    RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
    RQP_RETURN_IF_ERROR(child_->Next(&in));
    if (in.empty()) break;  // child EOF; out stays empty -> EOF after charge
    for (size_t r = 0; r < in.num_rows(); ++r) {
      const int64_t* row = in.row(r);
      const int dest = route_(row[key_col_]);
      if (dest == kBroadcastAll) {
        channel_->StageBroadcast(row);
      } else if (dest == self_shard_ || dest == kKeepLocal) {
        out->AppendRow(row);  // already home: no transfer
      } else {
        channel_->StageOwned(dest, row);
      }
    }
  }
  return Status::OK();
}

void ShuffleExchangeOp::Close() {
  channel_->Flush();
  child_->Close();
}

Status BroadcastExchangeOp::DoOpen(ExecContext* ctx) {
  return child_->Open(ctx);
}

Status BroadcastExchangeOp::DoNext(RowBatch* out) {
  out->Reset(output_slots().size());
  // out stays empty: a pure sink reaches EOF immediately.
  return DrainBatches<RowBatch>(
      ctx(), [this](RowBatch* in) { return child_->Next(in); },
      [this](const RowBatch& in) {
        for (size_t r = 0; r < in.num_rows(); ++r) {
          channel_->StageBroadcast(in.row(r));
        }
        return Status::OK();
      });
}

void BroadcastExchangeOp::Close() {
  channel_->Flush();
  child_->Close();
}

}  // namespace rqp
