#ifndef RQP_SHARD_EXCHANGE_H_
#define RQP_SHARD_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace rqp {

/// Destination-side landing zone for one exchanged table: per-shard row-major
/// cells, split into the *owned* part (rows this shard is the hash/range
/// owner of) and the *broadcast* part (rows replicated to every shard — hot
/// build keys and whole broadcast tables). The split matters for morsel
/// stealing: a thief copying a victim's build partition must take only the
/// owned part, because it already holds the broadcast part — copying both
/// would duplicate join matches.
class ExchangeBuffers {
 public:
  ExchangeBuffers(int num_shards, size_t num_cols)
      : num_cols_(num_cols), owned_(static_cast<size_t>(num_shards)),
        broadcast_(static_cast<size_t>(num_shards)) {}

  void Append(int dest, const int64_t* row, bool broadcast) {
    auto& cells = broadcast ? broadcast_[static_cast<size_t>(dest)]
                            : owned_[static_cast<size_t>(dest)];
    cells.insert(cells.end(), row, row + num_cols_);
  }

  int num_shards() const { return static_cast<int>(owned_.size()); }
  size_t num_cols() const { return num_cols_; }
  const std::vector<int64_t>& owned(int s) const {
    return owned_[static_cast<size_t>(s)];
  }
  const std::vector<int64_t>& broadcast(int s) const {
    return broadcast_[static_cast<size_t>(s)];
  }
  std::vector<int64_t>& mutable_owned(int s) {
    return owned_[static_cast<size_t>(s)];
  }
  int64_t owned_rows(int s) const {
    return num_cols_ == 0 ? 0
        : static_cast<int64_t>(owned_[static_cast<size_t>(s)].size() /
                               num_cols_);
  }
  int64_t broadcast_rows(int s) const {
    return num_cols_ == 0 ? 0
        : static_cast<int64_t>(broadcast_[static_cast<size_t>(s)].size() /
                               num_cols_);
  }

 private:
  size_t num_cols_;
  std::vector<std::vector<int64_t>> owned_;      ///< [shard] row-major cells
  std::vector<std::vector<int64_t>> broadcast_;  ///< [shard] row-major cells
};

/// Bounded per-sender staging queue in front of an ExchangeBuffers. Staged
/// rows hold a MemoryGrant (the in-flight network buffer of a real
/// exchange); once the staged footprint reaches `queue_pages` the channel
/// flushes into the destination buffers, clearing the grant and paying the
/// transfer on the sender's cost clock (ChargeExchange: hash route + row
/// copy per shuffled row, row copy per broadcast row, exchange_page per
/// destination page). Everything is serial per sender, so the charges — and
/// with them the sharded clock — are exactly reproducible.
class ExchangeChannel {
 public:
  ExchangeChannel(ExchangeBuffers* sink, ExecContext* ctx,
                  int64_t queue_pages);

  /// Stages one row for `dest`'s owned part (hash/range shuffle traffic).
  void StageOwned(int dest, const int64_t* row);
  /// Stages one row for every shard's broadcast part (exactly-once: only the
  /// row's single owner calls this).
  void StageBroadcast(const int64_t* row);

  /// Drains all staged rows into the sink and settles the cost clock.
  void Flush();

  int64_t peak_staged_pages() const { return peak_staged_pages_; }

 private:
  void MaybeFlush();
  int64_t StagedPages() const;

  ExchangeBuffers* sink_;
  ExecContext* ctx_;
  int64_t queue_pages_;
  std::vector<std::vector<int64_t>> staged_owned_;      ///< [dest] cells
  std::vector<std::vector<int64_t>> staged_broadcast_;  ///< [dest] cells
  int64_t staged_rows_ = 0;
  MemoryGrant staging_;  ///< pages of the staged rows
  int64_t peak_staged_pages_ = 0;
};

/// Routing decision for one row: the owning destination shard;
/// kBroadcastAll to replicate it to every shard's broadcast part (the
/// hot-key side channel); or kKeepLocal to pin it to whichever sender
/// currently holds it (hot probe rows — moving them all to one owner is
/// exactly the straggler the diversion avoids).
inline constexpr int kBroadcastAll = -1;
inline constexpr int kKeepLocal = -2;
using RouteFn = std::function<int(int64_t key)>;

/// Repartitioning exchange for one sender shard. Pulls the child's rows (the
/// sender's local scan — the sender pays for it; every routed row is
/// gathered anyway, so the scan's own Next transposes them), routes each row
/// by its key column, and:
///  - emits rows the sender itself owns (no transfer: they never leave the
///    shard) — the operator's output;
///  - stages remote-owned rows into the channel;
///  - stages kBroadcastAll rows to every shard (including the sender, so the
///    hot-key side channel stays exactly-once through a single path).
class ShuffleExchangeOp : public Operator {
 public:
  ShuffleExchangeOp(OperatorPtr child, size_t key_col, int self_shard,
                    RouteFn route, ExchangeChannel* channel)
      : child_(std::move(child)), key_col_(key_col), self_shard_(self_shard),
        route_(std::move(route)), channel_(channel) {}

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;

  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "ShuffleExchange"; }

 private:
  OperatorPtr child_;
  size_t key_col_;
  int self_shard_;
  RouteFn route_;
  ExchangeChannel* channel_;
  ExecContext* ctx_ = nullptr;
};

/// Replicating exchange for one sender shard: every child row (read through
/// the child's Next, like the shuffle) is staged to every shard's broadcast
/// part. Emits nothing — the destination buffers are the only output (the
/// sender's own copy included, so a broadcast table is assembled
/// identically on all shards).
class BroadcastExchangeOp : public Operator {
 public:
  BroadcastExchangeOp(OperatorPtr child, ExchangeChannel* channel)
      : child_(std::move(child)), channel_(channel) {}

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;

  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "BroadcastExchange"; }

 private:
  OperatorPtr child_;
  ExchangeChannel* channel_;
  ExecContext* ctx_ = nullptr;
};

}  // namespace rqp

#endif  // RQP_SHARD_EXCHANGE_H_
