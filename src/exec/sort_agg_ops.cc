#include "exec/sort_agg_ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "expr/expr.h"

namespace rqp {
namespace {
// splitmix64 finalizer; the aggregation partitioner salts it with the
// recursion depth so every level re-partitions with an independent hash.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

// ---- SortOp ----------------------------------------------------------------

SortOp::SortOp(OperatorPtr child, std::string key_slot, Options options)
    : child_(std::move(child)), key_(std::move(key_slot)), options_(options) {
  if (options_.merge_fanin < 2) options_.merge_fanin = 2;
}

Status SortOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ResetCount();
  next_ = 0;
  external_ = false;
  external_passes_ = 0;
  buffer_ = MemoryGrant(ctx->memory());
  merge_ = MemoryGrant(ctx->memory());
  rows_ = RowBuffer{};
  order_.clear();
  runs_.clear();
  cursors_.clear();
  const int k = FindSlot(child_->output_slots(), key_);
  if (k < 0) return Status::InvalidArgument("sort key slot not found: " + key_);
  key_idx_ = static_cast<size_t>(k);
  cols_ = child_->output_slots().size();
  rows_.num_cols = cols_;
  open_capacity_ = ctx->memory()->capacity();

  RQP_RETURN_IF_ERROR(ConsumeInput(ctx));

  if (runs_.empty()) {
    // Everything fit: one in-memory stable sort, no external passes.
    const int64_t n = static_cast<int64_t>(rows_.num_rows());
    if (n > 1) {
      ctx->ChargeCompareOps(static_cast<int64_t>(
          static_cast<double>(n) * std::log2(static_cast<double>(n))));
    }
    SortBuffer();
    return Status::OK();
  }
  // The still-buffered tail becomes the last run; then merge.
  RQP_RETURN_IF_ERROR(FlushRun());
  return MergeRuns();
}

Status SortOp::ConsumeInput(ExecContext* ctx) {
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  while (true) {
    RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
    RowBatch in;
    RQP_RETURN_IF_ERROR(child_->Next(&in));
    if (in.empty()) break;
    // Batch start is the phase boundary: scheduled capacity drops land on
    // the clock during the child's Next, so poll before absorbing rows —
    // otherwise the grow path below resolves the deficit incidentally and
    // the revocation is never observed.
    RQP_RETURN_IF_ERROR(Shed());
    for (size_t r = 0; r < in.num_rows(); ++r) {
      // Pages needed once this row lands in the buffer.
      const int64_t needed =
          (static_cast<int64_t>(rows_.num_rows()) + kRowsPerPage) /
          kRowsPerPage;
      if (needed > buffer_.pages()) {
        // The static policy is a one-shot deal struck at Open(): it never
        // grows into memory freed later; only the dynamic policy does.
        const bool may_grow =
            options_.dynamic_memory || buffer_.pages() < open_capacity_;
        if (!(may_grow && buffer_.TryGrow(1))) {
          // No headroom: cut the buffer (if any) as a sorted run and start
          // fresh on the 1-page progress minimum, taken even over-committed.
          RQP_RETURN_IF_ERROR(FlushRun());
          buffer_.Grow(1);
        }
      }
      rows_.Append(in.row(r));
    }
  }
  child_->Close();
  return Status::OK();
}

void SortOp::SortBuffer() {
  const size_t n = rows_.num_rows();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  // Gather keys once; the comparator then reads a dense array instead of
  // striding row pointers.
  key_gather_.resize(n);
  for (size_t i = 0; i < n; ++i) key_gather_[i] = rows_.row(i)[key_idx_];
  std::stable_sort(order_.begin(), order_.end(), [this](size_t a, size_t b) {
    return key_gather_[a] < key_gather_[b];
  });
}

Status SortOp::FlushRun() {
  const size_t n = rows_.num_rows();
  if (n == 0) return Status::OK();
  SortBuffer();
  if (n > 1) {
    ctx_->ChargeCompareOps(static_cast<int64_t>(
        static_cast<double>(n) * std::log2(static_cast<double>(n))));
  }
  auto file = ctx_->spill()->Create(cols_);
  if (!file.ok()) return file.status();
  for (size_t i = 0; i < n; ++i) {
    RQP_RETURN_IF_ERROR((*file)->AppendRow(rows_.row(order_[i])));
  }
  RQP_RETURN_IF_ERROR((*file)->FinishWrite());
  runs_.push_back(std::move(file).value());
  ++ctx_->counters().spill_partitions;
  rows_.data.clear();
  order_.clear();
  buffer_.Clear();
  return Status::OK();
}

Status SortOp::MergeRuns() {
  external_ = true;
  while (true) {
    // One cursor page per input run plus the output page.
    int64_t want = std::min<int64_t>(options_.merge_fanin,
                                     static_cast<int64_t>(runs_.size())) +
                   1;
    if (!options_.dynamic_memory) {
      want = std::min(want, std::max<int64_t>(open_capacity_, 2));
    }
    if (options_.dynamic_memory || merge_.pages() == 0) {
      // Grow & shrink: renegotiate before every generation, so capacity
      // changes mid-merge adjust the fan-in instead of failing.
      merge_.Clear();
      merge_.Grow(want);
    }
    const int64_t fanin =
        std::clamp<int64_t>(merge_.pages() - 1, 2, options_.merge_fanin);
    ++external_passes_;
    if (static_cast<int64_t>(runs_.size()) <= fanin) break;
    RQP_RETURN_IF_ERROR(MergeGeneration(fanin));
  }
  // The last generation streams straight out of the surviving runs: open
  // one single-page cursor per run for Next().
  cursors_.clear();
  cursors_.reserve(runs_.size());
  for (auto& run : runs_) {
    MergeCursor c;
    c.file = run.get();
    RQP_RETURN_IF_ERROR(run->Rewind());
    RQP_RETURN_IF_ERROR(run->ReadBatch(&c.batch, kRowsPerPage));
    if (c.batch.empty()) c.file = nullptr;
    cursors_.push_back(std::move(c));
  }
  return Status::OK();
}

template <typename Emit>
Status SortOp::MergeStep(std::vector<MergeCursor>* cursors, bool* done,
                         Emit emit) {
  // Lowest key wins; ties go to the earliest run, which — with runs kept in
  // formation order — reproduces a global stable sort.
  MergeCursor* best = nullptr;
  for (MergeCursor& c : *cursors) {
    if (c.file == nullptr) continue;
    if (best == nullptr ||
        c.batch.row(c.pos)[key_idx_] < best->batch.row(best->pos)[key_idx_]) {
      best = &c;
    }
  }
  *done = best == nullptr;
  if (*done) return Status::OK();
  RQP_RETURN_IF_ERROR(emit(best->batch.row(best->pos)));
  if (++best->pos >= best->batch.num_rows()) {
    RQP_RETURN_IF_ERROR(best->file->ReadBatch(&best->batch, kRowsPerPage));
    best->pos = 0;
    if (best->batch.empty()) best->file = nullptr;
  }
  return Status::OK();
}

Status SortOp::MergeGeneration(int64_t fanin) {
  std::vector<std::unique_ptr<SpillFile>> next_runs;
  for (size_t base = 0; base < runs_.size();
       base += static_cast<size_t>(fanin)) {
    RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
    const size_t end =
        std::min(runs_.size(), base + static_cast<size_t>(fanin));
    if (end - base == 1) {
      next_runs.push_back(std::move(runs_[base]));
      continue;
    }
    std::vector<MergeCursor> cursors;
    cursors.reserve(end - base);
    for (size_t i = base; i < end; ++i) {
      MergeCursor c;
      c.file = runs_[i].get();
      RQP_RETURN_IF_ERROR(c.file->Rewind());
      RQP_RETURN_IF_ERROR(c.file->ReadBatch(&c.batch, kRowsPerPage));
      if (c.batch.empty()) c.file = nullptr;
      cursors.push_back(std::move(c));
    }
    auto merged = ctx_->spill()->Create(cols_);
    if (!merged.ok()) return merged.status();
    int64_t rows_merged = 0;
    auto append = [out = merged->get()](const int64_t* row) {
      return out->AppendRow(row);
    };
    bool done = false;
    while (true) {
      RQP_RETURN_IF_ERROR(MergeStep(&cursors, &done, append));
      if (done) break;
      ++rows_merged;
    }
    ctx_->ChargeCompareOps(rows_merged *
                           static_cast<int64_t>(cursors.size() - 1));
    RQP_RETURN_IF_ERROR((*merged)->FinishWrite());
    next_runs.push_back(std::move(merged).value());
    // Source runs (and their files) die here.
    for (size_t i = base; i < end; ++i) runs_[i].reset();
  }
  runs_ = std::move(next_runs);
  return Shed();
}

Status SortOp::Next(RowBatch* out) {
  out->Reset(output_slots().size());
  if (!external_) {
    while (next_ < order_.size() && !out->full()) {
      out->AppendRow(rows_.row(order_[next_++]));
    }
  } else {
    int64_t compares = 0;
    const int64_t k = static_cast<int64_t>(cursors_.size());
    auto append = [out](const int64_t* row) {
      out->AppendRow(row);
      return Status::OK();
    };
    bool done = false;
    while (!out->full()) {
      RQP_RETURN_IF_ERROR(MergeStep(&cursors_, &done, append));
      if (done) break;
      compares += k - 1;
    }
    if (compares > 0) ctx_->ChargeCompareOps(compares);
  }
  ctx_->ChargeRowCpu(static_cast<int64_t>(out->num_rows()));
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

Status SortOp::Shed() {
  // Only the run-formation buffer is sheddable; merge generations already
  // renegotiate their grant at every generation boundary.
  if (!options_.dynamic_memory || external_ || rows_.num_rows() == 0 ||
      buffer_.pages() == 0 || ctx_->memory()->deficit() == 0) {
    return Status::OK();
  }
  RQP_RETURN_IF_ERROR(FlushRun());  // returns the buffer's pages
  ++ctx_->counters().memory_revocations;
  return Status::OK();
}

void SortOp::Close() {
  buffer_.Clear();
  merge_.Clear();
  rows_ = RowBuffer{};
  order_.clear();
  cursors_.clear();
  runs_.clear();
}

// ---- FlatGroups ------------------------------------------------------------

void FlatGroups::Reset(size_t kw, size_t aw) {
  key_width = kw;
  acc_width = aw;
  num_groups = 0;
  keys_.clear();
  accs.clear();
  buckets_.assign(16, kEmpty);
  mask_ = buckets_.size() - 1;
  dir_ = {};
  dir_stale_ = false;
}

uint64_t FlatGroups::Hash(const int64_t* k) const {
  // splitmix64 chain from a fixed seed — independent of the depth-salted
  // chain HashAggOp::PartitionOfKey uses, so bucket placement inside the
  // table is uncorrelated with shed-partition placement.
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < key_width; ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(k[i]));
  }
  return h;
}

void FlatGroups::Grow() {
  buckets_.assign(buckets_.size() * 2, kEmpty);
  mask_ = buckets_.size() - 1;
  for (uint32_t g = 0; g < static_cast<uint32_t>(num_groups); ++g) {
    size_t b = static_cast<size_t>(Hash(key(g)) & mask_);
    while (buckets_[b] != kEmpty) b = (b + 1) & mask_;
    buckets_[b] = g;
  }
}

size_t FlatGroups::DirSlot(const int64_t* k) const {
  // Unsigned offsets: a key below lo_c wraps to a huge offset, so one
  // compare per column rejects both sides of the window. The slot of a key
  // outside it is garbage (unsigned wraparound) and is replaced.
  uint64_t slot = 0;
  bool inside = true;
  for (size_t c = 0; c < key_width; ++c) {
    const uint64_t off = static_cast<uint64_t>(k[c]) - dir_lo_[c];
    inside &= off < dir_span_[c];
    slot = slot * dir_span_[c] + off;
  }
  return inside ? static_cast<size_t>(slot) : dir_.size() - 1;
}

void FlatGroups::BuildDirectory() {
  dir_stale_ = false;
  dir_ = {};  // a window that no longer qualifies frees its slots
  const uint64_t cap = std::max<uint64_t>(uint64_t{1} << 16,
                                          2 * static_cast<uint64_t>(num_groups));
  dir_lo_.resize(key_width);
  dir_span_.resize(key_width);
  uint64_t slots = 1;
  for (size_t c = 0; c < key_width; ++c) {
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (size_t g = 0; g < num_groups; ++g) {
      lo = std::min(lo, key(g)[c]);
      hi = std::max(hi, key(g)[c]);
    }
    // Overflow-safe: the unsigned difference of an INT64_MIN..INT64_MAX
    // column is 2^64 − 1, which reaches the cap instead of wrapping the
    // span to 0, and the product is bounded by dividing the cap.
    const uint64_t diff = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (diff >= cap || diff + 1 > cap / slots) return;
    dir_lo_[c] = static_cast<uint64_t>(lo);
    dir_span_[c] = diff + 1;
    slots *= diff + 1;
  }
  dir_.assign(slots + 1, kEmpty);
  for (uint32_t g = 0; g < static_cast<uint32_t>(num_groups); ++g) {
    dir_[DirSlot(key(g))] = g;
  }
}

uint32_t FlatGroups::Upsert(const int64_t* k, bool* inserted) {
  const size_t slot = dir_.empty() ? 0 : DirSlot(k);
  if (!dir_.empty() && dir_[slot] != kEmpty) {
    *inserted = false;
    return dir_[slot];
  }
  if ((num_groups + 1) * 4 >= buckets_.size() * 3) Grow();  // load < 3/4
  size_t b = static_cast<size_t>(Hash(k) & mask_);
  while (buckets_[b] != kEmpty) {
    const uint32_t g = buckets_[b];
    if (std::equal(k, k + key_width, key(g))) {
      *inserted = false;
      return g;
    }
    b = (b + 1) & mask_;
  }
  const uint32_t g = static_cast<uint32_t>(num_groups++);
  buckets_[b] = g;
  keys_.insert(keys_.end(), k, k + key_width);
  accs.resize(accs.size() + acc_width);
  if (!dir_.empty() && slot + 1 < dir_.size()) {
    dir_[slot] = g;
  } else {
    dir_stale_ = true;
  }
  // Doubling checkpoints keep rebuild work amortized O(groups).
  if ((num_groups & (num_groups - 1)) == 0 && dir_stale_) BuildDirectory();
  *inserted = true;
  return g;
}

void FlatGroups::FoldBatch(const int64_t* cells, size_t n, size_t width,
                           const std::vector<AggSpec>& aggs,
                           const std::vector<size_t>& agg_idx) {
  gids_.resize(n);
  uint32_t* gids = gids_.data();
  if (dir_.empty()) {
    std::fill(gids, gids + n, kEmpty);
  } else {
    for (size_t t = 0; t < n; ++t) gids[t] = dir_[DirSlot(cells + t * width)];
  }
  for (size_t t = 0; t < n; ++t) {
    if (gids[t] != kEmpty) continue;
    bool inserted = false;
    gids[t] = Upsert(cells + t * width, &inserted);
    if (inserted) AggInit(aggs, acc(gids[t]));
  }
  AggFoldBatch(aggs, agg_idx, /*partial=*/false, cells, width,
               /*rows=*/nullptr, gids, n, accs.data());
}

int64_t* FlatGroups::UpsertAcc(const int64_t* k,
                               const std::vector<AggSpec>& aggs) {
  bool inserted = false;
  int64_t* a = acc(Upsert(k, &inserted));
  if (inserted) AggInit(aggs, a);
  return a;
}

std::vector<uint32_t> FlatGroups::SortedIds() const {
  std::vector<uint32_t> ids(num_groups);
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    const int64_t* ka = key(a);
    const int64_t* kb = key(b);
    return std::lexicographical_compare(ka, ka + key_width, kb,
                                        kb + key_width);
  });
  return ids;
}

void FlatGroups::CopyRow(uint32_t g, int64_t* out) const {
  std::copy(key(g), key(g) + key_width, out);
  std::copy(acc(g), acc(g) + acc_width, out + key_width);
}

void AggInit(const std::vector<AggSpec>& aggs, int64_t* acc) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    switch (aggs[a].fn) {
      case AggFn::kCount:
      case AggFn::kSum: acc[a] = 0; break;
      case AggFn::kMin: acc[a] = std::numeric_limits<int64_t>::max(); break;
      case AggFn::kMax: acc[a] = std::numeric_limits<int64_t>::min(); break;
    }
  }
}

void AggFoldInput(const std::vector<AggSpec>& aggs,
                  const std::vector<size_t>& agg_idx, const int64_t* row,
                  int64_t* acc) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    switch (aggs[a].fn) {
      case AggFn::kCount: ++acc[a]; break;
      case AggFn::kSum: acc[a] = WrapAdd(acc[a], row[agg_idx[a]]); break;
      case AggFn::kMin: acc[a] = std::min(acc[a], row[agg_idx[a]]); break;
      case AggFn::kMax: acc[a] = std::max(acc[a], row[agg_idx[a]]); break;
    }
  }
}

void AggFoldPartial(const std::vector<AggSpec>& aggs, const int64_t* partial,
                    int64_t* acc) {
  // Partials carry already-aggregated state: counts add (not ++), sums add,
  // min/max fold.
  for (size_t a = 0; a < aggs.size(); ++a) {
    switch (aggs[a].fn) {
      case AggFn::kCount:
      case AggFn::kSum: acc[a] = WrapAdd(acc[a], partial[a]); break;
      case AggFn::kMin: acc[a] = std::min(acc[a], partial[a]); break;
      case AggFn::kMax: acc[a] = std::max(acc[a], partial[a]); break;
    }
  }
}

namespace {
// AggFoldBatch's loops, once per row addressing: `row_of(i)` is the row of
// `cells` that folds into group gids[i].
template <typename RowOf>
void FoldOpMajor(const std::vector<AggSpec>& aggs,
                 const std::vector<size_t>& src, bool partial,
                 const int64_t* cells, size_t stride, RowOf row_of,
                 const uint32_t* gids, size_t n, int64_t* accs) {
  const size_t width = aggs.size();
  for (size_t a = 0; a < width; ++a) {
    int64_t* col = accs + a;
    const int64_t* in = cells + src[a];
    switch (aggs[a].fn) {
      case AggFn::kCount:
        if (!partial) {
          for (size_t i = 0; i < n; ++i) ++col[gids[i] * width];
          break;
        }
        [[fallthrough]];
      case AggFn::kSum:
        for (size_t i = 0; i < n; ++i) {
          int64_t& c = col[gids[i] * width];
          c = WrapAdd(c, in[row_of(i) * stride]);
        }
        break;
      case AggFn::kMin:
        for (size_t i = 0; i < n; ++i) {
          int64_t& c = col[gids[i] * width];
          c = std::min(c, in[row_of(i) * stride]);
        }
        break;
      case AggFn::kMax:
        for (size_t i = 0; i < n; ++i) {
          int64_t& c = col[gids[i] * width];
          c = std::max(c, in[row_of(i) * stride]);
        }
        break;
    }
  }
}
}  // namespace

void AggFoldBatch(const std::vector<AggSpec>& aggs,
                  const std::vector<size_t>& src, bool partial,
                  const int64_t* cells, size_t stride, const uint32_t* rows,
                  const uint32_t* gids, size_t n, int64_t* accs) {
  if (rows == nullptr) {
    FoldOpMajor(aggs, src, partial, cells, stride,
                [](size_t i) { return i; }, gids, n, accs);
  } else {
    FoldOpMajor(aggs, src, partial, cells, stride,
                [rows](size_t i) { return size_t{rows[i]}; }, gids, n, accs);
  }
}

// ---- HashAggOp -------------------------------------------------------------

HashAggOp::HashAggOp(OperatorPtr child, std::vector<std::string> group_slots,
                     std::vector<AggSpec> aggregates)
    : child_(std::move(child)), group_slots_(std::move(group_slots)),
      aggs_(std::move(aggregates)) {
  slots_ = group_slots_;
  for (const auto& a : aggs_) slots_.push_back(a.output_name);
}

size_t HashAggOp::PartitionOfKey(const int64_t* key, size_t n) const {
  uint64_t h = Mix64(static_cast<uint64_t>(depth_) + 1);
  for (size_t i = 0; i < n; ++i) h = Mix64(h ^ static_cast<uint64_t>(key[i]));
  return static_cast<size_t>(h % kFanOut);
}

void HashAggOp::FlushDeferred(const RowBatch& in, bool partial) {
  if (def_rows_.empty()) return;
  AggFoldBatch(aggs_, partial ? partial_idx_ : agg_idx_, partial,
               in.data().data(), in.num_cols(), def_rows_.data(),
               def_grps_.data(), def_rows_.size(), flat_.accs.data());
  def_rows_.clear();
  def_grps_.clear();
}

Status HashAggOp::AbsorbBatch(const RowBatch& in, bool partial) {
  const size_t kw = group_idx_.size();
  key_scratch_.resize(kw);
  def_rows_.clear();
  def_grps_.clear();
  for (size_t r = 0; r < in.num_rows(); ++r) {
    const int64_t* row = in.row(r);
    for (size_t g = 0; g < kw; ++g) {
      key_scratch_[g] = partial ? row[g] : row[group_idx_[g]];
    }
    bool inserted = false;
    const uint32_t gid = flat_.Upsert(key_scratch_.data(), &inserted);
    if (!inserted) {
      // Existing group: defer; the op-major flush absorbs it later. Group
      // ids stay stable across Upsert growth, so the recorded id is safe.
      def_rows_.push_back(static_cast<uint32_t>(r));
      def_grps_.push_back(gid);
      continue;
    }
    // New group: flush the deferred tail first, so if the capacity check
    // below sheds the table, every earlier row of this batch has already
    // been absorbed — exactly the state a row-at-a-time fold would shed.
    FlushDeferred(in, partial);
    int64_t* acc = flat_.acc(gid);
    AggInit(aggs_, acc);
    if (partial) {
      AggFoldPartial(aggs_, row + kw, acc);
    } else {
      AggFoldInput(aggs_, agg_idx_, row, acc);
    }
    RQP_RETURN_IF_ERROR(EnsureGroupCapacity());
  }
  FlushDeferred(in, partial);
  return Status::OK();
}

Status HashAggOp::EnsureGroupCapacity() {
  while (true) {
    const int64_t needed = std::max<int64_t>(
        1, (static_cast<int64_t>(flat_.num_groups) + kRowsPerPage - 1) /
               kRowsPerPage);
    if (needed <= groups_.pages()) return Status::OK();
    if (groups_.TryGrow(1)) continue;
    if (depth_ < kMaxRecursion && !slots_.empty() &&
        flat_.num_groups > 1) {
      RQP_RETURN_IF_ERROR(ShedGroups());
      continue;
    }
    // Out of levels (or nothing sheddable): over-commit rather than fail —
    // completion at degraded speed beats an error.
    groups_.Grow(1);
  }
}

Status HashAggOp::ShedGroups() {
  if (shed_files_.empty()) {
    shed_files_.resize(kFanOut);
  }
  const size_t kw = group_idx_.size();
  std::vector<int64_t> row(slots_.size());
  // Sorted-id walk: shed files hold their rows in key order, independent
  // of the probe-table layout.
  for (uint32_t g : flat_.SortedIds()) {
    auto& file = shed_files_[PartitionOfKey(flat_.key(g), kw)];
    if (file == nullptr) {
      auto created = ctx_->spill()->Create(slots_.size());
      if (!created.ok()) return created.status();
      file = std::move(created).value();
      ++ctx_->counters().spill_partitions;
    }
    flat_.CopyRow(g, row.data());
    RQP_RETURN_IF_ERROR(file->AppendRow(row.data()));
  }
  flat_.Reset(kw, aggs_.size());
  groups_.Clear();
  shed_this_level_ = true;
  return Status::OK();
}

Status HashAggOp::SealShedFiles() {
  // LIFO pending order keeps the set of live files bounded by the fan-out
  // times the recursion depth.
  for (auto& file : shed_files_) {
    if (file == nullptr) continue;
    RQP_RETURN_IF_ERROR(file->FinishWrite());
    pending_.push_back(PendingPartition{std::move(file), depth_ + 1});
  }
  shed_files_.clear();
  return Status::OK();
}

Status HashAggOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  groups_ = MemoryGrant(ctx->memory());
  ResetCount();
  emit_order_.clear();
  emit_pos_ = 0;
  emitting_ = false;
  depth_ = 0;
  shed_this_level_ = false;
  shed_files_.clear();
  pending_.clear();
  group_idx_.clear();
  agg_idx_.clear();
  const auto& in_slots = child_->output_slots();
  for (const auto& g : group_slots_) {
    const int i = FindSlot(in_slots, g);
    if (i < 0) return Status::InvalidArgument("group slot not found: " + g);
    group_idx_.push_back(static_cast<size_t>(i));
  }
  for (const auto& a : aggs_) {
    if (a.fn == AggFn::kCount) {
      agg_idx_.push_back(0);  // unused
      continue;
    }
    const int i = FindSlot(in_slots, a.slot);
    if (i < 0) return Status::InvalidArgument("agg slot not found: " + a.slot);
    agg_idx_.push_back(static_cast<size_t>(i));
  }
  // A spilled partial row: the group keys, then one cell per aggregate.
  partial_idx_.resize(aggs_.size());
  std::iota(partial_idx_.begin(), partial_idx_.end(), group_idx_.size());

  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  flat_.Reset(group_idx_.size(), aggs_.size());
  while (true) {
    RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
    RowBatch in;
    RQP_RETURN_IF_ERROR(child_->Next(&in));
    if (in.empty()) break;
    // Poll at batch start (the phase boundary) before absorbing rows, so a
    // capacity drop charged during the child's Next is shed as a revocation
    // rather than resolved incidentally by the grow path.
    RQP_RETURN_IF_ERROR(Shed());
    // One hash-op flush per input batch (DESIGN.md §10), then the batched
    // flat-table kernel.
    ctx->ChargeHashOps(static_cast<int64_t>(in.num_rows()));
    RQP_RETURN_IF_ERROR(AbsorbBatch(in, /*partial=*/false));
  }
  child_->Close();

  if (shed_this_level_ || !shed_files_.empty()) {
    // Spilled: the resident remainder may share keys with shed partitions,
    // so it must go through the partition merge too.
    if (flat_.num_groups > 0) RQP_RETURN_IF_ERROR(ShedGroups());
    RQP_RETURN_IF_ERROR(SealShedFiles());
    return Status::OK();  // Next() drives ProcessPending()
  }

  // Global aggregation over an empty input still yields one row.
  if (group_slots_.empty() && flat_.num_groups == 0) {
    key_scratch_.clear();
    flat_.UpsertAcc(key_scratch_.data(), aggs_);
  }
  emit_order_ = flat_.SortedIds();
  emit_pos_ = 0;
  emitting_ = true;
  return Status::OK();
}

Status HashAggOp::ProcessPending() {
  while (!pending_.empty()) {
    PendingPartition task = std::move(pending_.back());
    pending_.pop_back();
    depth_ = task.depth;
    shed_this_level_ = false;
    ctx_->counters().spill_recursion_depth = std::max<int64_t>(
        ctx_->counters().spill_recursion_depth, depth_);
    RQP_RETURN_IF_ERROR(task.file->Rewind());
    while (true) {
      RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
      RowBatch in;
      RQP_RETURN_IF_ERROR(task.file->ReadBatch(&in));
      if (in.empty()) break;
      RQP_RETURN_IF_ERROR(Shed());
      ctx_->ChargeHashOps(static_cast<int64_t>(in.num_rows()));
      RQP_RETURN_IF_ERROR(AbsorbBatch(in, /*partial=*/true));
    }
    task.file.reset();  // consumed — the temp file is deleted
    if (shed_this_level_) {
      // This partition overflowed again: its state is now split across
      // depth+1 partitions; finish them and recurse (LIFO → depth first).
      if (flat_.num_groups > 0) RQP_RETURN_IF_ERROR(ShedGroups());
      RQP_RETURN_IF_ERROR(SealShedFiles());
      continue;
    }
    if (flat_.num_groups == 0) continue;
    emit_order_ = flat_.SortedIds();
    emit_pos_ = 0;
    emitting_ = true;
    return Status::OK();
  }
  emitting_ = false;
  return Status::OK();
}

Status HashAggOp::Next(RowBatch* out) {
  out->Reset(slots_.size());
  std::vector<int64_t> row(slots_.size());
  while (!out->full()) {
    if (emitting_ && emit_pos_ < emit_order_.size()) {
      flat_.CopyRow(emit_order_[emit_pos_++], row.data());
      out->AppendRow(row);
      continue;
    }
    if (emitting_) {
      // Current partition fully emitted; recycle its memory.
      emitting_ = false;
      flat_.Reset(group_idx_.size(), aggs_.size());
      emit_order_.clear();
      emit_pos_ = 0;
      groups_.Clear();
    }
    if (pending_.empty()) break;
    RQP_RETURN_IF_ERROR(ProcessPending());
    if (!emitting_) break;
  }
  ctx_->ChargeRowCpu(static_cast<int64_t>(out->num_rows()));
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

Status HashAggOp::Shed() {
  if (emitting_ || flat_.num_groups <= 1 || groups_.pages() <= 1 ||
      depth_ >= kMaxRecursion || slots_.empty() ||
      ctx_->memory()->deficit() == 0) {
    return Status::OK();
  }
  RQP_RETURN_IF_ERROR(ShedGroups());  // returns the group state's pages
  ++ctx_->counters().memory_revocations;
  return Status::OK();
}

void HashAggOp::Close() {
  groups_.Clear();
  flat_.Reset(0, 0);
  emit_order_.clear();
  emit_pos_ = 0;
  shed_files_.clear();
  pending_.clear();
}

// ---- CheckOp ---------------------------------------------------------------

CheckOp::CheckOp(OperatorPtr child, int64_t estimated_rows, int64_t valid_lo,
                 int64_t valid_hi)
    : child_(std::move(child)), estimated_rows_(estimated_rows),
      valid_lo_(valid_lo), valid_hi_(valid_hi) {}

Status CheckOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  ResetCount();
  next_ = 0;
  buffer_ = std::make_shared<std::vector<RowBatch>>();
  RQP_RETURN_IF_ERROR(child_->Open(ctx));
  int64_t actual = 0;
  while (true) {
    RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());
    RowBatch batch;
    RQP_RETURN_IF_ERROR(child_->Next(&batch));
    if (batch.empty()) break;
    actual += static_cast<int64_t>(batch.num_rows());
    buffer_->push_back(std::move(batch));
  }
  child_->Close();
  // Materialization I/O: the intermediate is written once (and re-read by
  // whoever consumes it — charged on replay below).
  const int64_t pages = (actual + kRowsPerPage - 1) / kRowsPerPage;
  ctx->ChargeSpill(pages, 0);

  if (actual < valid_lo_ || actual > valid_hi_) {
    ExecContext::ReoptRequest req;
    req.plan_node_id = plan_node_id();
    req.estimated_rows = estimated_rows_;
    req.actual_rows = actual;
    req.slots = child_->output_slots();
    req.materialized = buffer_;
    ctx->RaiseReopt(std::move(req));
    return Status::FailedPrecondition(
        "POP checkpoint violated: actual cardinality outside validity range");
  }
  return Status::OK();
}

Status CheckOp::Next(RowBatch* out) {
  // A CHECK that passed is this buffer's only reader (one that fired never
  // gets here), so each batch moves out instead of being copied.
  if (next_ < buffer_->size()) {
    *out = std::move((*buffer_)[next_++]);
    ctx_->ChargeSeqPages(
        (static_cast<int64_t>(out->num_rows()) + kRowsPerPage - 1) /
        kRowsPerPage);
  } else {
    out->Reset(output_slots().size());
  }
  CountProduced(ctx_, *out, /*eof=*/out->empty());
  return Status::OK();
}

void CheckOp::Close() {}

}  // namespace rqp
