#include "exec/join_ops.h"

#include <algorithm>
#include <limits>

#include "exec/scan_ops.h"
#include "expr/simd.h"

namespace rqp {
namespace {

std::vector<std::string> ConcatSlots(const std::vector<std::string>& a,
                                     const std::vector<std::string>& b) {
  std::vector<std::string> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

void JoinHashTable::Build(const RowBuffer& rows, size_t key_idx) {
  const size_t n = rows.num_rows();
  size_t buckets = 1;
  while (buckets < n) buckets <<= 1;  // load factor <= 1
  // Floor the bucket count for sparse non-empty tables: with one bucket per
  // row a 2-row table sends half of all probes into a chain walk. Extra
  // buckets only respread keys — match results and order are bucket-count
  // independent — but they let the fused probe's head-fetch pass reject misses
  // without touching a chain. 64 empty heads cost 256 bytes.
  if (n > 0 && buckets < kMinBuckets) buckets = kMinBuckets;
  heads.assign(buckets, kEmpty);
  nexts.resize(n);
  bucket_mask = static_cast<uint64_t>(buckets - 1);
  // Prepend in reverse row order so each chain reads forward in build-row
  // order — the defined match order the probe relies on.
  for (size_t i = n; i-- > 0;) {
    const size_t b = BucketOf(rows.row(i)[key_idx]);
    nexts[i] = heads[b];
    heads[b] = static_cast<uint32_t>(i);
  }
}

// ---- HashJoinOp ------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr probe_child, OperatorPtr build_child,
                       std::string probe_key_slot, std::string build_key_slot)
    : probe_child_(std::move(probe_child)),
      build_child_(std::move(build_child)),
      probe_key_(std::move(probe_key_slot)),
      build_key_(std::move(build_key_slot)) {
  slots_ = ConcatSlots(probe_child_->output_slots(),
                       build_child_->output_slots());
}

size_t HashJoinOp::PartitionOf(int64_t key) const {
  // splitmix64-style finalizer salted by recursion depth, so each level
  // splits keys independently — and independently of the JoinHashTable
  // bucket function (murmur3 fmix64) used inside a partition.
  uint64_t x = static_cast<uint64_t>(key) +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth_ + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x & (kFanOut - 1));
}

Status HashJoinOp::SpillPartition(size_t part_idx) {
  Partition& part = parts_[part_idx];
  if (part.spilled) return Status::OK();
  if (part.build_spill == nullptr) {
    auto file = ctx()->spill()->Create(build_cols_);
    if (!file.ok()) return file.status();
    part.build_spill = std::move(file).value();
    ++ctx()->counters().spill_partitions;
  }
  for (size_t r = 0; r < part.rows.num_rows(); ++r) {
    RQP_RETURN_IF_ERROR(part.build_spill->AppendRow(part.rows.row(r)));
  }
  if (depth_ == 0) {
    build_rows_spilled_ += static_cast<int64_t>(part.rows.num_rows());
  }
  resident_.Shrink(part.charged_pages);
  part.charged_pages = 0;
  part.rows.data.clear();
  part.table.Build(part.rows, build_key_idx_);
  part.same.clear();
  part.spilled = true;
  dense_dir_.clear();
  return Status::OK();
}

int HashJoinOp::LargestResident() const {
  int victim = -1;
  int64_t victim_pages = 0;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].spilled && parts_[i].charged_pages > victim_pages) {
      victim_pages = parts_[i].charged_pages;
      victim = static_cast<int>(i);
    }
  }
  return victim;
}

Status HashJoinOp::EnsurePartitionPage(size_t part_idx) {
  while (true) {
    Partition& part = parts_[part_idx];
    if (part.spilled) return Status::OK();  // evicted below; rows on disk
    if (resident_.TryGrow(1)) {
      ++part.charged_pages;
      return Status::OK();
    }
    // Memory exhausted: evict the largest resident partition (ties broken
    // by lowest index, keeping runs deterministic).
    const int victim = LargestResident();
    if (victim < 0) {
      // Nothing left to evict: take the 1-page progress minimum (the broker
      // over-commits rather than deadlocks).
      resident_.Grow(1);
      ++part.charged_pages;
      return Status::OK();
    }
    RQP_RETURN_IF_ERROR(SpillPartition(static_cast<size_t>(victim)));
    if (static_cast<size_t>(victim) == part_idx) return Status::OK();
  }
}

Status HashJoinOp::PartitionBuildRow(const int64_t* row) {
  const size_t p = PartitionOf(row[build_key_idx_]);
  Partition& part = parts_[p];
  if (part.spilled) {
    if (depth_ == 0) ++build_rows_spilled_;
    return part.build_spill->AppendRow(row);
  }
  part.rows.Append(row);
  if (part.rows.num_pages() > part.charged_pages) {
    RQP_RETURN_IF_ERROR(EnsurePartitionPage(p));
  }
  return Status::OK();
}

void HashJoinOp::BuildTables() {
  // Empty and spilled partitions get a 1-bucket table whose single head is
  // kEmpty: the hashed kernel's head-fetch pass can then load every key's
  // bucket unconditionally instead of branching on emptiness.
  for (Partition& part : parts_) part.table.Build(part.rows, build_key_idx_);
  dense_dir_.clear();
  if (!build_resident()) return;
  uint64_t rows = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (const Partition& part : parts_) {
    for (size_t r = 0; r < part.rows.num_rows(); ++r) {
      lo = std::min(lo, part.rows.row(r)[build_key_idx_]);
      hi = std::max(hi, part.rows.row(r)[build_key_idx_]);
    }
    rows += part.rows.num_rows();
  }
  // Unsigned span: an INT64_MIN..INT64_MAX build gives 2^64 - 1, not a
  // signed overflow, and stays hashed.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (rows == 0 || span >= kDenseSpanFactor * rows) return;
  dense_min_ = lo;
  // span + 1 key slots plus the always-empty clamp slot.
  dense_dir_.assign(span + 2, kDenseEmpty);
  for (size_t p = 0; p < parts_.size(); ++p) {
    Partition& part = parts_[p];
    part.same.resize(part.rows.num_rows());
    // Prepend in reverse row order so each key's chain reads forward in
    // build-row order. Equal keys share a partition, so a non-empty slot
    // always points into this one; an empty slot's low half is kEmpty.
    for (size_t i = part.rows.num_rows(); i-- > 0;) {
      uint64_t& slot =
          dense_dir_[static_cast<uint64_t>(part.rows.row(i)[build_key_idx_]) -
                     static_cast<uint64_t>(lo)];
      part.same[i] = static_cast<uint32_t>(slot);
      slot = (static_cast<uint64_t>(p) << 32) | i;
    }
  }
}

template <typename NextBatch>
Status HashJoinOp::RunBuild(NextBatch next) {
  parts_ = std::vector<Partition>(kFanOut);
  for (Partition& part : parts_) part.rows.num_cols = build_cols_;
  RQP_RETURN_IF_ERROR(DrainBatches<RowBatch>(
      ctx(), next, [this](const RowBatch& batch) {
        // Poll at batch start (the phase boundary) before absorbing rows, so
        // a capacity drop charged during the input's Next is shed as a
        // revocation rather than resolved incidentally by the eviction path.
        RQP_RETURN_IF_ERROR(Shed());
        ctx()->ChargeHashOps(static_cast<int64_t>(batch.num_rows()));
        if (depth_ == 0) {
          build_rows_total_ += static_cast<int64_t>(batch.num_rows());
        }
        for (size_t r = 0; r < batch.num_rows(); ++r) {
          RQP_RETURN_IF_ERROR(PartitionBuildRow(batch.row(r)));
        }
        return Status::OK();
      }));
  BuildTables();
  // One charge per partition, in partition order; spilled and empty ones
  // charge nothing.
  for (const Partition& part : parts_) {
    ctx()->ChargeHashOps(static_cast<int64_t>(
        static_cast<double>(part.rows.num_rows()) *
        ctx()->cost_model().hash_build_factor));
  }
  return Status::OK();
}

Status HashJoinOp::FetchProbeBatch(bool* eof) {
  size_t n = 0;
  if (probe_file_ == nullptr && scan_probe_ != nullptr) {
    // Depth-0 view fetch: pull the scan's column views and gather only the
    // key column. Payload columns are never touched here — emission reads
    // them by absolute row id, and only spill routing gathers a full row
    // (on demand, counted as materialized).
    RQP_RETURN_IF_ERROR(scan_probe_->NextColumnar(&probe_col_));
    probe_via_views_ = true;
    probe_batch_.Clear();
    n = probe_col_.num_rows();
    *eof = n == 0;
    if (n == 0) return Status::OK();
    ctx()->counters().transposes_elided += static_cast<int64_t>(n);
    probe_keys_.resize(n);
    const int64_t* key_base = probe_col_.base(probe_key_idx_);
    if (probe_col_.has_selection()) {
      const uint32_t* sel = probe_col_.sel().data();
      for (size_t i = 0; i < n; ++i) probe_keys_[i] = key_base[sel[i]];
    } else {
      const int64_t* src = probe_col_.DensePtr(probe_key_idx_);
      std::copy(src, src + n, probe_keys_.begin());
    }
  } else {
    // Row probe input: any other child or a recursive task's spill file.
    if (probe_file_ == nullptr) {
      RQP_RETURN_IF_ERROR(probe_child_->Next(&probe_batch_));
    } else {
      RQP_RETURN_IF_ERROR(probe_file_->ReadBatch(&probe_batch_));
    }
    probe_via_views_ = false;
    n = probe_batch_.num_rows();
    *eof = n == 0;
    if (n == 0) return Status::OK();
    probe_keys_.resize(n);
    const int64_t* key_col = probe_batch_.data().data() + probe_key_idx_;
    const size_t stride = probe_batch_.num_cols();
    for (size_t i = 0; i < n; ++i) probe_keys_[i] = key_col[i * stride];
  }
  // Batch boundary = phase boundary: no live match references, safe to shed.
  RQP_RETURN_IF_ERROR(Shed());
  // Fused whole-batch probe: charge every probe in one flush and gather the
  // matches into probe_.pairs, so emission is a bare cursor over
  // precomputed (probe row, build row) pairs. A spilled partition's table
  // is empty, so its rows match nothing here and are routed to its probe
  // file in row order.
  ctx()->ChargeHashOps(static_cast<int64_t>(n));
  fused_next_ = 0;
  ProbeResident(probe_keys_.data(), n, ctx()->simd(), &probe_);
  if (build_resident()) return Status::OK();
  row_scratch_.resize(probe_cols_);
  for (size_t i = 0; i < n; ++i) {
    Partition& part = parts_[probe_.parts[i]];
    if (!part.spilled) continue;
    if (part.probe_spill == nullptr) {
      auto file = ctx()->spill()->Create(probe_cols_);
      if (!file.ok()) return file.status();
      part.probe_spill = std::move(file).value();
    }
    const int64_t* row = row_scratch_.data();
    if (probe_via_views_) {
      probe_col_.GatherRow(i, row_scratch_.data());
      ctx()->counters().rows_materialized += 1;
    } else {
      row = probe_batch_.row(i);
    }
    RQP_RETURN_IF_ERROR(part.probe_spill->AppendRow(row));
  }
  return Status::OK();
}

bool HashJoinOp::build_resident() const {
  return std::none_of(parts_.begin(), parts_.end(),
                      [](const Partition& p) { return p.spilled; });
}

void HashJoinOp::ProbeResident(const int64_t* keys, size_t n, SimdLevel simd,
                               ProbeScratch* s) const {
  // A two-pass probe. Keys arrive in random order, so a per-row "is there a
  // chain" branch never predicts: pass 1 fetches every key's chain head
  // unconditionally and compacts the keys with non-empty chains by
  // branch-free index append; pass 2 walks chains only for those
  // candidates.
  s->parts.resize(n);
  s->cand_rows.resize(n);
  s->cand_heads.resize(n);
  auto& pairs = s->pairs;
  size_t cands = 0;
  size_t k = 0;
  if (dense_probe()) {
    // Dense kernel: one unsigned subtract, one clamp and one directory
    // load per key. A slot holds only rows of its own key, so no chain
    // visit compares keys, and every candidate's chain is non-empty.
    const uint64_t* dir = dense_dir_.data();
    const uint64_t base = static_cast<uint64_t>(dense_min_);
    const uint64_t clamp = dense_dir_.size() - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t e =
          dir[std::min(static_cast<uint64_t>(keys[i]) - base, clamp)];
      s->parts[i] = static_cast<uint32_t>(e >> 32);
      s->cand_rows[cands] = static_cast<uint32_t>(i);
      s->cand_heads[cands] = static_cast<uint32_t>(e);
      cands += static_cast<uint32_t>(e) != JoinHashTable::kEmpty;
    }
    if (pairs.size() < cands) pairs.resize(cands);
    for (size_t c = 0; c < cands; ++c) {
      const uint32_t i = s->cand_rows[c];
      const uint32_t* same = parts_[s->parts[i]].same.data();
      uint32_t r = s->cand_heads[c];
      do {
        if (k == pairs.size()) pairs.resize(2 * k + 64);
        pairs[k++] = {i, r};
        r = same[r];
      } while (r != JoinHashTable::kEmpty);
    }
    pairs.resize(k);
    return;
  }
  // Hashed kernel. Pass 1 fuses the partition precompute with the
  // bucket-head fetch (every partition has a built table; an empty or
  // spilled one's single head is kEmpty). Whole-batch hash mix; the SIMD
  // kernel is integer-exact, so bucket choice, chain walks, and match order
  // are bit-identical at every level.
  s->mixes.resize(n);
  SimdMixBatch(keys, n, s->mixes.data(), simd);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = static_cast<uint32_t>(PartitionOf(keys[i]));
    s->parts[i] = p;
    const JoinHashTable& t = parts_[p].table;
    const uint32_t head = t.heads[s->mixes[i] & t.bucket_mask];
    s->cand_rows[cands] = static_cast<uint32_t>(i);
    s->cand_heads[cands] = head;
    cands += head != JoinHashTable::kEmpty;
  }
  // Pass 2: buckets mix keys, so each chain visit emits with an arithmetic
  // k-bump on the key compare instead of a conditional append.
  if (pairs.size() < cands) pairs.resize(cands);
  for (size_t c = 0; c < cands; ++c) {
    const uint32_t i = s->cand_rows[c];
    const int64_t key = keys[i];
    const Partition& part = parts_[s->parts[i]];
    const uint32_t* nexts = part.table.nexts.data();
    const int64_t* rows = part.rows.data.data();
    const size_t width = part.rows.num_cols;
    for (uint32_t r = s->cand_heads[c]; r != JoinHashTable::kEmpty;
         r = nexts[r]) {
      if (k == pairs.size()) pairs.resize(2 * k + 64);
      pairs[k] = {i, r};
      k += rows[r * width + build_key_idx_] == key;
    }
  }
  pairs.resize(k);
}

Status HashJoinOp::FinishProbePhase() {
  if (depth_ == 0) probe_child_->Close();
  for (Partition& part : parts_) {
    if (part.spilled) {
      RQP_RETURN_IF_ERROR(part.build_spill->FinishWrite());
      if (part.probe_spill != nullptr) {
        RQP_RETURN_IF_ERROR(part.probe_spill->FinishWrite());
        if (part.build_spill->rows_written() > 0 &&
            part.probe_spill->rows_written() > 0) {
          tasks_.push_back(PendingTask{std::move(part.build_spill),
                                       std::move(part.probe_spill),
                                       depth_ + 1});
        }
      }
      // Pairs with an empty side produce no matches; dropping the
      // SpillFiles removes their temp files immediately.
    }
  }
  resident_.Clear();
  parts_.clear();
  dense_dir_.clear();
  probe_file_.reset();
  phase_ = Phase::kTaskSetup;
  return Status::OK();
}

Status HashJoinOp::SetupNextTask() {
  if (tasks_.empty()) {
    phase_ = Phase::kDone;
    return Status::OK();
  }
  PendingTask task = std::move(tasks_.back());
  tasks_.pop_back();
  depth_ = task.depth;
  ctx()->counters().spill_recursion_depth = std::max(
      ctx()->counters().spill_recursion_depth, static_cast<int64_t>(depth_));
  probe_file_ = std::move(task.probe);
  RQP_RETURN_IF_ERROR(probe_file_->Rewind());
  probe_batch_.Clear();
  probe_via_views_ = false;
  probe_.pairs.clear();
  fused_next_ = 0;
  if (depth_ >= kMaxRecursion) {
    // Duplicate-heavy keys defeat re-partitioning; chunked hash probing
    // guarantees progress at any grant.
    fb_build_ = std::move(task.build);
    RQP_RETURN_IF_ERROR(fb_build_->Rewind());
    phase_ = Phase::kChunkLoad;
  } else {
    RQP_RETURN_IF_ERROR(task.build->Rewind());
    RQP_RETURN_IF_ERROR(RunBuild(
        [&task](RowBatch* batch) { return task.build->ReadBatch(batch); }));
    // task.build is destroyed here, removing the re-partitioned temp file.
    phase_ = Phase::kProbe;
  }
  return Status::OK();
}

Status HashJoinOp::LoadNextChunk() {
  // Chunk boundary = phase boundary: renegotiate the grant so capacity
  // changes (grow or shrink) take effect on the next chunk. The chunk takes
  // everything available, or the 1-page floor.
  chunk_grant_.Clear();
  chunk_grant_.Grow(std::numeric_limits<int64_t>::max());
  // The chunk is loaded as a resident level. Its pages are chunk_grant_'s,
  // so its partitions hold no charged_pages and Shed frees nothing while it
  // is probed.
  parts_ = std::vector<Partition>(kFanOut);
  for (Partition& part : parts_) part.rows.num_cols = build_cols_;
  const int64_t max_rows = chunk_grant_.pages() * kRowsPerPage;
  int64_t rows = 0;
  // Not DrainBatches: the loop also ends at the chunk's row bound, where a
  // guarded loop would run one more guardrail check.
  while (rows < max_rows) {
    RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
    RowBatch batch;
    RQP_RETURN_IF_ERROR(fb_build_->ReadBatch(&batch, max_rows - rows));
    if (batch.empty()) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const int64_t* row = batch.row(r);
      parts_[PartitionOf(row[build_key_idx_])].rows.Append(row);
    }
    rows += static_cast<int64_t>(batch.num_rows());
  }
  if (rows == 0) {
    // Build file exhausted: this fallback task is complete.
    chunk_grant_.Clear();
    parts_.clear();
    dense_dir_.clear();
    fb_build_.reset();
    probe_file_.reset();
    phase_ = Phase::kTaskSetup;
    return Status::OK();
  }
  BuildTables();
  // One build charge for the whole chunk.
  ctx()->ChargeHashOps(static_cast<int64_t>(
      static_cast<double>(rows) * ctx()->cost_model().hash_build_factor));
  // One full probe pass per chunk; Rewind makes the re-read pay again.
  RQP_RETURN_IF_ERROR(probe_file_->Rewind());
  probe_batch_.Clear();
  probe_.pairs.clear();
  fused_next_ = 0;
  phase_ = Phase::kProbe;
  return Status::OK();
}

Status HashJoinOp::Shed() {
  const int64_t deficit = ctx()->memory()->deficit();
  int64_t released = 0;
  Status s;
  while (s.ok() && released < deficit) {
    const int victim = LargestResident();
    if (victim < 0) break;
    released += parts_[static_cast<size_t>(victim)].charged_pages;
    s = SpillPartition(static_cast<size_t>(victim));
  }
  if (released > 0) ++ctx()->counters().memory_revocations;
  return s;
}

Status HashJoinOp::OpenBuild(ExecContext* ctx) {
  Bind(ctx);
  depth_ = 0;
  parts_.clear();
  dense_dir_.clear();
  tasks_.clear();
  probe_file_.reset();
  fb_build_.reset();
  probe_batch_.Clear();
  probe_.pairs.clear();
  fused_next_ = 0;
  probe_via_views_ = false;
  probe_col_.Reset(0);
  spill_fraction_ = 0;
  build_rows_total_ = 0;
  build_rows_spilled_ = 0;

  const int pk = FindSlot(probe_child_->output_slots(), probe_key_);
  const int bk = FindSlot(build_child_->output_slots(), build_key_);
  if (pk < 0 || bk < 0) {
    return Status::InvalidArgument("hash join key slot not found: " +
                                   (pk < 0 ? probe_key_ : build_key_));
  }
  probe_key_idx_ = static_cast<size_t>(pk);
  build_key_idx_ = static_cast<size_t>(bk);
  probe_cols_ = probe_child_->output_slots().size();
  build_cols_ = build_child_->output_slots().size();

  base_ = MemoryGrant(ctx->memory());
  base_.Grow(1);
  resident_ = MemoryGrant(ctx->memory());
  chunk_grant_ = MemoryGrant(ctx->memory());

  RQP_RETURN_IF_ERROR(build_child_->Open(ctx));
  RQP_RETURN_IF_ERROR(RunBuild(
      [this](RowBatch* batch) { return build_child_->Next(batch); }));
  build_child_->Close();
  spill_fraction_ =
      build_rows_total_ == 0
          ? 0.0
          : static_cast<double>(build_rows_spilled_) /
                static_cast<double>(build_rows_total_);
  build_ready_ = true;
  return Status::OK();
}

Status HashJoinOp::DoOpen(ExecContext* ctx) {
  // A GatherOp that degrades to this serial tree has already run the build;
  // the probe then starts against exactly the partitions it left.
  if (!build_ready_) RQP_RETURN_IF_ERROR(OpenBuild(ctx));
  build_ready_ = false;
  RQP_RETURN_IF_ERROR(probe_child_->Open(ctx));
  scan_probe_ = dynamic_cast<TableScanOp*>(probe_child_.get());
  phase_ = Phase::kProbe;
  return Status::OK();
}

// Each call writes the pairs that fit in `out`: never past kBatchRows, so
// batches pack to kBatchRows across fetches and phase changes alike. View
// probe rows are written column-at-a-time through the chunk's absolute row
// ids (computed once); row probe rows are copied whole. Then each build row
// is copied beside its probe row.
void HashJoinOp::EmitPairs(RowBatch* out) {
  const size_t take = std::min(probe_.pairs.size() - fused_next_,
                               out->capacity_remaining());
  const auto* pairs = probe_.pairs.data() + fused_next_;
  const size_t width = probe_cols_ + build_cols_;
  std::vector<int64_t>& data = out->mutable_data();
  const size_t at = data.size();
  data.resize(at + take * width);
  int64_t* dst = data.data() + at;
  if (probe_via_views_) {
    row_ids_.resize(take);
    if (probe_col_.has_selection()) {
      const uint32_t* sel = probe_col_.sel().data();
      for (size_t j = 0; j < take; ++j) row_ids_[j] = sel[pairs[j].first];
    } else {
      const uint32_t begin = static_cast<uint32_t>(probe_col_.phys_begin());
      for (size_t j = 0; j < take; ++j) row_ids_[j] = begin + pairs[j].first;
    }
    probe_col_.WriteRowIds(row_ids_.data(), take, dst, width);
    ctx()->counters().rows_materialized += static_cast<int64_t>(take);
  } else {
    for (size_t j = 0; j < take; ++j) {
      const int64_t* prow = probe_batch_.row(pairs[j].first);
      std::copy(prow, prow + probe_cols_, dst + j * width);
    }
  }
  for (size_t j = 0; j < take; ++j) {
    const int64_t* brow =
        BuildRow(probe_.parts[pairs[j].first], pairs[j].second);
    std::copy(brow, brow + build_cols_, dst + j * width + probe_cols_);
  }
  fused_next_ += take;
}

Status HashJoinOp::DoNext(RowBatch* out) {
  RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
  out->Reset(slots_.size());
  // Everything per-row was precomputed at fetch time; emission walks a
  // cursor over (probe row, build row) pairs, resumable when the output
  // batch fills mid-batch.
  while (!out->full() && phase_ != Phase::kDone) {
    switch (phase_) {
      case Phase::kProbe:
        if (fused_next_ >= probe_.pairs.size()) {
          bool eof = false;
          RQP_RETURN_IF_ERROR(FetchProbeBatch(&eof));
          // A fallback chunk's pass ends in the next chunk; a level's probe
          // in its spilled partition pairs.
          if (eof && fb_build_ != nullptr) {
            phase_ = Phase::kChunkLoad;
          } else if (eof) {
            RQP_RETURN_IF_ERROR(FinishProbePhase());
          }
          continue;
        }
        EmitPairs(out);
        continue;
      case Phase::kTaskSetup:
        RQP_RETURN_IF_ERROR(SetupNextTask());
        continue;
      case Phase::kChunkLoad:
        RQP_RETURN_IF_ERROR(LoadNextChunk());
        continue;
      case Phase::kDone:
        break;
    }
  }
  return Status::OK();
}

void HashJoinOp::Close() {
  base_.Clear();
  resident_.Clear();
  chunk_grant_.Clear();
  build_ready_ = false;
  parts_.clear();
  dense_dir_.clear();
  tasks_.clear();
  probe_file_.reset();
  fb_build_.reset();
  phase_ = Phase::kDone;
}

// ---- MergeJoinOp -----------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::string left_key_slot,
                         std::string right_key_slot)
    : left_child_(std::move(left)), right_child_(std::move(right)),
      left_key_(std::move(left_key_slot)),
      right_key_(std::move(right_key_slot)) {
  slots_ = ConcatSlots(left_child_->output_slots(),
                       right_child_->output_slots());
}

Status MergeJoinOp::DoOpen(ExecContext* ctx) {
  li_ = ri_ = 0;
  in_group_ = false;
  const int lk = FindSlot(left_child_->output_slots(), left_key_);
  const int rk = FindSlot(right_child_->output_slots(), right_key_);
  if (lk < 0 || rk < 0) {
    return Status::InvalidArgument("merge join key slot not found");
  }
  left_key_idx_ = static_cast<size_t>(lk);
  right_key_idx_ = static_cast<size_t>(rk);
  // Both inputs are drained whole, left first, each closed at its EOF.
  for (const auto& [child, buf] :
       {std::pair(left_child_.get(), &left_),
        std::pair(right_child_.get(), &right_)}) {
    *buf = RowBuffer{child->output_slots().size(), {}};
    RQP_RETURN_IF_ERROR(child->Open(ctx));
    RQP_RETURN_IF_ERROR(DrainBatches<RowBatch>(
        ctx, [op = child](RowBatch* batch) { return op->Next(batch); },
        [rows = buf](const RowBatch& batch) {
          rows->AppendBatch(batch);
          return Status::OK();
        }));
    child->Close();
  }
  return Status::OK();
}

Status MergeJoinOp::DoNext(RowBatch* out) {
  RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
  out->Reset(slots_.size());
  const size_t ln = left_.num_cols;
  while (!out->full()) {
    if (in_group_) {
      // Emit the cross product of the current equal-key group.
      if (group_r_ < group_r_end_) {
        out->AppendConcat(left_.row(group_l_), ln, right_.row(group_r_),
                          right_.num_cols);
        ++group_r_;
        continue;
      }
      // Next left row of the group (same key) restarts the right group.
      ++group_l_;
      if (group_l_ < left_.num_rows() &&
          left_.row(group_l_)[left_key_idx_] ==
              right_.row(ri_)[right_key_idx_]) {
        group_r_ = ri_;
        continue;
      }
      // Group exhausted.
      li_ = group_l_;
      ri_ = group_r_end_;
      in_group_ = false;
      continue;
    }
    if (li_ >= left_.num_rows() || ri_ >= right_.num_rows()) break;
    const int64_t lk = left_.row(li_)[left_key_idx_];
    const int64_t rk = right_.row(ri_)[right_key_idx_];
    ctx()->ChargeCompareOps(1);
    if (lk < rk) {
      ++li_;
    } else if (lk > rk) {
      ++ri_;
    } else {
      // Found an equal-key group: [ri_, group_r_end_) on the right.
      group_r_end_ = ri_;
      while (group_r_end_ < right_.num_rows() &&
             right_.row(group_r_end_)[right_key_idx_] == rk) {
        ++group_r_end_;
        ctx()->ChargeCompareOps(1);
      }
      group_l_ = li_;
      group_r_ = ri_;
      in_group_ = true;
    }
  }
  return Status::OK();
}

void MergeJoinOp::Close() {
  left_ = RowBuffer{};
  right_ = RowBuffer{};
}

// ---- NestedLoopsJoinOp -----------------------------------------------------

NestedLoopsJoinOp::NestedLoopsJoinOp(OperatorPtr left, OperatorPtr right,
                                     PredicatePtr join_predicate)
    : left_child_(std::move(left)), right_child_(std::move(right)),
      predicate_(std::move(join_predicate)) {
  slots_ = ConcatSlots(left_child_->output_slots(),
                       right_child_->output_slots());
}

Status NestedLoopsJoinOp::DoOpen(ExecContext* ctx) {
  done_ = false;
  left_row_ = 0;
  right_row_ = 0;
  left_batch_.Clear();
  program_.reset();
  if (predicate_ != nullptr) {
    auto program = PredicateProgram::Compile(predicate_, slots_);
    if (!program.ok()) return program.status();
    program_ = std::move(program.value());
  }
  // The inner input is drained whole and closed; the outer streams.
  right_ = RowBuffer{right_child_->output_slots().size(), {}};
  RQP_RETURN_IF_ERROR(right_child_->Open(ctx));
  RQP_RETURN_IF_ERROR(DrainBatches<RowBatch>(
      ctx, [this](RowBatch* batch) { return right_child_->Next(batch); },
      [this](const RowBatch& batch) {
        right_.AppendBatch(batch);
        return Status::OK();
      }));
  right_child_->Close();
  RQP_RETURN_IF_ERROR(left_child_->Open(ctx));
  return Status::OK();
}

Status NestedLoopsJoinOp::DoNext(RowBatch* out) {
  RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
  out->Reset(slots_.size());
  const size_t ln = left_child_->output_slots().size();
  std::vector<int64_t> joined(slots_.size());
  while (!out->full() && !done_) {
    if (left_batch_.empty() || left_row_ >= left_batch_.num_rows()) {
      RQP_RETURN_IF_ERROR(left_child_->Next(&left_batch_));
      if (left_batch_.empty()) {
        left_child_->Close();  // streamed input exhausted: free its memory
        done_ = true;
        break;
      }
      left_row_ = 0;
      right_row_ = 0;
    }
    const int64_t* lrow = left_batch_.row(left_row_);
    while (right_row_ < right_.num_rows() && !out->full()) {
      const int64_t* rrow = right_.row(right_row_++);
      bool pass = true;
      if (program_) {
        std::copy(lrow, lrow + ln, joined.begin());
        std::copy(rrow, rrow + right_.num_cols,
                  joined.begin() + static_cast<long>(ln));
        ctx()->ChargePredicateEvals(1);
        pass = program_->EvalRow(joined.data());
      } else {
        ctx()->ChargeRowCpu(1);
      }
      if (pass) out->AppendConcat(lrow, ln, rrow, right_.num_cols);
    }
    if (right_row_ >= right_.num_rows()) {
      ++left_row_;
      right_row_ = 0;
    }
  }
  return Status::OK();
}

void NestedLoopsJoinOp::Close() { right_ = RowBuffer{}; }

// ---- IndexNLJoinOp ---------------------------------------------------------

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                             const SortedIndex* inner_index,
                             std::string outer_key_slot,
                             std::vector<std::string> inner_projection)
    : outer_child_(std::move(outer)), inner_(inner), index_(inner_index),
      outer_key_(std::move(outer_key_slot)) {
  std::vector<std::string> inner_slots;
  projection_error_ = !ResolveProjection(*inner_, inner_projection,
                                         &inner_cols_, &inner_slots)
                           .ok();
  slots_ = ConcatSlots(outer_child_->output_slots(), inner_slots);
}

Status IndexNLJoinOp::DoOpen(ExecContext* ctx) {
  done_ = false;
  outer_row_ = 0;
  match_next_ = 0;
  inner_matches_.clear();
  outer_batch_.Clear();
  if (projection_error_) {
    return Status::InvalidArgument("bad projection for table " +
                                   inner_->name());
  }
  const int ok = FindSlot(outer_child_->output_slots(), outer_key_);
  if (ok < 0) {
    return Status::InvalidArgument("index NL join outer key slot not found: " +
                                   outer_key_);
  }
  outer_key_idx_ = static_cast<size_t>(ok);
  RQP_RETURN_IF_ERROR(outer_child_->Open(ctx));
  return Status::OK();
}

Status IndexNLJoinOp::DoNext(RowBatch* out) {
  RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
  out->Reset(slots_.size());
  const size_t ln = outer_child_->output_slots().size();
  const size_t in_cols = inner_cols_.size();
  std::vector<int64_t> inner_row(in_cols);
  while (!out->full() && !done_) {
    if (match_next_ < inner_matches_.size()) {
      const int64_t r = inner_matches_[match_next_++];
      // Random page fetch for the inner row.
      ctx()->ChargeRandomReads(1, inner_->name());
      for (size_t c = 0; c < in_cols; ++c) {
        inner_row[c] = inner_->Value(inner_cols_[c], r);
      }
      out->AppendConcat(outer_batch_.row(outer_row_), ln, inner_row.data(),
                        in_cols);
      continue;
    }
    ++outer_row_;
    if (outer_batch_.empty() || outer_row_ >= outer_batch_.num_rows()) {
      RQP_RETURN_IF_ERROR(outer_child_->Next(&outer_batch_));
      if (outer_batch_.empty()) {
        outer_child_->Close();  // streamed input exhausted: free its memory
        done_ = true;
        break;
      }
      outer_row_ = 0;
    }
    const int64_t key = outer_batch_.row(outer_row_)[outer_key_idx_];
    inner_matches_.clear();
    match_next_ = 0;
    ctx()->ChargeIndexDescend();
    index_->LookupRange(key, key, &inner_matches_);
  }
  return Status::OK();
}

void IndexNLJoinOp::Close() {}

// ---- GJoinOp ---------------------------------------------------------------

GJoinOp::GJoinOp(OperatorPtr left, OperatorPtr right,
                 std::string left_key_slot, std::string right_key_slot,
                 const SortedIndex* right_index)
    : left_child_(std::move(left)), right_child_(std::move(right)),
      left_key_(std::move(left_key_slot)),
      right_key_(std::move(right_key_slot)), right_index_(right_index) {
  slots_ = ConcatSlots(left_child_->output_slots(),
                       right_child_->output_slots());
}

Status GJoinOp::DoOpen(ExecContext* ctx) {
  join_.reset();
  swap_ = false;
  if (FindSlot(left_child_->output_slots(), left_key_) < 0 ||
      FindSlot(right_child_->output_slots(), right_key_) < 0) {
    return Status::InvalidArgument("g-join key slot not found");
  }
  auto replay = [](const OperatorPtr& child,
                   std::shared_ptr<std::vector<RowBatch>> rows) {
    return std::make_unique<VectorSourceOp>(std::move(rows),
                                            child->output_slots());
  };
  // The left (outer) input is always consumed first; its *actual* size then
  // drives the strategy choice — this is what makes the operator robust
  // against optimizer size-estimate mistakes.
  auto left = std::make_shared<std::vector<RowBatch>>();
  auto left_rows = DrainOperator(left_child_.get(), ctx, left.get());
  if (!left_rows.ok()) return left_rows.status();
  const double nl = static_cast<double>(left_rows.value());

  // The index probes the raw table, so it stands in for the right child only
  // when that child scans the whole table. Probing it avoids reading the
  // inner input at all; compare against the cheapest alternative that must
  // consume it.
  const auto* scan = dynamic_cast<const TableScanOp*>(right_child_.get());
  if (right_index_ != nullptr && scan != nullptr && scan->ScansWholeTable() &&
      scan->table()->num_rows() > 0) {
    const CostModel& cm = ctx->cost_model();
    const Table* table = scan->table();
    const double nr = static_cast<double>(table->num_rows());
    const double index_cost = nl * (cm.index_descend + cm.random_page_read);
    const double consume_inner_cost =
        static_cast<double>(table->num_pages()) * cm.seq_page_read +
        (std::min(nl, nr) + nl + nr) * cm.hash_op;
    if (index_cost < consume_inner_cost) {
      strategy_ = "index";
      join_ = std::make_unique<IndexNLJoinOp>(replay(left_child_, left), table,
                                              right_index_, left_key_);
      return join_->Open(ctx);
    }
  }
  auto right = std::make_shared<std::vector<RowBatch>>();
  auto right_rows = DrainOperator(right_child_.get(), ctx, right.get());
  if (!right_rows.ok()) return right_rows.status();
  // Hash with the build on the actually-smaller side.
  if (left_rows.value() <= right_rows.value()) {
    strategy_ = "hash(build=left)";
    swap_ = true;
    join_ = std::make_unique<HashJoinOp>(replay(right_child_, right),
                                         replay(left_child_, left), right_key_,
                                         left_key_);
  } else {
    strategy_ = "hash(build=right)";
    join_ = std::make_unique<HashJoinOp>(replay(left_child_, left),
                                         replay(right_child_, right),
                                         left_key_, right_key_);
  }
  return join_->Open(ctx);
}

Status GJoinOp::DoNext(RowBatch* out) {
  if (!swap_) {
    RQP_RETURN_IF_ERROR(join_->Next(out));
  } else {
    RQP_RETURN_IF_ERROR(join_->Next(&swapped_));
    const size_t left_cols = left_child_->output_slots().size();
    const size_t right_cols = right_child_->output_slots().size();
    out->Reset(slots_.size());
    for (size_t r = 0; r < swapped_.num_rows(); ++r) {
      const int64_t* row = swapped_.row(r);
      out->AppendConcat(row + right_cols, left_cols, row, right_cols);
    }
  }
  return Status::OK();
}

void GJoinOp::Close() {
  if (join_ != nullptr) join_->Close();
  join_.reset();
}

}  // namespace rqp
