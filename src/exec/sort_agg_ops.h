#ifndef RQP_EXEC_SORT_AGG_OPS_H_
#define RQP_EXEC_SORT_AGG_OPS_H_

#include <span>
#include <string>
#include <vector>

#include "exec/join_ops.h"
#include "exec/operator.h"

namespace rqp {

/// Blocking sort on one key slot (ascending). External merge sort: input
/// rows accumulate under the MemoryBroker grant; when the grant is
/// exhausted, the buffer is stable-sorted and written out as a run, and the
/// sorted runs are merged in fan-in-limited generations through real
/// SpillManager files. Run formation plus the run-order tie-break in the
/// merge keep the output byte-identical to an in-memory stable sort.
/// Supports the dynamic "grow & shrink" policy: with `dynamic_memory`, the
/// grant is re-negotiated per merge generation, so a mid-query capacity
/// change (the FMT test) changes the fan-in of later generations instead of
/// failing or thrashing, and a capacity shrink during run formation sheds
/// the buffer as a run at the next batch boundary; the static policy keeps
/// its initial grant and never sheds. Its pages are two MemoryGrants: the
/// run-formation buffer and the merge pages.
class SortOp : public Operator {
 public:
  static constexpr int64_t kMergeFanin = 8;  ///< max runs merged per generation

  struct Options {
    bool dynamic_memory = true;
  };

  SortOp(OperatorPtr child, std::string key_slot, Options options);
  SortOp(OperatorPtr child, std::string key_slot)
      : SortOp(std::move(child), std::move(key_slot), Options()) {}

  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "Sort(" + key_ + ")"; }

  /// Merge generations run after run formation (0 = fully in memory).
  int external_passes() const { return external_passes_; }

 private:
  /// One open run in a k-way merge; holds one page of rows at a time.
  struct MergeCursor {
    SpillFile* file = nullptr;  ///< null once the run is exhausted
    RowBatch batch;
    size_t pos = 0;
  };

  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;
  Status ConsumeInput();
  /// Stable-sorts the buffered rows into order_, ascending on the key. The
  /// key column is first gathered into one contiguous array so the
  /// comparator's loads are dense instead of striding across full rows.
  void SortBuffer();
  Status FlushRun();
  Status MergeRuns();
  Status MergeGeneration(int64_t fanin);
  /// One k-way merge step: hands the lowest-key row of `cursors` to
  /// `emit(row)` (ties go to the earliest cursor, the stability contract),
  /// then advances that cursor, refilling its page from its run. Sets
  /// `*done` instead when every cursor is exhausted. Charges nothing.
  template <typename Emit>
  Status MergeStep(std::vector<MergeCursor>* cursors, bool* done, Emit emit);
  /// Phase-boundary revocation (dynamic policy): when the broker is
  /// over-committed, cuts the run-formation buffer as a sorted run,
  /// returning its pages (progress continues on fresh 1-page grants).
  Status Shed();

  OperatorPtr child_;
  std::string key_;
  Options options_;
  size_t key_idx_ = 0;
  size_t cols_ = 0;

  // In-memory path (doubles as the run-formation buffer).
  RowBuffer rows_;
  std::vector<size_t> order_;
  std::vector<int64_t> key_gather_;  ///< contiguous sort keys
  size_t next_ = 0;
  MemoryGrant buffer_;  ///< pages of the run-formation buffer
  MemoryGrant merge_;   ///< one page per merged run plus the output page
  /// Broker capacity at Open(); the static policy never grows past it, so
  /// memory freed mid-query is captured only by the dynamic policy.
  int64_t open_capacity_ = 0;

  // External path: sorted runs and the final streaming-merge cursors.
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::vector<MergeCursor> cursors_;
  bool external_ = false;
  int external_passes_ = 0;
};

/// Aggregate functions.
enum class AggFn { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggFn fn = AggFn::kCount;
  std::string slot;  ///< input slot (ignored for COUNT)
  std::string output_name;
};

// Shared accumulator semantics over flat accumulator cells — the one
// definition behind every group-by: HashAggOp, GatherOp's worker and merged
// tables, the shard merge and the result-cache patch, so every path
// produces bit-identical results. All four functions are decomposable:
// COUNT and SUM add with two's-complement wraparound (WrapAdd, the
// expression VM's arithmetic, so an overflowing SUM wraps instead of being
// undefined), MIN and MAX fold, and partials therefore merge commutatively
// and associatively, which is what makes merge-order-independent parallel
// and sharded aggregation deterministic.

/// Initializes one group's accumulator cells (COUNT/SUM start at 0, MIN at
/// INT64_MAX, MAX at INT64_MIN).
void AggInit(const std::vector<AggSpec>& aggs, int64_t* acc);

/// Folds one *input* row into accumulator cells (COUNT increments, SUM adds
/// with wraparound, MIN/MAX fold). `agg_idx[a]` is the input-slot index of
/// aggregate `a` (unused for COUNT). GatherOp's workers and HashAggOp's
/// deferred rows fold through the op-major AggFoldBatch instead.
void AggFoldInput(const std::vector<AggSpec>& aggs,
                  const std::vector<size_t>& agg_idx, const int64_t* row,
                  int64_t* acc);

/// Folds already-aggregated partial state into accumulator cells (counts
/// add, sums add, min/max fold). `partial` points at the partial's
/// accumulator cells (past any group-key prefix).
void AggFoldPartial(const std::vector<AggSpec>& aggs, const int64_t* partial,
                    int64_t* acc);

/// Op-major fold of `n` rows into a flat accumulator array `accs` (one row
/// of aggs.size() cells per group): row i is row `rows[i]` of the row-major
/// `cells` (stride `stride`), or row i itself when `rows` is null, and it
/// folds into group `gids[i]`. Each aggregate dispatches once and then runs
/// a tight gather-accumulate loop over all n rows. `src[a]` is aggregate
/// a's cell within a row (unused for an input COUNT); `partial` selects
/// AggFoldPartial semantics (counts add the cell instead of incrementing).
/// The accumulator bytes equal n row-at-a-time folds: the folds commute.
void AggFoldBatch(const std::vector<AggSpec>& aggs,
                  const std::vector<size_t>& src, bool partial,
                  const int64_t* cells, size_t stride, const uint32_t* rows,
                  const uint32_t* gids, size_t n, int64_t* accs);

/// Flat group table of the aggregation kernel: group keys and accumulators
/// live in two flat row-major arrays indexed by a dense group id, with an
/// open-addressing probe table (power-of-two, linear probing) mapping key
/// hashes to ids — no per-group heap allocations and no O(log n) vector
/// compares per input row. Small key domains also get a direct-address
/// directory (see directory()), which Upsert consults before hashing; the
/// hashed table always holds every group and is the fallback. Group ids are
/// assigned in first-occurrence order and neither layout leaks into output:
/// emission and shedding walk SortedIds(), the lexicographic key order.
struct FlatGroups {
  static constexpr uint32_t kEmpty = 0xffffffffu;

  size_t key_width = 0;
  size_t acc_width = 0;
  size_t num_groups = 0;
  std::vector<int64_t> accs;  ///< num_groups * acc_width, row-major

  /// Empties the table for keys of `kw` cells and `aw` accumulator cells,
  /// and drops the directory.
  void Reset(size_t kw, size_t aw);
  const int64_t* key(size_t g) const { return keys_.data() + g * key_width; }
  int64_t* acc(size_t g) { return accs.data() + g * acc_width; }
  const int64_t* acc(size_t g) const { return accs.data() + g * acc_width; }

  /// Probe-or-insert; returns the group id and sets *inserted. A new
  /// group's accumulator cells are zero — the caller initializes them.
  /// Group ids are stable until Reset() (growth only rehashes buckets).
  uint32_t Upsert(const int64_t* k, bool* inserted);
  /// Upsert that starts a new group's cells at AggInit(aggs); returns the
  /// group's accumulator cells.
  int64_t* UpsertAcc(const int64_t* k, const std::vector<AggSpec>& aggs);

  /// Folds `n` input rows, the same groups and accumulator bytes as n calls
  /// of UpsertAcc + AggFoldInput in row order. Row t is cells[t * width ..]:
  /// its group key in the first key_width cells, aggregate a's input at
  /// cell agg_idx[a]. One loop resolves every row's group through the
  /// directory, the misses go through Upsert in row order (so new groups
  /// still get first-occurrence ids), then AggFoldBatch accumulates.
  void FoldBatch(const int64_t* cells, size_t n, size_t width,
                 const std::vector<AggSpec>& aggs,
                 const std::vector<size_t>& agg_idx);

  /// Group ids sorted lexicographically by key.
  std::vector<uint32_t> SortedIds() const;

  /// Writes group `g` as one output row: key cells, then accumulator cells.
  void CopyRow(uint32_t g, int64_t* out) const;

  /// The direct-address directory in slot order, empty when the table has
  /// none (read-only, for tests). Key k's slot is the row-major composite
  /// of its per-column offsets uint64(k_c) − lo_c, each below the column's
  /// span_c; it holds k's group id or kEmpty. With key width 0 it is one
  /// slot.
  std::span<const uint32_t> directory() const {
    return {dir_.data(), dir_.empty() ? 0 : dir_.size() - 1};
  }

 private:
  uint64_t Hash(const int64_t* k) const;
  void Grow();
  /// Rebuilds the directory over the current groups' exact per-column
  /// min/max window, or drops it when the window has more than
  /// max(2^16, 2 · num_groups) slots.
  void BuildDirectory();
  /// Key k's directory slot, or the always-empty last slot when k lies
  /// outside the window. Requires a directory.
  size_t DirSlot(const int64_t* k) const;

  std::vector<int64_t> keys_;      ///< num_groups * key_width, row-major
  std::vector<uint32_t> buckets_;  ///< open addressing, power-of-two
  uint64_t mask_ = 0;
  /// Slots in row-major composite order plus one always-empty slot at the
  /// end, which keys outside the window read. Rebuilt when num_groups
  /// reaches a power of two and a group inserted since the last build is
  /// missing from it (dir_stale_); between builds a new group inside the
  /// window takes its slot and one outside is found by hashing.
  std::vector<uint32_t> dir_;
  std::vector<uint64_t> dir_lo_;    ///< per-column window minimum
  std::vector<uint64_t> dir_span_;  ///< per-column window size
  bool dir_stale_ = false;
  std::vector<uint32_t> gids_;  ///< FoldBatch's group id per row
};

/// Hash aggregation on zero or more group-by slots. All four aggregate
/// functions are decomposable, so when the group state outgrows the memory
/// grant the operator sheds it as mergeable partial-aggregate rows,
/// hash-partitioned into kFanOut SpillManager files; partitions are
/// re-aggregated recursively (with a depth-salted hash) and at
/// kMaxRecursion the operator over-commits the broker instead of shedding,
/// guaranteeing completion. A capacity shrink makes it shed the group state
/// at the next batch boundary. Queries that never spill emit groups in key
/// order, exactly like the in-memory implementation. The group state's
/// pages are one MemoryGrant.
class HashAggOp : public Operator {
 public:
  HashAggOp(OperatorPtr child, std::vector<std::string> group_slots,
            std::vector<AggSpec> aggregates);

  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "HashAgg"; }

 private:
  /// A shed partition awaiting recursive re-aggregation.
  struct PendingPartition {
    std::unique_ptr<SpillFile> file;
    int depth = 0;
  };

  static constexpr size_t kFanOut = 8;     ///< shed partitions per level
  static constexpr int kMaxRecursion = 4;  ///< levels before over-commit

  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;
  size_t PartitionOfKey(const int64_t* key, size_t n) const;
  /// Absorbs one input batch (child rows or a shed partition's partial
  /// rows): polls Shed at the batch boundary, charges one hash op per row,
  /// then runs the batch kernel: per-row key assembly + flat-table upsert;
  /// rows landing on existing groups are deferred and accumulated op-major
  /// (AggFoldBatch: one aggregate-function dispatch per column per flush)
  /// instead of per-row.
  /// Deferred rows are flushed before every insertion's capacity check, so
  /// a shed triggered mid-batch writes exactly the state a one-row-at-a-time
  /// fold would have had at the same point. `partial` selects partial-row
  /// semantics (spilled partial rows: keys in the leading cells, counts add
  /// instead of increment).
  Status AbsorbBatch(const RowBatch& in, bool partial);
  void FlushDeferred(const RowBatch& in, bool partial);
  Status EnsureGroupCapacity();
  Status ShedGroups();
  Status SealShedFiles();
  Status ProcessPending();
  /// Phase-boundary revocation: when the broker is over-committed, sheds
  /// the resident group state as partial-aggregate partitions.
  Status Shed();

  OperatorPtr child_;
  std::vector<std::string> group_slots_;
  std::vector<AggSpec> aggs_;
  std::vector<std::string> slots_;
  std::vector<size_t> group_idx_;
  std::vector<size_t> agg_idx_;
  std::vector<size_t> partial_idx_;  ///< aggregate a's cell in a partial row
  FlatGroups flat_;                   ///< resident group state
  std::vector<uint32_t> emit_order_;  ///< emission order (sorted ids)
  size_t emit_pos_ = 0;
  std::vector<int64_t> key_scratch_;
  std::vector<uint32_t> def_rows_, def_grps_;  ///< deferred batch rows
  bool emitting_ = false;
  MemoryGrant groups_;  ///< pages of the resident group state
  int depth_ = 0;  ///< recursion depth of the partition being absorbed
  bool shed_this_level_ = false;
  std::vector<std::unique_ptr<SpillFile>> shed_files_;
  std::vector<PendingPartition> pending_;  ///< LIFO: bounds live files
};

/// POP CHECK operator (Markl et al., SIGMOD'04; Figures 1–3 of the paper):
/// a pipeline breaker that materializes its input, compares the actual row
/// count against the optimizer's validity range, and — on violation —
/// parks the materialized rows in the ExecContext re-optimization mailbox
/// and fails Open with FailedPrecondition so the engine can re-plan without
/// losing the work below the checkpoint.
class CheckOp : public Operator {
 public:
  CheckOp(OperatorPtr child, int64_t estimated_rows, int64_t valid_lo,
          int64_t valid_hi);

  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "Check"; }

 private:
  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;

  OperatorPtr child_;
  int64_t estimated_rows_, valid_lo_, valid_hi_;
  std::shared_ptr<std::vector<RowBatch>> buffer_;
  size_t next_ = 0;
};

}  // namespace rqp

#endif  // RQP_EXEC_SORT_AGG_OPS_H_
