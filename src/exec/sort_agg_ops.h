#ifndef RQP_EXEC_SORT_AGG_OPS_H_
#define RQP_EXEC_SORT_AGG_OPS_H_

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
  struct Options {
    bool dynamic_memory = true;
    int merge_fanin = 8;  ///< max runs merged per external generation
  };

  SortOp(OperatorPtr child, std::string key_slot, Options options);
  SortOp(OperatorPtr child, std::string key_slot)
      : SortOp(std::move(child), std::move(key_slot), Options()) {}

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
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

  Status ConsumeInput(ExecContext* ctx);
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
  ExecContext* ctx_ = nullptr;

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
// partials merge commutatively and associatively in exact int64
// arithmetic, which is what makes merge-order-independent parallel
// aggregation deterministic.

/// Initializes one group's accumulator cells (COUNT/SUM start at 0, MIN at
/// INT64_MAX, MAX at INT64_MIN).
void AggInit(const std::vector<AggSpec>& aggs, int64_t* acc);

/// Folds one *input* row into accumulator cells. `agg_idx[a]` is the
/// input-slot index of aggregate `a` (unused for COUNT).
void AggFoldInput(const std::vector<AggSpec>& aggs,
                  const std::vector<size_t>& agg_idx, const int64_t* row,
                  int64_t* acc);

/// Folds already-aggregated partial state into accumulator cells (counts
/// add, sums add, min/max fold). `partial` points at the partial's
/// accumulator cells (past any group-key prefix).
void AggFoldPartial(const std::vector<AggSpec>& aggs, const int64_t* partial,
                    int64_t* acc);

/// Flat group table of the aggregation kernel: group keys and accumulators
/// live in two flat row-major arrays indexed by a dense group id, with an
/// open-addressing probe table (power-of-two, linear probing) mapping key
/// hashes to ids — no per-group heap allocations and no O(log n) vector
/// compares per input row. The probe-table layout never leaks into output:
/// emission and shedding walk SortedIds(), the lexicographic key order.
struct FlatGroups {
  static constexpr uint32_t kEmpty = 0xffffffffu;

  size_t key_width = 0;
  size_t acc_width = 0;
  size_t num_groups = 0;
  std::vector<int64_t> keys;      ///< num_groups * key_width, row-major
  std::vector<int64_t> accs;      ///< num_groups * acc_width, row-major
  std::vector<uint32_t> buckets;  ///< open addressing, power-of-two
  uint64_t mask = 0;

  void Reset(size_t kw, size_t aw);
  const int64_t* key(size_t g) const { return keys.data() + g * key_width; }
  int64_t* acc(size_t g) { return accs.data() + g * acc_width; }
  const int64_t* acc(size_t g) const { return accs.data() + g * acc_width; }

  /// Probe-or-insert; returns the group id and sets *inserted. A new
  /// group's accumulator cells are zero — the caller initializes them.
  /// Group ids are stable until Reset() (growth only rehashes buckets).
  uint32_t Upsert(const int64_t* k, bool* inserted);
  /// Upsert that starts a new group's cells at AggInit(aggs); returns the
  /// group's accumulator cells.
  int64_t* UpsertAcc(const int64_t* k, const std::vector<AggSpec>& aggs);

  /// Group ids sorted lexicographically by key.
  std::vector<uint32_t> SortedIds() const;

  /// Writes group `g` as one output row: key cells, then accumulator cells.
  void CopyRow(uint32_t g, int64_t* out) const;

 private:
  uint64_t Hash(const int64_t* k) const;
  void Grow();
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

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
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

  size_t PartitionOfKey(const int64_t* key, size_t n) const;
  /// Batch kernel: per-row key assembly + flat-table upsert; rows landing
  /// on existing groups are deferred and accumulated op-major (one
  /// aggregate-function dispatch per column per flush) instead of per-row.
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
  FlatGroups flat_;                   ///< resident group state
  std::vector<uint32_t> emit_order_;  ///< emission order (sorted ids)
  size_t emit_pos_ = 0;
  std::vector<int64_t> key_scratch_;
  std::vector<uint32_t> def_rows_, def_grps_;  ///< deferred batch rows
  bool emitting_ = false;
  ExecContext* ctx_ = nullptr;
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

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return child_->output_slots();
  }
  std::string name() const override { return "Check"; }

 private:
  OperatorPtr child_;
  int64_t estimated_rows_, valid_lo_, valid_hi_;
  std::shared_ptr<std::vector<RowBatch>> buffer_;
  size_t next_ = 0;
  ExecContext* ctx_ = nullptr;
};

}  // namespace rqp

#endif  // RQP_EXEC_SORT_AGG_OPS_H_
