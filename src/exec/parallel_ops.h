#ifndef RQP_EXEC_PARALLEL_OPS_H_
#define RQP_EXEC_PARALLEL_OPS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/join_ops.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace rqp {

/// Morsel-driven parallel pipeline with a gather exchange at the top.
///
/// GatherOp executes a right-deep scan → hash-join* → hash-agg? segment on N
/// workers and funnels the result back into the enclosing single-threaded
/// Volcano tree, so every non-parallel operator keeps working unchanged. It
/// owns the segment's serial tree — the very operators DOP 1 builds — and
/// adds only a morsel driver. Phases:
///
///   1. Serial build: each HashJoinOp of the tree runs its own
///      grace-partitioned build (OpenBuild), top join first, which is the
///      order the serial tree's Open builds in. If a partition spilled or the
///      broker is over-committed, memory is the constraint, not CPU: the
///      operator *degrades to the serial tree* by opening and draining it.
///      The joins keep the builds they already have, so the degraded run
///      does exactly the work DOP 1 does.
///   2. Parallel probe: the driving table is split into morsels handed out
///      by an atomic cursor. Each worker filters a morsel, then runs it stage
///      by stage through the joins' read-only partitions with
///      HashJoinOp::ProbeResident (the kernel of the serial in-memory
///      probe), carrying one scan row and one build row per stage. It then
///      either appends whole rows to its morsel's private output slot or
///      gathers the group and aggregate inputs and folds them into a
///      thread-local FlatGroups table in one FlatGroups::FoldBatch call per
///      morsel. Charges accumulate in thread-local counters flushed at
///      morsel boundaries; workers poll cancellation and the broker's
///      deficit there too (a worker sheds its thread-local aggregate state
///      into the shared merged table and clears its own grant — the build
///      partitions are pinned for the phase).
///   3. Barrier + gather: morsel outputs are concatenated in morsel-id
///      order (== table order, so the row stream is byte-identical to the
///      serial scan at every DOP); partial-aggregate tables are merged in
///      worker-id order (order-insensitive anyway: the aggregate functions
///      are commutative, with sums wrapping in two's complement) and
///      emitted in SortedIds() key order, exactly like HashAggOp.
///
/// The phase's total work lands on the cost clock; the deterministic
/// list-schedule makespan of the per-morsel costs is recorded through
/// RecordParallelPhase so simulated elapsed time reflects the overlap.
/// Aggregate state holds one MemoryGrant per worker plus one for the merged
/// table; the joins hold their own.
class GatherOp : public Operator {
 public:
  /// Optional aggregation at the top of the parallel pipeline.
  struct AggStage {
    std::vector<std::string> group_slots;
    std::vector<AggSpec> aggregates;
  };

  /// `serial` is the segment as DOP 1 lowers it: the driving `scan`, the
  /// hash joins `joins` (bottom-up: joins[0] probes the scan) and, when
  /// `agg` is set, a HashAggOp on top. Workers read the scan's table,
  /// filter, projected columns and plan node id; the serial tree owns it.
  GatherOp(OperatorPtr serial, std::vector<HashJoinOp*> joins,
           const TableScanOp* scan, std::optional<AggStage> agg,
           ParallelOptions opts);

  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return serial_->output_slots();
  }
  std::string name() const override {
    return "Gather(" + table_->name() + ", dop=" +
           std::to_string(opts_.num_threads) + ")";
  }

 private:
  /// Where a pipeline slot's value lives: source column `col` of the
  /// scanned table (stage 0) or column `col` of join stage-1's build row.
  struct SlotRef {
    size_t stage = 0;
    size_t col = 0;
  };
  /// One worker's reusable buffers. A tuple in flight is a scan row plus
  /// one build row per join stage run so far.
  struct Worker {
    std::vector<const int64_t*> cols;  ///< morsel column bases
    SelectionVector sel;
    std::vector<int64_t> rows, next_rows;  ///< scan row of each tuple
    /// builds[j][t]: tuple t's build row of join j.
    std::vector<std::vector<const int64_t*>> builds, next_builds;
    std::vector<int64_t> keys;  ///< one stage's probe keys, or fold cells
    HashJoinOp::ProbeScratch probe;
    std::vector<int64_t> stage_counts;  ///< rows produced per stage
  };

  Status DoOpen(ExecContext* ctx) override;
  Status DoNext(RowBatch* out) override;
  /// Pipeline index i < the scan's width is the scan's i-th source column.
  SlotRef Resolve(size_t pipeline_idx) const;
  Status ResolveFold(const std::vector<std::string>& pipeline);
  /// Writes `ref`'s value for every tuple in flight to out[t * stride].
  void Gather(const Worker& w, SlotRef ref, int64_t* out,
              size_t stride) const;
  Status RunParallelPhase(ExecContext* ctx);
  void WorkerLoop(int worker_id);
  Status ProcessMorsel(const Morsel& m, WorkerCharge* charge,
                       FlatGroups* local_groups, Worker* w);
  void EnsureLocalCapacity(int worker_id, const FlatGroups& local);
  void ShedLocalGroups(int worker_id, FlatGroups* local, WorkerCharge* charge);
  void MergeIntoShared(const FlatGroups& local);
  void PublishActuals();

  // -- construction-time configuration --------------------------------------
  OperatorPtr serial_;
  std::vector<HashJoinOp*> joins_;  ///< owned by serial_
  const TableScanOp* scan_;         ///< owned by serial_
  const Table* table_;              ///< scan_'s table
  std::optional<AggStage> agg_;
  ParallelOptions opts_;

  // -- resolved at Open ------------------------------------------------------
  bool degraded_ = false;  ///< draining serial_ instead of a parallel phase
  /// Morsel filter: the scan predicate as flat bytecode run per morsel
  /// straight over the table's columns, so rejected rows are never touched
  /// again.
  std::optional<PredicateProgram> program_;
  std::vector<SlotRef> probe_refs_;  ///< probe key of each join stage
  /// Fold cells: group keys, then the inputs of the non-COUNT aggregates;
  /// fold_idx_[a] is aggregate a's cell (unused for COUNT).
  std::vector<SlotRef> fold_refs_;
  std::vector<size_t> fold_idx_;
  MemoryGrant merged_grant_;  ///< pages of merged_

  // -- parallel-phase state --------------------------------------------------
  std::unique_ptr<MorselCursor> cursor_;
  double phase_start_cost_ = 0;
  std::vector<double> ledger_;          ///< per-morsel cost, by morsel id
  std::vector<RowBuffer> morsel_out_;   ///< per-morsel output (no-agg mode)
  std::vector<FlatGroups> worker_groups_;
  std::vector<MemoryGrant> worker_grants_;  ///< pages of worker_groups_
  std::atomic<int64_t> scan_produced_{0};
  /// Per-stage produced-row totals (parallel to joins_); shared across
  /// workers, reported to the node fuses at flush boundaries.
  std::unique_ptr<std::atomic<int64_t>[]> stage_produced_;
  std::mutex merged_mu_;  ///< guards merged_ during revocation shedding
  FlatGroups merged_;
  std::mutex error_mu_;
  Status first_error_;

  // -- emission state --------------------------------------------------------
  size_t emit_morsel_ = 0;
  size_t emit_row_ = 0;
  std::vector<uint32_t> emit_order_;  ///< merged_ ids in key order
  size_t emit_pos_ = 0;
  bool emitting_groups_ = false;
  bool actuals_published_ = false;
};

}  // namespace rqp

#endif  // RQP_EXEC_PARALLEL_OPS_H_
