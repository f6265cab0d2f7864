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
#include "exec/sort_agg_ops.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace rqp {

/// Morsel-driven parallel pipeline with a gather exchange at the top.
///
/// GatherOp executes a right-deep scan → hash-join* → hash-agg? segment on N
/// workers and funnels the result back into the enclosing single-threaded
/// Volcano tree, so every non-parallel operator keeps working unchanged.
/// Phases:
///
///   1. Serial build: each join's build side is drained and its hash table
///      built on the coordinator (build sides are the *small* inputs by
///      optimizer construction). Residency is granted by the MemoryBroker;
///      if the grant falls short — tiny grants, mid-query capacity drops —
///      the operator *degrades to the serial spilling tree* (TableScanOp →
///      HashJoinOp → HashAggOp over the already-materialized build rows),
///      which completes at a 1-page grant with byte-identical output.
///   2. Parallel probe: the driving table is split into morsels handed out
///      by an atomic cursor; each worker scans, filters, probes the shared
///      read-only JoinHashTables, and either emits into its morsel's
///      private output slot or folds rows into a thread-local FlatGroups
///      partial-aggregate table. Charges accumulate in thread-local
///      counters flushed at morsel boundaries; workers poll cancellation
///      and memory revocation there too (revocation sheds thread-local
///      aggregate state into the shared merged table — the build tables are
///      pinned for the phase).
///   3. Barrier + gather: morsel outputs are concatenated in morsel-id
///      order (== table order, so the row stream is byte-identical to the
///      serial scan at every DOP); partial-aggregate tables are merged in
///      worker-id order (order-insensitive anyway: the aggregate functions
///      are commutative in exact int64 arithmetic) and emitted in
///      SortedIds() key order, exactly like HashAggOp.
///
/// The phase's total work lands on the cost clock; the deterministic
/// list-schedule makespan of the per-morsel costs is recorded through
/// RecordParallelPhase so simulated elapsed time reflects the overlap.
class GatherOp : public Operator, public MemoryRevocable {
 public:
  /// One hash join executed inside the parallel pipeline. The build child
  /// is a fully-built serial operator subtree; probe_key names a slot of
  /// the pipeline upstream of this join, build_key a build-child slot.
  struct JoinStage {
    OperatorPtr build_child;
    std::string probe_key;
    std::string build_key;
    int node_id = -1;
  };
  /// Optional aggregation at the top of the parallel pipeline.
  struct AggStage {
    std::vector<std::string> group_slots;
    std::vector<AggSpec> aggregates;
  };

  GatherOp(const Table* table, PredicatePtr filter, int scan_node_id,
           std::vector<JoinStage> stages, std::optional<AggStage> agg,
           ParallelOptions opts);
  ~GatherOp() override;

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return output_slots_;
  }
  std::string name() const override {
    return "Gather(" + table_->name() + ", dop=" +
           std::to_string(opts_.num_threads) + ")";
  }

  /// True when the memory grant forced the serial spilling fallback.
  bool degraded_to_serial() const { return delegate_ != nullptr; }

  /// MemoryRevocable: the build hash tables are pinned for the phase and
  /// worker-local aggregate state sheds itself at morsel boundaries, so the
  /// operator never sheds through this path. Registration exists for the
  /// broker-destroyed-first unwind (OnBrokerDestroyed) like every other
  /// grant-holding operator.
  int64_t ShedPages(int64_t) override { return 0; }
  void OnBrokerDestroyed() override {
    broker_ = nullptr;
    registered_ = false;
  }

 private:
  /// Run-time state of one join stage. After the build phase the hash table
  /// is strictly read-only — workers probe it without synchronization. It
  /// is HashJoinOp's JoinHashTable, so matches come in build-row order and
  /// the serial and parallel probe outputs agree even on duplicate build
  /// keys.
  struct StageState {
    std::shared_ptr<std::vector<RowBatch>> build_batches;
    std::vector<std::string> build_slots;
    RowBuffer build_rows;
    JoinHashTable table;
    size_t probe_key_idx = 0;  ///< within the pipeline row prefix
    size_t build_key_idx = 0;
    size_t in_cols = 0;   ///< pipeline width upstream of this join
    size_t out_cols = 0;  ///< in_cols + build child width
  };

  Status MaterializeBuilds(ExecContext* ctx);
  Status BuildHashTables();
  Status BuildSerialFallback(ExecContext* ctx);
  Status ResolveAgg();
  Status RunParallelPhase(ExecContext* ctx);
  void WorkerLoop(int worker_id);
  Status ProcessMorsel(const Morsel& m, WorkerCharge* charge,
                       FlatGroups* local_groups, std::vector<int64_t>* row,
                       std::vector<int64_t>* key,
                       std::vector<int64_t>* stage_counts,
                       std::vector<const int64_t*>* col_ptrs,
                       SelectionVector* sel);
  void EnsureLocalCapacity(int worker_id, const FlatGroups& local);
  void ShedLocalGroups(int worker_id, FlatGroups* local, WorkerCharge* charge);
  void MergeIntoShared(const FlatGroups& local);
  void PublishActuals();
  void ReleaseAllMemory();

  // -- construction-time configuration --------------------------------------
  const Table* table_;
  PredicatePtr filter_;
  int scan_node_id_;
  std::vector<JoinStage> stages_;
  std::optional<AggStage> agg_;
  ParallelOptions opts_;

  // -- resolved at Open ------------------------------------------------------
  std::vector<std::string> pipeline_slots_;  ///< scan ⧺ build slots
  std::vector<std::string> output_slots_;    ///< pipeline or agg layout
  /// Morsel filter: the scan predicate as flat bytecode run per morsel
  /// straight over the table's columns, so rejected rows are never
  /// transposed into the pipeline row.
  std::optional<PredicateProgram> program_;
  std::vector<StageState> stage_state_;
  std::vector<size_t> group_idx_, agg_idx_;  ///< against pipeline_slots_
  ExecContext* ctx_ = nullptr;
  MemoryBroker* broker_ = nullptr;
  bool registered_ = false;
  int64_t build_charged_pages_ = 0;
  int64_t merged_charged_pages_ = 0;
  OperatorPtr delegate_;  ///< serial spilling fallback (degraded mode)

  // -- parallel-phase state --------------------------------------------------
  std::unique_ptr<MorselCursor> cursor_;
  double phase_start_cost_ = 0;
  std::vector<double> ledger_;          ///< per-morsel cost, by morsel id
  std::vector<RowBuffer> morsel_out_;   ///< per-morsel output (no-agg mode)
  std::vector<FlatGroups> worker_groups_;
  std::vector<int64_t> worker_pages_;
  std::atomic<int64_t> scan_produced_{0};
  /// Per-stage produced-row totals (parallel to stages_); shared across
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
