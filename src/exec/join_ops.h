#ifndef RQP_EXEC_JOIN_OPS_H_
#define RQP_EXEC_JOIN_OPS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operator.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace rqp {

class TableScanOp;

/// Materialized rows with a fixed slot layout — the internal buffer shared
/// by the blocking join implementations.
struct RowBuffer {
  size_t num_cols = 0;
  std::vector<int64_t> data;  // row-major

  size_t num_rows() const { return num_cols == 0 ? 0 : data.size() / num_cols; }
  const int64_t* row(size_t i) const { return data.data() + i * num_cols; }
  void Append(const int64_t* row) {
    data.insert(data.end(), row, row + num_cols);
  }
  int64_t num_pages() const {
    return (static_cast<int64_t>(num_rows()) + kRowsPerPage - 1) /
           kRowsPerPage;
  }
};

/// Drains `child` into `buf`. Sets buf.num_cols from the child's slots.
Status MaterializeChild(Operator* child, ExecContext* ctx, RowBuffer* buf);

/// Deterministic chained hash table over a RowBuffer's key column — flat
/// head/next arrays with power-of-two buckets, replacing the
/// unordered_multimap the joins used to carry per partition.
///
/// Two properties the multimap could not give:
///  - *Defined* match order: chains are built by prepending rows in reverse
///    row order, so forward traversal visits equal keys in build-row order.
///    unordered_multimap's equal_range order among duplicates is
///    implementation-defined.
///  - Probe cost: a probe is one mix, one head load, and a short chain walk
///    over 8-byte indexes — no node allocations, no pointer-heavy buckets —
///    which is what HashJoinOp::ProbeResident runs over.
///
/// Buckets mix arbitrary keys together, so every chain visit re-checks the
/// row's actual key.
struct JoinHashTable {
  static constexpr uint32_t kEmpty = 0xffffffffu;
  /// Bucket-count floor for non-empty tables (see Build).
  static constexpr size_t kMinBuckets = 64;

  std::vector<uint32_t> heads;  ///< bucket -> first row index (or kEmpty)
  std::vector<uint32_t> nexts;  ///< row index -> next row in chain
  uint64_t bucket_mask = 0;

  /// murmur3 fmix64 — deliberately a different finalizer from the
  /// depth-salted splitmix64 that grace partitioning uses, so bucket
  /// placement is independent of partition placement.
  static uint64_t Mix(int64_t key) {
    uint64_t x = static_cast<uint64_t>(key);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  size_t BucketOf(int64_t key) const {
    return static_cast<size_t>(Mix(key) & bucket_mask);
  }

  /// (Re)builds the table over all rows of `rows`, keyed on `key_idx`.
  /// Zero rows give one bucket whose head is kEmpty, so every key's bucket
  /// load is valid and misses.
  void Build(const RowBuffer& rows, size_t key_idx);
};

/// Hybrid hash join with recursive grace partitioning: builds on the right
/// child, probes with the left. Build rows are hash-partitioned; partitions
/// stay resident under the MemoryBroker grant and overflow partitions spill
/// to real SpillManager files. Spilled (build, probe) partition pairs are
/// processed recursively with a level-dependent hash; at `max_recursion`
/// the operator falls back to chunked hash probing (memory-sized build
/// chunks, one probe-file pass per chunk), which completes at a 1-page
/// grant. Its pages are three MemoryGrants: the 1-page progress minimum,
/// the resident partitions and the fallback's chunk. The operator honors
/// phase-boundary memory revocation: a capacity shrink makes it shed
/// resident partitions at the next batch boundary.
///
/// This is the hash join at every DOP: GatherOp runs the build half
/// (OpenBuild) of the joins in its segment and has its workers probe their
/// resident partitions through ProbeResident.
///
/// Every probe batch of every phase goes through ProbeResident. A level
/// with spilled partitions probes the whole batch (a spilled partition's
/// table is empty, so its rows match nothing) and then routes the spilled
/// partitions' rows to their probe files; a fallback chunk is loaded into
/// the partitions as a resident level of its own.
///
/// The probe fetch takes views from a TableScanOp probe child (gathering
/// only the key column) and rows from any other child and from spill files.
/// Every phase has one emission: it writes (probe row, build row) pairs
/// into the output RowBatch, view probe rows column-at-a-time through their
/// row ids.
class HashJoinOp : public Operator {
 public:
  struct Options {
    int fan_out = 8;        ///< grace partitions per recursion level
    int max_recursion = 4;  ///< levels before the chunked-hash fallback
  };

  /// Caller-owned scratch of ProbeResident, one per probing thread, so many
  /// threads can probe one build.
  struct ProbeScratch {
    std::vector<uint32_t> parts;  ///< partition of each key that matched
    std::vector<uint64_t> mixes;  ///< fmix64 of each probe key (hashed)
    std::vector<uint32_t> cand_rows;   ///< keys with a non-empty chain
    std::vector<uint32_t> cand_heads;  ///< their chain heads
    std::vector<std::pair<uint32_t, uint32_t>> pairs;  ///< (key, build row)
  };

  HashJoinOp(OperatorPtr probe_child, OperatorPtr build_child,
             std::string probe_key_slot, std::string build_key_slot,
             Options options);
  HashJoinOp(OperatorPtr probe_child, OperatorPtr build_child,
             std::string probe_key_slot, std::string build_key_slot)
      : HashJoinOp(std::move(probe_child), std::move(build_child),
                   std::move(probe_key_slot), std::move(build_key_slot),
                   Options()) {}

  /// The build half of Open: resolves the key slots, takes the 1-page
  /// progress grant and runs the grace-partitioned build. Open skips the
  /// build when OpenBuild already ran since the last Open or Close.
  Status OpenBuild(ExecContext* ctx);
  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "HashJoin"; }

  /// Fraction of the build side that did not fit in memory at the first
  /// partitioning level (diagnostics).
  double spill_fraction() const { return spill_fraction_; }

  // -- after OpenBuild ------------------------------------------------------
  /// True when no partition of the current level has spilled.
  bool build_resident() const;
  /// Key column within the probe child's slots.
  size_t probe_key_idx() const { return probe_key_idx_; }
  /// Number of build-child columns appended to each probe row.
  size_t build_width() const { return build_cols_; }

  /// True when the level's resident build carries the dense-key directory,
  /// so ProbeResident indexes it by key − min instead of hashing.
  bool dense_probe() const { return !dense_dir_.empty(); }

  /// The two-pass fused probe of `n` keys against the level's partitions.
  /// Fills s->pairs with the matches, key-major and in build-row order
  /// within a key, and s->parts with the partition of each key that matched
  /// (other keys' entries are unspecified). Runs the dense kernel when
  /// dense_probe(), else the hashed one; both give the same pairs. A level
  /// with a spilled partition never has the dense directory, so the hashed
  /// kernel runs: it fills s->parts for every key, and the keys of spilled
  /// partitions match nothing. Reads only the built partitions, so any
  /// number of threads may probe concurrently, each with its own scratch.
  void ProbeResident(const int64_t* keys, size_t n, SimdLevel simd,
                     ProbeScratch* s) const;
  /// The build row of a ProbeResident match (`part` = s.parts[key]).
  const int64_t* BuildRow(uint32_t part, uint32_t row) const {
    return parts_[part].rows.row(row);
  }

 private:
  /// One grace partition at the current recursion level, or of the
  /// fallback's current chunk.
  struct Partition {
    RowBuffer rows;  ///< resident build rows (empty once spilled)
    JoinHashTable table;  ///< over `rows`: one empty bucket once spilled
    /// Dense kernel: row -> next row with the same key, or kEmpty.
    std::vector<uint32_t> same;
    std::unique_ptr<SpillFile> build_spill;
    std::unique_ptr<SpillFile> probe_spill;
    int64_t charged_pages = 0;  ///< resident_ pages held for `rows`
    bool spilled = false;
  };

  /// A spilled (build, probe) pair awaiting recursive processing.
  struct PendingTask {
    std::unique_ptr<SpillFile> build, probe;
    int depth = 0;
  };

  enum class Phase { kProbe, kTaskSetup, kChunkLoad, kDone };

  size_t PartitionOf(int64_t key) const;
  Status PartitionBuildRow(const int64_t* row);
  Status EnsurePartitionPage(size_t part_idx);
  Status SpillPartition(size_t part_idx);
  /// The resident partition holding the most pages (ties: lowest index), or
  /// -1 when none holds any.
  int LargestResident() const;
  /// Phase-boundary revocation: spills resident partitions, largest first,
  /// until the broker's deficit is covered. The chunk and the progress
  /// minimum renegotiate at their own boundaries.
  Status Shed();
  /// Builds every partition's table, then the dense directory when every
  /// partition is resident and the level's build keys span fewer than
  /// kDenseSpanFactor values per row. Charges nothing.
  void BuildTables();
  /// Partitions every batch `next(&batch)` yields until an empty one, then
  /// builds the tables and charges each partition's build.
  template <typename NextBatch>
  Status RunBuild(NextBatch next);
  /// Fetches the next probe batch (column views from a scan probe child,
  /// else rows from the child or a spill file), runs ProbeResident over it
  /// into probe_.pairs and routes spilled partitions' rows to their probe
  /// files. Sets `*eof` when the input is exhausted.
  Status FetchProbeBatch(bool* eof);
  /// Writes the next pairs of probe_.pairs that fit in `out`, each as the
  /// probe row followed by its build row.
  void EmitPairs(RowBatch* out);
  Status FinishProbePhase();
  Status SetupNextTask();
  Status LoadNextChunk();

  OperatorPtr probe_child_, build_child_;
  std::string probe_key_, build_key_;
  Options options_;
  /// fan_out - 1 when fan_out is a power of two (mask reduction in
  /// PartitionOf, bit-identical to the modulo), 0 otherwise.
  uint64_t fan_mask_ = 0;
  std::vector<std::string> slots_;
  size_t probe_key_idx_ = 0, build_key_idx_ = 0;
  size_t probe_cols_ = 0, build_cols_ = 0;
  ExecContext* ctx_ = nullptr;
  MemoryGrant base_;      ///< 1-page progress minimum, held until Close
  MemoryGrant resident_;  ///< Σ charged_pages of the level's partitions
  MemoryGrant chunk_grant_;  ///< the chunked fallback's chunk

  bool build_ready_ = false;  ///< OpenBuild ran; Open skips the build
  Phase phase_ = Phase::kDone;
  int depth_ = 0;
  std::vector<Partition> parts_;
  /// A level's keys are dense when they span fewer than this many values
  /// per build row, which caps the directory at that many slots per row.
  static constexpr uint64_t kDenseSpanFactor = 2;
  /// An empty directory slot: partition 0, row kEmpty.
  static constexpr uint64_t kDenseEmpty = JoinHashTable::kEmpty;
  /// Dense-key directory over the resident level: slot key − dense_min_
  /// holds (partition << 32) | the key's first build row, or kDenseEmpty.
  /// The last slot is always empty; out-of-range keys clamp to it. Built
  /// beside the bucket tables, which the hashed kernel uses once a
  /// partition spills, and dropped whenever one spills or the level ends.
  std::vector<uint64_t> dense_dir_;
  int64_t dense_min_ = 0;
  std::vector<PendingTask> tasks_;  ///< LIFO: bounds live spill files
  double spill_fraction_ = 0;
  int64_t build_rows_total_ = 0;    ///< depth-0 build rows seen
  int64_t build_rows_spilled_ = 0;  ///< depth-0 build rows spilled

  // Probe state. The whole probe batch is processed at fetch time — hash
  // charges flushed in one call, matches gathered into probe_.pairs by
  // ProbeResident, and spilled partitions' rows routed to their probe files
  // in row order — so emission is a branch-free cursor walk.
  std::unique_ptr<SpillFile> probe_file_;  ///< recursive probe input
  RowBatch probe_batch_;
  std::vector<int64_t> probe_keys_;  ///< contiguous key-column gather
  ProbeScratch probe_;
  size_t fused_next_ = 0;
  // View probe (a scan probe child, found at Open): the fused probe gathers
  // ONLY the key column from the scan's views, and emission reads payload
  // columns straight from the views through the pairs' absolute row ids —
  // a probe row is written once, into the output batch.
  TableScanOp* scan_probe_ = nullptr;
  bool probe_via_views_ = false;  ///< current probe batch fetched as views
  ColumnBatch probe_col_;         ///< reused view probe input
  std::vector<uint32_t> row_ids_;     ///< emitted chunk's probe row ids
  std::vector<int64_t> row_scratch_;  ///< one gathered row (spill routing)
  /// The chunked fallback's build file, set while its chunks are probed.
  std::unique_ptr<SpillFile> fb_build_;
};

/// Sort-merge join over inputs already sorted on their key slots.
/// Materializes both sides (its natural upstream, SortOp, is blocking
/// anyway) and merges with duplicate-group handling.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key_slot,
              std::string right_key_slot);

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "MergeJoin"; }

 private:
  OperatorPtr left_child_, right_child_;
  std::string left_key_, right_key_;
  std::vector<std::string> slots_;
  size_t left_key_idx_ = 0, right_key_idx_ = 0;
  RowBuffer left_, right_;
  size_t li_ = 0, ri_ = 0;
  size_t group_l_ = 0, group_r_end_ = 0, group_r_ = 0;
  bool in_group_ = false;
  ExecContext* ctx_ = nullptr;
};

/// Block nested-loops join with an arbitrary (possibly empty = cross) join
/// predicate over the concatenated slots. The robust-last-resort and the
/// deliberate disaster plan in several experiments.
class NestedLoopsJoinOp : public Operator {
 public:
  NestedLoopsJoinOp(OperatorPtr left, OperatorPtr right,
                    PredicatePtr join_predicate);

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "NestedLoopsJoin"; }

 private:
  OperatorPtr left_child_, right_child_;
  PredicatePtr predicate_;
  /// The join predicate over the concatenated pair, EvalRow'd per pair.
  std::optional<PredicateProgram> program_;
  std::vector<std::string> slots_;
  RowBuffer right_;
  ExecContext* ctx_ = nullptr;
  RowBatch left_batch_;
  size_t left_row_ = 0;
  size_t right_row_ = 0;
  bool done_ = false;
};

/// Index nested-loops join: for each outer row, an index descend plus one
/// random page fetch per match on the inner table. Unbeatable for tiny
/// outers, catastrophic for large ones — the plan the Black-Hat
/// underestimate tricks the optimizer into.
class IndexNLJoinOp : public Operator {
 public:
  /// `inner_projection` lists the inner table's columns each fetch copies
  /// (empty = all), resolved as TableScanOp resolves its projection.
  IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                const SortedIndex* inner_index, std::string outer_key_slot,
                std::vector<std::string> inner_projection = {});

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override {
    return "IndexNLJoin(" + inner_->name() + ")";
  }

 private:
  OperatorPtr outer_child_;
  const Table* inner_;
  const SortedIndex* index_;
  std::string outer_key_;
  size_t outer_key_idx_ = 0;
  std::vector<size_t> inner_cols_;  ///< projected inner column indices
  bool projection_error_ = false;
  std::vector<std::string> slots_;
  ExecContext* ctx_ = nullptr;
  RowBatch outer_batch_;
  size_t outer_row_ = 0;
  std::vector<int64_t> inner_matches_;
  size_t match_next_ = 0;
  bool done_ = false;
};

/// Graefe's generalized join (§5.3 "A generalized join algorithm"): one
/// operator that removes the mistaken-choice risk between index
/// nested-loops and hash join. It materializes its left input, then picks
/// the cheaper strategy from *actual* input sizes at run time:
///   - index probes into the right table's persistent index when the outer
///     is small, an index was passed and the right child is a TableScanOp
///     that emits its whole table (TableScanOp::ScansWholeTable);
///   - otherwise it materializes the right input too and runs a hash join
///     built on the truly smaller input.
/// The strategy runs as the engine's own IndexNLJoinOp or HashJoinOp over
/// VectorSourceOp replays of the materialized inputs, so it charges, holds
/// memory grants and spills exactly as that join does. The materialized
/// inputs themselves are held outside the broker, as MergeJoinOp's are.
class GJoinOp : public Operator {
 public:
  /// `right_index` (optional) indexes the right child's table on
  /// `right_key_slot`.
  GJoinOp(OperatorPtr left, OperatorPtr right, std::string left_key_slot,
          std::string right_key_slot,
          const SortedIndex* right_index = nullptr);

  Status Open(ExecContext* ctx) override;
  Status Next(RowBatch* out) override;
  void Close() override;
  const std::vector<std::string>& output_slots() const override {
    return slots_;
  }
  std::string name() const override { return "GJoin"; }

  /// Strategy chosen at Open (for tests/EXPLAIN): "index", or
  /// "hash(build=left)" / "hash(build=right)".
  const std::string& chosen_strategy() const { return strategy_; }

 private:
  OperatorPtr left_child_, right_child_;
  std::string left_key_, right_key_;
  const SortedIndex* right_index_;
  std::vector<std::string> slots_;
  std::string strategy_;
  ExecContext* ctx_ = nullptr;
  /// The delegated join, built at Open.
  OperatorPtr join_;
  /// build=left: join_ emits (right, left) rows, which Next swaps back.
  bool swap_ = false;
  RowBatch swapped_;
};

}  // namespace rqp

#endif  // RQP_EXEC_JOIN_OPS_H_
