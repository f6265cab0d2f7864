#ifndef RQP_EXEC_CONTEXT_H_
#define RQP_EXEC_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "expr/simd.h"
#include "fault/fault.h"
#include "storage/spill.h"
#include "util/status.h"

namespace rqp {

/// Simulated cost-model constants (in abstract "cost units"; one unit = one
/// sequential page read). All experiment "response times" are expressed in
/// these units, making every table in the harness exactly reproducible —
/// the substitution for the authors' wall-clock measurements documented in
/// DESIGN.md.
struct CostModel {
  double seq_page_read = 1.0;    ///< sequential page read
  double random_page_read = 1.5; ///< random page fetch (index probe target)
  double index_descend = 0.5;    ///< B-tree root-to-leaf traversal
  double row_cpu = 1.0 / 512;    ///< per-row CPU work (predicate, copy)
  double hash_op = 1.0 / 256;    ///< hash probe per row
  double hash_build_factor = 1.5; ///< build-row cost relative to a probe
  double compare_op = 1.0 / 512; ///< comparison (sort/merge) per op
  double spill_page_write = 1.0; ///< spill partition write per page
  double spill_page_read = 1.0;  ///< spill partition re-read per page
  double exchange_page = 1.0;    ///< cross-shard exchange transfer per page
};

/// Execution counters; the deterministic clock plus diagnostics.
struct ExecCounters {
  double cost_units = 0;
  int64_t pages_read = 0;
  int64_t random_reads = 0;
  int64_t rows_processed = 0;
  int64_t hash_ops = 0;
  int64_t compare_ops = 0;
  int64_t spill_pages = 0;         ///< spill pages written to disk
  int64_t predicate_evals = 0;
  // Real-spill diagnostics (PR 2): filled from actual SpillManager traffic.
  int64_t spill_pages_reread = 0;   ///< spill pages read back from disk
  int64_t spill_partitions = 0;     ///< spill partitions created
  int64_t spill_recursion_depth = 0;  ///< deepest grace-partitioning level
  int64_t memory_revocations = 0;   ///< revocation polls that shed pages
  // Parallel-execution diagnostics (PR 3). cost_units always accumulates
  // *total work* (exactly the same at every DOP for the same plan, as is
  // every counter above, so speedups are honest);
  // parallel_saved_units is the work hidden by overlap, computed
  // per parallel phase as total morsel cost minus the deterministic
  // list-schedule makespan. Simulated elapsed time = cost_units -
  // parallel_saved_units.
  double parallel_saved_units = 0;
  int64_t morsels = 0;           ///< morsels executed by parallel phases
  int64_t parallel_phases = 0;   ///< parallel phases run
  // Sharded-execution diagnostics (PR 9): filled by the exchange operators
  // and the ShardedEngine's skew mitigations.
  int64_t rows_shuffled = 0;     ///< rows repartitioned by hash shuffle
  int64_t rows_broadcast = 0;    ///< rows replicated to all shards
  int64_t morsels_stolen = 0;    ///< straggler morsels moved across shards
  int64_t hot_keys = 0;          ///< heavy-hitter keys diverted to broadcast
  // Scan-view diagnostics. Pure diagnostics with zero cost-clock charge:
  // they record where a TableScanOp's column views were written row-major
  // and where a consumer read them as views, never moving the clock.
  int64_t rows_materialized = 0;  ///< rows written row-major from scan views
  int64_t transposes_elided = 0;  ///< scan rows a consumer read as views

  // One formula per shared charge kind: n onto the kind's counter and
  // unit × n onto the clock. ExecContext's Charge* methods, a parallel
  // worker's WorkerCharge and the result cache's hit and patch charges all
  // call these, so the three clocks cannot drift apart.
  void AddSeqPages(const CostModel& cm, int64_t pages,
                   double io_multiplier = 1.0) {
    pages_read += pages;
    cost_units += cm.seq_page_read * pages * io_multiplier;
  }
  void AddRowCpu(const CostModel& cm, int64_t rows) {
    rows_processed += rows;
    cost_units += cm.row_cpu * rows;
  }
  void AddHashOps(const CostModel& cm, int64_t ops) {
    hash_ops += ops;
    cost_units += cm.hash_op * ops;
  }
  void AddPredicateEvals(const CostModel& cm, int64_t evals) {
    predicate_evals += evals;
    cost_units += cm.row_cpu * evals;
  }

  void Merge(const ExecCounters& o) {
    cost_units += o.cost_units;
    pages_read += o.pages_read;
    random_reads += o.random_reads;
    rows_processed += o.rows_processed;
    hash_ops += o.hash_ops;
    compare_ops += o.compare_ops;
    spill_pages += o.spill_pages;
    predicate_evals += o.predicate_evals;
    spill_pages_reread += o.spill_pages_reread;
    spill_partitions += o.spill_partitions;
    spill_recursion_depth = std::max(spill_recursion_depth,
                                     o.spill_recursion_depth);
    memory_revocations += o.memory_revocations;
    parallel_saved_units += o.parallel_saved_units;
    morsels += o.morsels;
    parallel_phases += o.parallel_phases;
    rows_shuffled += o.rows_shuffled;
    rows_broadcast += o.rows_broadcast;
    morsels_stolen += o.morsels_stolen;
    hot_keys += o.hot_keys;
    rows_materialized += o.rows_materialized;
    transposes_elided += o.transposes_elided;
  }
};

/// External cancellation token shared between a query's ExecContext and
/// whoever may kill the query from outside (the scheduler's deadline
/// enforcement and memory arbitration). Cancel() is one-shot: the first
/// caller's code/reason win and later calls are ignored, so a deadline
/// firing concurrently with a memory shed yields one deterministic-typed
/// status per query. Operators observe the token at their existing
/// cooperative-cancellation points (CheckGuardrails per batch, cancelled()
/// per morsel) — no new unwind paths.
class QueryCancelToken {
 public:
  QueryCancelToken() = default;
  QueryCancelToken(const QueryCancelToken&) = delete;
  QueryCancelToken& operator=(const QueryCancelToken&) = delete;

  /// Requests cancellation with a typed status. First call wins.
  void Cancel(StatusCode code, std::string reason) {
    std::lock_guard<std::mutex> lock(mu_);
    if (code_.load(std::memory_order_relaxed) != StatusCode::kOk) return;
    reason_ = std::move(reason);
    code_.store(code, std::memory_order_release);
  }

  bool cancelled() const {
    return code_.load(std::memory_order_acquire) != StatusCode::kOk;
  }

  /// The typed status carried by the cancellation (OK when not cancelled).
  Status ToStatus() const {
    const StatusCode code = code_.load(std::memory_order_acquire);
    if (code == StatusCode::kOk) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return Status(code, reason_);
  }

 private:
  std::atomic<StatusCode> code_{StatusCode::kOk};
  mutable std::mutex mu_;  ///< guards reason_ until code_ is published
  std::string reason_;
};

class MemoryBroker;

/// The pages one owner holds from one broker — the only way to hold broker
/// memory. Every page a grant takes comes back when the grant is cleared,
/// shrunk, reassigned or destroyed, so an operator unwound by an error
/// without Close() cannot leak pages. A broker destroyed before a grant
/// that holds pages (a test fixture's stack-scoped ExecContext, a tree that
/// outlives its context) detaches it: it then holds zero pages from no
/// broker. Clearing, moving or destroying a grant that holds no pages never
/// touches its broker.
///
/// A grant belongs to one thread at a time (its operator, or one parallel
/// worker); the broker's lock guards everything the grants of one broker
/// share. Revocation is the owner's business: at a phase boundary it reads
/// MemoryBroker::deficit() and sheds through its own code, so the broker
/// never calls back into anything.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  explicit MemoryGrant(MemoryBroker* broker) : broker_(broker) {}
  ~MemoryGrant() { Clear(); }
  MemoryGrant(MemoryGrant&& other) noexcept;
  MemoryGrant& operator=(MemoryGrant&& other) noexcept;
  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;

  int64_t pages() const { return pages_; }

  /// Takes up to `n` more pages but never fewer than 1 — even from an
  /// over-committed broker — so every holder can make progress, at spill
  /// speed. Returns the pages taken (0 only without a broker).
  int64_t Grow(int64_t n);
  /// Takes exactly `n` more pages when they fit under capacity, else
  /// nothing: no progress floor and no over-commit.
  bool TryGrow(int64_t n);
  /// Returns `n` pages (at most all of them) to the broker.
  void Shrink(int64_t n);
  /// Returns every page.
  void Clear() { Shrink(pages_); }

 private:
  friend class MemoryBroker;

  MemoryBroker* broker_ = nullptr;
  int64_t pages_ = 0;
  // The broker's list of the grants that hold pages (guarded by its lock).
  MemoryGrant* prev_ = nullptr;
  MemoryGrant* next_ = nullptr;
};

/// Grants query memory (in pages) through MemoryGrant. Capacity may be
/// changed while queries run (the FMT fluctuating-memory test, fault-
/// injected memory drops, the scheduler's arbitration); holders observe the
/// new limit through deficit() at their next phase boundary.
///
/// Thread-safe: grants, returns and capacity changes may arrive concurrently
/// from parallel-phase workers; all state is guarded by an internal mutex.
class MemoryBroker {
 public:
  explicit MemoryBroker(int64_t capacity_pages = 1 << 20)
      : capacity_(capacity_pages) {}
  ~MemoryBroker() {
    std::lock_guard<std::mutex> lock(mu_);
    for (MemoryGrant* g = grants_; g != nullptr;) {
      MemoryGrant* next = g->next_;
      g->broker_ = nullptr;
      g->pages_ = 0;
      g->prev_ = g->next_ = nullptr;
      g = next;
    }
  }
  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  int64_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  int64_t used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
  }

  /// Changes capacity. May be called while grants are outstanding: shrinking
  /// below `used()` is legal (the FMT test and fault injection both do it) —
  /// no assertion fires, `deficit()` turns positive, and subsequent grants
  /// shrink to the 1-page progress minimum until enough memory is returned.
  /// Negative capacities clamp to zero.
  void set_capacity(int64_t pages) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = pages < 0 ? 0 : pages;
  }

  /// Pages held beyond capacity after a shrink (0 when within it): what the
  /// holders should shed at their next phase boundary.
  int64_t deficit() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_ > capacity_ ? used_ - capacity_ : 0;
  }

  /// High-water mark of `used()`; exceeds capacity() exactly when the broker
  /// ran over-committed (progress-minimum grants after a shrink).
  int64_t peak_used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_used_;
  }

 private:
  friend class MemoryGrant;

  // Page movements of one grant, each under one lock acquisition.
  int64_t Grow(MemoryGrant* g, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t avail = capacity_ > used_ ? capacity_ - used_ : 0;
    const int64_t taken = std::max<int64_t>(1, std::min(n, avail));
    TakeLocked(g, taken);
    return taken;
  }
  bool TryGrow(MemoryGrant* g, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (n < 0 || used_ + n > capacity_) return false;
    TakeLocked(g, n);
    return true;
  }
  void Shrink(MemoryGrant* g, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    used_ -= n;
    g->pages_ -= n;
    if (g->pages_ > 0) return;
    // Unlink: the grant holds nothing, so a later destruction of this
    // broker has nothing to detach.
    (g->prev_ != nullptr ? g->prev_->next_ : grants_) = g->next_;
    if (g->next_ != nullptr) g->next_->prev_ = g->prev_;
    g->prev_ = g->next_ = nullptr;
  }
  /// Hands `from`'s pages and list position to `to` (a moved grant).
  void Move(MemoryGrant* from, MemoryGrant* to) {
    std::lock_guard<std::mutex> lock(mu_);
    to->pages_ = from->pages_;
    from->pages_ = 0;
    to->prev_ = from->prev_;
    to->next_ = from->next_;
    (to->prev_ != nullptr ? to->prev_->next_ : grants_) = to;
    if (to->next_ != nullptr) to->next_->prev_ = to;
    from->prev_ = from->next_ = nullptr;
  }
  void TakeLocked(MemoryGrant* g, int64_t n) {
    if (n == 0) return;
    if (g->pages_ == 0) {
      // Link: the grant now holds pages this broker must detach if it dies
      // first.
      g->next_ = grants_;
      if (grants_ != nullptr) grants_->prev_ = g;
      grants_ = g;
    }
    g->pages_ += n;
    used_ += n;
    peak_used_ = std::max(peak_used_, used_);
  }

  mutable std::mutex mu_;
  int64_t capacity_;
  int64_t used_ = 0;
  int64_t peak_used_ = 0;
  MemoryGrant* grants_ = nullptr;  ///< head of the grants holding pages
};

inline MemoryGrant::MemoryGrant(MemoryGrant&& other) noexcept
    : broker_(other.broker_) {
  if (other.pages_ > 0) broker_->Move(&other, this);
  other.broker_ = nullptr;
}

inline MemoryGrant& MemoryGrant::operator=(MemoryGrant&& other) noexcept {
  if (this == &other) return *this;
  Clear();
  broker_ = other.broker_;
  if (other.pages_ > 0) broker_->Move(&other, this);
  other.broker_ = nullptr;
  return *this;
}

inline int64_t MemoryGrant::Grow(int64_t n) {
  return broker_ == nullptr ? 0 : broker_->Grow(this, n);
}

inline bool MemoryGrant::TryGrow(int64_t n) {
  return broker_ != nullptr && broker_->TryGrow(this, n);
}

inline void MemoryGrant::Shrink(int64_t n) {
  n = std::min(n, pages_);
  if (n > 0) broker_->Shrink(this, n);
}

/// Per-query execution context: cost clock, memory, and the re-optimization
/// mailbox used by POP CHECK operators.
class ExecContext {
 public:
  explicit ExecContext(MemoryBroker* memory = nullptr)
      : memory_(memory ? memory : &own_memory_) {}

  const CostModel& cost_model() const { return cost_model_; }
  void set_cost_model(const CostModel& cm) { cost_model_ = cm; }

  /// No-ops kept for source compatibility with callers that still forward
  /// Engine::vectorized() / late_materialize(): every operator runs column
  /// views plus VM programs (DESIGN.md §15), so there is no gate to set.
  void set_vectorized(bool) {}
  void set_late_materialize(bool) {}

  /// Resolved SIMD dispatch level (EngineOptions::simd / $RQP_SIMD). Changes
  /// instruction selection in the compare+compact and hash-mix kernels only;
  /// results are byte-identical at every level.
  void set_simd(SimdLevel level) { simd_ = level; }
  SimdLevel simd() const { return simd_; }

  ExecCounters& counters() { return counters_; }
  const ExecCounters& counters() const { return counters_; }
  double cost() const { return counters_.cost_units; }

  MemoryBroker* memory() { return memory_; }

  // -- spill subsystem -------------------------------------------------------
  /// Where spill directories are created (empty: SpillManager default).
  /// Must be set before the first spill() call to take effect.
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  /// Deterministic id naming this context's spill directory
  /// (`<spill_dir>/<query_id>/`). Defaults to "q0".
  void set_query_id(std::string id) { query_id_ = std::move(id); }
  const std::string& query_id() const { return query_id_; }

  /// The query's spill manager, created lazily on first use so purely
  /// in-memory queries never touch the filesystem. Its page charges land on
  /// this context's cost clock (ChargeSpill), keeping file-level accounting
  /// and the simulated clock reconciled by construction. Destroyed — along
  /// with every temp file — when this context goes out of scope, which in
  /// Engine::Run is per execution attempt (success, abort, and cooperative
  /// cancellation alike).
  SpillManager* spill() {
    if (spill_ == nullptr) {
      spill_ = std::make_unique<SpillManager>(
          spill_dir_, query_id_,
          [this](int64_t w, int64_t r) { ChargeSpill(w, r); });
    }
    return spill_.get();
  }
  bool has_spill() const { return spill_ != nullptr; }

  /// FMT (fluctuating memory test) support: once the simulated clock passes
  /// `threshold` cost units, the broker capacity is set to the paired
  /// value. Thresholds must be ascending. Operators with dynamic memory
  /// policies observe the change at their next grant.
  void SetMemorySchedule(std::vector<std::pair<double, int64_t>> schedule) {
    memory_schedule_ = std::move(schedule);
    next_schedule_ = 0;
  }

  // -- charging helpers ----------------------------------------------------
  // Page-read charges optionally carry the table being read so scheduled
  // per-table I/O slowdowns can tax them.
  void ChargeSeqPages(int64_t pages, const std::string& table = {}) {
    counters_.AddSeqPages(cost_model_, pages, IoMultiplier(table, pages));
    ApplyScheduledEvents();
  }
  void ChargeRandomReads(int64_t reads, const std::string& table = {}) {
    counters_.random_reads += reads;
    counters_.cost_units +=
        cost_model_.random_page_read * reads * IoMultiplier(table, reads);
  }
  void ChargeIndexDescend(int64_t descends = 1) {
    counters_.cost_units += cost_model_.index_descend * descends;
  }
  void ChargeRowCpu(int64_t rows) { counters_.AddRowCpu(cost_model_, rows); }
  void ChargeHashOps(int64_t ops) { counters_.AddHashOps(cost_model_, ops); }
  void ChargeCompareOps(int64_t ops) {
    counters_.compare_ops += ops;
    counters_.cost_units += cost_model_.compare_op * ops;
  }
  void ChargeSpill(int64_t pages_written, int64_t pages_reread) {
    counters_.spill_pages += pages_written;
    counters_.spill_pages_reread += pages_reread;
    counters_.cost_units += cost_model_.spill_page_write * pages_written +
                            cost_model_.spill_page_read * pages_reread;
    ApplyScheduledEvents();
  }
  void ChargePredicateEvals(int64_t evals) {
    counters_.AddPredicateEvals(cost_model_, evals);
    ApplyScheduledEvents();
  }
  /// Cross-shard exchange traffic (PR 9): shuffles pay a hash op (route
  /// choice) and row CPU (copy) per row plus a transfer charge per page;
  /// broadcasts skip the hash — the destination set is every shard.
  void ChargeExchange(int64_t rows, int64_t pages, bool broadcast) {
    if (broadcast) {
      counters_.rows_broadcast += rows;
    } else {
      counters_.rows_shuffled += rows;
      counters_.hash_ops += rows;
      counters_.cost_units += cost_model_.hash_op * rows;
    }
    counters_.rows_processed += rows;
    counters_.cost_units += cost_model_.row_cpu * rows +
                            cost_model_.exchange_page * pages;
    ApplyScheduledEvents();
  }

  // -- guardrails -----------------------------------------------------------
  /// Why execution was cooperatively cancelled (consumed by the engine's
  /// safe-plan retry path).
  struct GuardrailTrip {
    enum class Kind { kCardinalityFuse, kCostBudget };
    Kind kind = Kind::kCostBudget;
    int plan_node_id = -1;       ///< fuse trips only
    double estimated_rows = 0;   ///< fuse trips only
    int64_t actual_rows = 0;     ///< rows produced when the fuse blew
    double cost_at_trip = 0;
  };

  /// Aborts execution once the cost clock passes `units` (<= 0: unlimited).
  void set_cost_budget(double units) { cost_budget_ = units; }
  double cost_budget() const { return cost_budget_; }

  /// Arms a cardinality fuse: execution aborts when the operator for
  /// `plan_node_id` has produced more than `limit_rows`.
  void ArmFuse(int plan_node_id, double estimated_rows, int64_t limit_rows) {
    fuses_[plan_node_id] = Fuse{estimated_rows, limit_rows};
  }

  bool has_trip() const { return trip_ != nullptr; }
  const GuardrailTrip* trip() const { return trip_.get(); }

  // -- external cancellation and deadlines (PR 6) ---------------------------
  /// Attaches an external cancellation token (scheduler deadline enforcement
  /// and memory arbitration). Borrowed; must outlive this context.
  void set_cancel_token(const QueryCancelToken* token) {
    cancel_token_ = token;
  }
  const QueryCancelToken* cancel_token() const { return cancel_token_; }

  /// Deadline on the deterministic cost clock (<= 0: none). Unlike the cost
  /// budget this is not a guardrail: passing it yields a typed
  /// kDeadlineExceeded with no trip record, so the engine propagates the
  /// status instead of hedging with a safe-plan retry.
  void set_deadline_cost(double units) { deadline_cost_ = units; }
  double deadline_cost() const { return deadline_cost_; }

  /// Wall-clock deadline for real serving ($RQP_QUERY_DEADLINE_MS); checked
  /// at batch granularity in CheckGuardrails. Off the deterministic paths —
  /// benchmarks use cost-clock deadlines instead.
  void set_deadline_wall(std::chrono::steady_clock::time_point tp) {
    deadline_wall_ = tp;
    has_wall_deadline_ = true;
  }

  /// External-cancel poll shared by the serial and parallel paths. Returns
  /// the typed status carried by the token (or kDeadlineExceeded) and flips
  /// the worker-visible cancelled flag so morsel loops stop claiming.
  Status CheckExternalCancel() {
    if (cancel_token_ != nullptr && cancel_token_->cancelled()) {
      cancelled_.store(true, std::memory_order_relaxed);
      return cancel_token_->ToStatus();
    }
    if (deadline_cost_ > 0 && counters_.cost_units > deadline_cost_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return Status::DeadlineExceeded("query deadline (cost clock) exceeded");
    }
    if (has_wall_deadline_ &&
        std::chrono::steady_clock::now() > deadline_wall_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return Status::DeadlineExceeded("query deadline (wall clock) exceeded");
    }
    return Status::OK();
  }

  /// Cooperative cancellation point: operators call this once per batch (or
  /// chunk) and propagate the non-OK status up the tree. Cheap when nothing
  /// is armed (two branches).
  Status CheckGuardrails() {
    if (cancel_token_ != nullptr || deadline_cost_ > 0 ||
        has_wall_deadline_) {
      Status ext = CheckExternalCancel();
      if (!ext.ok()) return ext;
    }
    if (trip_ == nullptr && cost_budget_ > 0 &&
        counters_.cost_units > cost_budget_) {
      trip_ = std::make_unique<GuardrailTrip>();
      trip_->cost_at_trip = counters_.cost_units;
      cancelled_.store(true, std::memory_order_relaxed);
    }
    if (trip_ == nullptr) return Status::OK();
    if (trip_->kind == GuardrailTrip::Kind::kCardinalityFuse) {
      return Status::ResourceExhausted(
          "cardinality fuse tripped at plan node " +
          std::to_string(trip_->plan_node_id));
    }
    return Status::ResourceExhausted("query cost budget exceeded");
  }

  /// Called by Operator::Next (through Operator::Count) with the node's
  /// running production count; trips the node's fuse (if armed) when the
  /// count exceeds its limit.
  void ObserveProduced(int plan_node_id, int64_t rows) {
    if (trip_ != nullptr || fuses_.empty()) return;
    auto it = fuses_.find(plan_node_id);
    if (it == fuses_.end() || rows <= it->second.limit_rows) return;
    trip_ = std::make_unique<GuardrailTrip>();
    trip_->kind = GuardrailTrip::Kind::kCardinalityFuse;
    trip_->plan_node_id = plan_node_id;
    trip_->estimated_rows = it->second.estimated_rows;
    trip_->actual_rows = rows;
    trip_->cost_at_trip = counters_.cost_units;
    cancelled_.store(true, std::memory_order_relaxed);
  }

  // -- parallel execution (PR 3) --------------------------------------------
  // During a parallel phase, workers charge into thread-local ExecCounters
  // and flush through these methods at morsel boundaries (relaxed-contention
  // batching: one lock acquisition per morsel, not per charge). Outside
  // parallel phases the single-threaded Charge* methods above stay lock-free.

  /// True once a guardrail tripped (or a worker failed): workers poll this at
  /// morsel boundaries and stop claiming morsels. Trip *outcome* is
  /// deterministic (the same fuse/budget trips at every DOP); trip *timing*
  /// is not, which is fine because tripped attempts are discarded.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (cancel_token_ != nullptr && cancel_token_->cancelled());
  }
  /// Cooperative cancellation for worker-side failures (fault exhaustion,
  /// I/O errors): stops sibling workers at their next morsel boundary.
  void CancelParallel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Folds a worker's thread-local counter delta into the shared counters,
  /// applies clock-scheduled events (FMT memory schedule, fault-injected
  /// memory drops) against the advanced global clock, and checks the cost
  /// budget. The caller's delta must not be re-merged.
  void MergeWorkerCounters(const ExecCounters& delta) {
    std::lock_guard<std::mutex> lock(merge_mu_);
    counters_.Merge(delta);
    ApplyScheduledEvents();
    if (deadline_cost_ > 0 && counters_.cost_units > deadline_cost_) {
      // Deadline passed mid-phase: stop sibling workers now; the
      // coordinator's post-phase CheckGuardrails turns this into the typed
      // kDeadlineExceeded status (no trip record — deadlines never hedge).
      cancelled_.store(true, std::memory_order_relaxed);
    }
    if (trip_ == nullptr && cost_budget_ > 0 &&
        counters_.cost_units > cost_budget_) {
      trip_ = std::make_unique<GuardrailTrip>();
      trip_->cost_at_trip = counters_.cost_units;
      cancelled_.store(true, std::memory_order_relaxed);
    }
  }

  /// Thread-safe ObserveProduced: `rows` is the *total* produced so far for
  /// the node (workers accumulate a shared atomic total and report it here
  /// at flush boundaries, so fuse trips lag production by at most one morsel
  /// per worker — same batching tolerance as the serial per-batch check).
  void ObserveProducedParallel(int plan_node_id, int64_t rows) {
    std::lock_guard<std::mutex> lock(merge_mu_);
    ObserveProduced(plan_node_id, rows);
  }

  /// Records one finished parallel phase: `morsels` work units whose total
  /// cost exceeded the deterministic list-schedule makespan by `saved_units`
  /// (the work hidden by overlap; subtracted from cost_units to obtain the
  /// simulated elapsed time).
  void RecordParallelPhase(int64_t morsels, double saved_units) {
    std::lock_guard<std::mutex> lock(merge_mu_);
    counters_.morsels += morsels;
    ++counters_.parallel_phases;
    if (saved_units > 0) counters_.parallel_saved_units += saved_units;
  }

  /// Thread-safe IoMultiplier for worker-local charging. Fault windows are
  /// evaluated at `at_cost` — parallel phases pass the phase-start clock, so
  /// every morsel sees the same multiplier regardless of worker timing.
  double IoMultiplierAt(const std::string& table, double at_cost,
                        int64_t pages) {
    return faults_ == nullptr ? 1.0
                              : faults_->IoMultiplier(table, at_cost, pages);
  }

  /// Deterministic per-morsel transient-read fault point: the failure draw
  /// is keyed off (schedule seed, morsel id) and the window off the
  /// phase-start clock, so a parallel scan experiences identical faults at
  /// every DOP > 1 and on every replay, independent of worker scheduling.
  /// Backoff cost is returned for the worker's local accumulator instead of
  /// being charged globally.
  Status MaybeInjectMorselReadFault(const std::string& table,
                                    double phase_start_cost, int64_t morsel_id,
                                    double* backoff_cost) {
    *backoff_cost = 0;
    if (faults_ == nullptr) return Status::OK();
    const FaultInjector::ReadOutcome o =
        faults_->OnMorselReadAttempt(table, phase_start_cost, morsel_id);
    *backoff_cost = o.backoff_cost;
    if (o.exhausted) {
      return Status::ResourceExhausted("transient read failures on " + table +
                                       " outlasted the retry budget");
    }
    return Status::OK();
  }

  // -- fault injection -------------------------------------------------------
  /// Installs a fresh injector drawn from `schedule`. The injector is owned
  /// by this context; a retry attempt gets a new context and therefore
  /// re-arms the same schedule — every attempt experiences the identical
  /// environment, keeping chaos runs reproducible.
  void InstallFaults(const FaultSchedule& schedule) {
    faults_ = std::make_unique<FaultInjector>(schedule);
  }
  FaultInjector* faults() { return faults_.get(); }

  /// Transient-read fault point: scan operators call this before paying for
  /// a read on `table`. Retry backoff lands on the cost clock; returns
  /// ResourceExhausted when the bounded retries are used up.
  Status MaybeInjectReadFault(const std::string& table) {
    if (faults_ == nullptr) return Status::OK();
    const FaultInjector::ReadOutcome o =
        faults_->OnReadAttempt(table, counters_.cost_units);
    if (o.backoff_cost > 0) {
      counters_.cost_units += o.backoff_cost;
      ApplyScheduledEvents();
    }
    if (o.exhausted) {
      return Status::ResourceExhausted("transient read failures on " + table +
                                       " outlasted the retry budget");
    }
    return Status::OK();
  }

  // -- POP re-optimization mailbox ------------------------------------------
  /// Set by a CHECK operator when actual cardinality escapes its validity
  /// range. The engine aborts execution, re-optimizes with the corrected
  /// cardinality, and resumes from the materialized intermediate.
  struct ReoptRequest {
    int plan_node_id = -1;
    int64_t estimated_rows = 0;
    int64_t actual_rows = 0;
    std::vector<std::string> slots;
    std::shared_ptr<std::vector<RowBatch>> materialized;
  };

  bool has_reopt_request() const { return reopt_ != nullptr; }
  const ReoptRequest* reopt_request() const { return reopt_.get(); }
  void RaiseReopt(ReoptRequest req) {
    reopt_ = std::make_unique<ReoptRequest>(std::move(req));
  }
  void ClearReopt() { reopt_.reset(); }

  /// Actual output cardinalities keyed by plan-node id (filled by operators
  /// on Close; consumed by the Metric1/LEO feedback machinery).
  std::map<int, int64_t>& actual_cardinalities() { return actuals_; }

 private:
  struct Fuse {
    double estimated_rows = 0;
    int64_t limit_rows = 0;
  };

  /// Applies clock-scheduled environment changes: the FMT memory schedule
  /// plus any pending fault-injected memory drops.
  void ApplyScheduledEvents() {
    while (next_schedule_ < memory_schedule_.size() &&
           counters_.cost_units >= memory_schedule_[next_schedule_].first) {
      memory_->set_capacity(memory_schedule_[next_schedule_].second);
      ++next_schedule_;
    }
    if (faults_ != nullptr) {
      int64_t capacity;
      while (faults_->NextMemoryDrop(counters_.cost_units, &capacity)) {
        memory_->set_capacity(capacity);
      }
    }
  }

  double IoMultiplier(const std::string& table, int64_t pages) {
    return faults_ == nullptr
               ? 1.0
               : faults_->IoMultiplier(table, counters_.cost_units, pages);
  }

  CostModel cost_model_;
  SimdLevel simd_ = SimdLevel::kScalar;
  ExecCounters counters_;
  MemoryBroker own_memory_;
  MemoryBroker* memory_;
  std::vector<std::pair<double, int64_t>> memory_schedule_;
  size_t next_schedule_ = 0;
  std::unique_ptr<ReoptRequest> reopt_;
  std::map<int, int64_t> actuals_;
  double cost_budget_ = 0;
  const QueryCancelToken* cancel_token_ = nullptr;
  double deadline_cost_ = 0;
  std::chrono::steady_clock::time_point deadline_wall_{};
  bool has_wall_deadline_ = false;
  std::map<int, Fuse> fuses_;
  std::unique_ptr<GuardrailTrip> trip_;
  std::atomic<bool> cancelled_{false};
  std::mutex merge_mu_;  ///< guards counters_/trip_ during parallel phases
  std::unique_ptr<FaultInjector> faults_;
  std::string spill_dir_;
  std::string query_id_ = "q0";
  std::unique_ptr<SpillManager> spill_;
};

}  // namespace rqp

#endif  // RQP_EXEC_CONTEXT_H_
