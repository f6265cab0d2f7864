#ifndef RQP_ENGINE_ENGINE_H_
#define RQP_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "adaptive/index_tuner.h"
#include "cache/result_cache.h"
#include "engine/plan_cache.h"
#include "exec/context.h"
#include "fault/fault.h"
#include "optimizer/builder.h"
#include "optimizer/optimizer.h"
#include "stats/correlation.h"
#include "stats/feedback.h"
#include "stats/table_stats.h"
#include "storage/table.h"

namespace rqp {

/// Executor guardrails: runtime defenses against disastrous plans. A
/// cardinality fuse trips when an operator produces far more rows than the
/// optimizer estimated; a cost budget aborts queries whose simulated clock
/// runs away. Either event triggers the safe-plan retry: re-optimize once at
/// a conservative cardinality percentile (reusing the Rio corner machinery)
/// after repairing the believed base-table cardinalities under the tripped
/// subtree, then re-run. A circuit breaker caps total recoveries per query;
/// past the cap the query finishes unguarded rather than looping.
struct GuardrailOptions {
  bool enabled = false;
  /// Abort once the cost clock passes this many units (<= 0: unlimited).
  double cost_budget = 0;
  /// Fuse limit = max(fuse_min_rows, est_rows * fuse_factor); <= 0 disables
  /// fuses (budget-only guardrails).
  double fuse_factor = 0;
  int64_t fuse_min_rows = 4096;
  /// Re-run with the conservative plan after a trip; when false a trip
  /// downgrades to unguarded completion of the same plan.
  bool safe_plan_retry = true;
  /// Cardinality percentile for the safe retry plan (Rio high corner).
  double safe_percentile = 0.95;
  /// Circuit breaker: maximum guardrail recoveries (retries + downgrades)
  /// per query before guardrails disarm.
  int max_recoveries = 3;
};

/// Engine-level configuration: which robustness features are on. Each
/// experiment toggles a subset and measures the difference.
struct EngineOptions {
  OptimizerOptions optimizer;
  CardinalityOptions cardinality;
  /// Progressive optimization: plant CHECK operators and re-optimize
  /// mid-query when a validity range is violated.
  bool use_pop = false;
  int max_reoptimizations = 5;
  /// Rio-style proactive robustness check (Babu/Bizarro/DeWitt, SIGMOD'05):
  /// optimize at the low/high corners of the cardinality uncertainty box;
  /// if the same plan wins at both corners it is declared robust and POP
  /// checkpoints are omitted (no pipeline-breaker overhead). When the box
  /// check fails and POP is off, the conservative high-corner plan is used.
  bool use_rio = false;
  double rio_low_percentile = 0.05;
  double rio_high_percentile = 0.95;
  /// LEO: after execution, remember observed selectivities and prefer them
  /// over statistics in later optimizations.
  bool collect_feedback = false;
  /// Consult feedback-refined self-tuning histograms (Aboulnaga &
  /// Chaudhuri) for range estimates; updated from execution feedback when
  /// collect_feedback is on. Generalizes LEO beyond exact repeats.
  bool use_st_histograms = false;
  /// QUIET-style soft index tuning: scans that would have benefited from an
  /// absent index accrue the missed benefit; once it exceeds the build
  /// cost, the index is created as a side effect of query execution.
  bool auto_index_tuning = false;
  IndexTuner::Options index_tuner;
  /// Plan cache with verification (Session 5.3 "Plan management"): reuse
  /// compiled plans for repeated queries; re-cost on reuse and re-optimize
  /// when statistics drift invalidates the cached choice.
  bool use_plan_cache = false;
  /// Reuse cached plans *without* verification — the fragile configuration
  /// the plan-management experiment contrasts against.
  bool plan_cache_skip_verification = false;
  PlanCache::Options plan_cache;
  /// Semantic result cache (the result-reuse tier above the plan cache):
  /// -1 = read $RQP_RESULT_CACHE (unset/"0" → off), 0 = off, 1 = on.
  int use_result_cache = -1;
  /// Result-cache sizing/behavior. `max_pages` may be overridden by
  /// $RQP_RESULT_CACHE_PAGES; `max_staleness` and `cost_model` are filled
  /// from the fields below at engine construction.
  ResultCache::Options result_cache;
  /// Bounded staleness: serve a cached result unpatched while its
  /// referenced tables have received at most this many appended rows since
  /// the snapshot. 0 = always fresh (patch or recompute on any change).
  int64_t result_cache_max_staleness = 0;
  /// Explicit SIMD kernels (compare+compact, hash mix) inside the
  /// predicate and join VMs: -1 = read $RQP_SIMD (unset/"" → runtime CPU
  /// dispatch, "0" → scalar), 0 = forced scalar, else runtime dispatch. The
  /// kernels are integer-exact, so every level produces byte-identical
  /// results.
  int simd = -1;
  /// Query memory capacity (pages) of the shared broker.
  int64_t memory_pages = 1 << 20;
  /// Degree of parallelism for morsel-driven execution: 0 = read
  /// $RQP_THREADS (unset/invalid → 1), 1 = classic serial execution
  /// (byte-identical legacy behavior), N > 1 = N workers on a shared thread
  /// pool. Clamped to [1, 64].
  int num_threads = 0;
  /// Rows per parallel-scan morsel (rounded up to whole pages).
  int64_t morsel_rows = 4096;
  /// Base directory for spill files (empty: $RQP_SPILL_DIR, else a
  /// per-process tmp directory). Each execution attempt spills under
  /// `<spill_dir>/q<seq>-a<attempt>/` and the directory is removed when the
  /// attempt's context dies — success, abort, and cancellation alike.
  std::string spill_dir;
  /// Suffix appended to the process-unique engine tag (PR 9). Shard engines
  /// pass "s<i>" so N shards sharing one $RQP_SPILL_DIR spill into
  /// collision-free per-shard subdirectories (`<tag>-s<i>-q<seq>-a<n>/`).
  std::string engine_tag_suffix;
  CostModel cost_model;
  /// Runtime guardrails (fuses, budgets, safe-plan retry).
  GuardrailOptions guardrails;
  /// Fault schedule injected into every query this engine runs (chaos
  /// harness); empty = no faults.
  FaultSchedule faults;
};

/// Per-query control surface for the serving layer (src/server): external
/// cancellation, deadlines, a tenant-broker override, and a per-query fault
/// schedule. Every field is optional; Run with a null control behaves
/// exactly like the classic single-query path.
struct QueryControl {
  /// External cancel/shed token polled at the existing cooperative
  /// cancellation points. A cancellation surfaces as the token's typed
  /// status (kOverloaded for memory sheds, kDeadlineExceeded for deadlines)
  /// and never triggers the safe-plan retry.
  const QueryCancelToken* cancel = nullptr;
  /// Per-tenant memory broker; operators grant/release against it instead
  /// of the engine-wide broker, which is how the scheduler enforces tenant
  /// page quotas and arbitrates under pressure. Borrowed; must outlive Run.
  MemoryBroker* broker = nullptr;
  /// Deadline on the deterministic cost clock (<= 0: none).
  double deadline_cost = 0;
  /// Wall-clock deadline in milliseconds from Run entry (<= 0: none).
  int64_t deadline_ms = 0;
  /// Capacity the broker is reset to at each faulted attempt (0: the
  /// engine's configured memory_pages). The scheduler passes the tenant
  /// quota so fault re-arming never undoes quota enforcement.
  int64_t baseline_pages = 0;
  /// Per-query fault schedule overriding EngineOptions::faults (non-null
  /// wins even when empty — the stress harness uses that to fault a subset
  /// of in-flight queries while the rest run clean).
  const FaultSchedule* faults = nullptr;
};

/// Result of one query execution.
struct QueryResult {
  int64_t output_rows = 0;
  double cost = 0;  ///< simulated cost units (total work, DOP-independent)
  /// Simulated elapsed time: cost minus the work parallel phases hid behind
  /// overlap (the deterministic list-schedule makespan model). Equal to
  /// `cost` at DOP 1; the quantity the scaling tables report.
  double elapsed = 0;
  ExecCounters counters;
  int reoptimizations = 0;
  /// Rio verdict (only meaningful when EngineOptions::use_rio is set):
  /// true = the same plan was optimal across the uncertainty box, so no
  /// checkpoints were planted.
  bool rio_robust_box = false;
  std::string first_plan;  ///< EXPLAIN before any re-optimization
  std::string final_plan;
  /// (node id, estimated rows, actual rows) for every plan node that
  /// reported an actual cardinality — the Metric1 inputs.
  struct NodeCard { int node_id; double estimated; int64_t actual; };
  std::vector<NodeCard> node_cards;
  std::vector<RowBatch> rows;  ///< filled only when requested
  /// Qualified names of the output columns, in row order (the final plan's
  /// layout, which POP re-optimization may change from the first plan's).
  std::vector<std::string> output_slots;
  /// Indexes auto-created by the soft index tuner during this query
  /// ("table.column").
  std::vector<std::string> indexes_built;
  /// Plan-cache outcome (when EngineOptions::use_plan_cache is set).
  bool plan_cache_hit = false;
  bool plan_verification_failed = false;
  /// Engine-lifetime plan-cache totals as of this query's completion.
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;
  /// Result-cache outcome (when the result cache is enabled). A hit means
  /// execution was skipped entirely; `cost`/`elapsed` then carry only the
  /// deterministic re-emit (and patch) charges.
  bool result_cache_hit = false;
  bool result_cache_patched = false;  ///< served after delta maintenance
  bool result_cache_stale = false;    ///< served within the staleness bound
  /// Plans costed by the optimizer for this query (0 on a cache hit).
  int64_t plans_considered = 0;
  /// Guardrail outcomes.
  int fuse_trips = 0;
  int budget_aborts = 0;
  int guardrail_retries = 0;     ///< safe-plan re-runs + unguarded downgrades
  bool safe_plan_used = false;   ///< final plan came from the safe retry
  /// How the query degraded under guardrails: kNone = first plan finished,
  /// kSafeRetry = conservative plan finished, kUnguarded = circuit breaker
  /// opened and the query completed with guardrails disarmed.
  enum class Degradation { kNone, kSafeRetry, kUnguarded };
  Degradation degradation = Degradation::kNone;
  /// Robust plan selection outcomes (OptimizerOptions::robust_selection /
  /// $RQP_ROBUST_PLAN).
  bool robust_plan_used = false;  ///< plan chosen by penalty scoring
  bool robust_hedged = false;     ///< CHECKs armed with a pre-scored fallback
  bool hedged_fallback_used = false;  ///< mid-query switch to the runner-up
  /// Faults encountered during execution (summed over attempts) plus the
  /// statistics perturbations applied before optimization.
  FaultCounters faults;
  /// Sharded execution (PR 9; filled by ShardedEngine::Run, empty
  /// otherwise). One entry per shard with that shard's slice of the work.
  struct ShardStats {
    int shard = 0;
    double cost = 0;             ///< shard-local total work
    double elapsed = 0;          ///< shard-local simulated elapsed
    int64_t output_rows = 0;     ///< rows the shard contributed pre-merge
    int64_t rows_shuffled = 0;   ///< rows this shard's senders repartitioned
    int64_t rows_broadcast = 0;  ///< row copies this shard's senders replicated
    int64_t morsels_stolen = 0;  ///< morsels this shard received from stealing
    int64_t spill_pages = 0;     ///< shard-local spill pages written
  };
  std::vector<ShardStats> shard_stats;
  /// Co-location pass verdict (ShardQueryPlan::Describe()); empty when the
  /// query ran unsharded.
  std::string shard_strategy;
};

/// The query engine facade: statistics, correlations, feedback, optimizer,
/// executor, and the POP re-optimization driver.
class Engine {
 public:
  Engine(Catalog* catalog, EngineOptions options = EngineOptions());

  /// Collects statistics for every table.
  void AnalyzeAll(const AnalyzeOptions& options = AnalyzeOptions());
  /// Runs the CORDS-style correlation detector on every table.
  void DetectAllCorrelations(
      const CorrelationDetectorOptions& options = CorrelationDetectorOptions());

  /// Optimizes `spec` and returns the plan (EXPLAIN entry point).
  StatusOr<PlanNodePtr> Plan(const QuerySpec& spec) const;

  /// Optimizes and executes `spec`, driving POP re-optimization when
  /// enabled. `keep_rows` materializes the output into the result.
  ///
  /// Thread-safe (PR 6): many threads may Run concurrently on one engine.
  /// Statistics/feedback reads during optimization take a shared lock;
  /// mutations (LEO harvest, guardrail stats repair, AnalyzeAll) take it
  /// exclusively, and fault-perturbed queries optimize against a private
  /// statistics copy so one tenant's injected staleness never leaks into a
  /// neighbor's plans. `control` (optional) attaches the serving-layer
  /// plumbing — external cancellation, deadlines, and a tenant broker.
  StatusOr<QueryResult> Run(const QuerySpec& spec, bool keep_rows = false,
                            const QueryControl* control = nullptr);

  /// Builds the cardinality model the optimizer currently sees.
  CardinalityModel MakeCardinalityModel() const;
  /// Builds an optimizer over the current model (borrows `model`).
  Optimizer MakeOptimizer(const CardinalityModel* model) const;

  Catalog* catalog() { return catalog_; }
  StatsCatalog* stats() { return &stats_; }
  FeedbackCache* feedback() { return &feedback_; }
  StHistogramStore* st_histograms() { return &st_store_; }
  PlanCache* plan_cache() { return &plan_cache_; }
  ResultCache* result_cache() { return result_cache_.get(); }
  bool result_cache_enabled() const { return result_cache_enabled_; }
  /// Always true: column views plus VM programs are the only execution
  /// mode. Kept for callers that still forward them to
  /// ExecContext::set_vectorized / set_late_materialize (both no-ops).
  bool vectorized() const { return true; }
  bool late_materialize() const { return true; }
  SimdLevel simd_level() const { return simd_level_; }
  MemoryBroker* memory() { return &memory_; }
  EngineOptions* mutable_options() { return &options_; }
  const EngineOptions& options() const { return options_; }
  /// Process-unique spill-naming tag (plus any configured suffix).
  const std::string& engine_tag() const { return engine_tag_; }

 private:
  /// The one cardinality-model setup: the configured estimator over
  /// `stats`, with the percentile shift set to `percentile`.
  CardinalityModel ModelAt(const StatsCatalog* stats, double percentile) const;
  /// The one optimizer-options setup: the configured options with POP
  /// checks on or off, costed for a `memory_pages` grant.
  OptimizerOptions PlanOptions(bool pop_checks, int64_t memory_pages) const;
  void HarvestFeedback(const PlanNode& plan,
                       const std::map<int, int64_t>& actuals);
  void TuneIndexes(const PlanNode& plan,
                   const std::map<int, int64_t>& actuals,
                   std::vector<std::string>* built);
  void CollectNodeCards(const PlanNode& plan,
                        const std::map<int, int64_t>& actuals,
                        std::vector<QueryResult::NodeCard>* out) const;
  void ArmFuses(const PlanNode& plan, ExecContext* ctx) const;
  void RepairTrippedStats(const PlanNode& plan,
                          const ExecContext::GuardrailTrip& trip,
                          StatsCatalog* stats);

  Catalog* catalog_;
  EngineOptions options_;
  /// Guards stats_/feedback_/st_store_/correlations_ (and index builds)
  /// under concurrent Run: shared for optimization-time reads, exclusive
  /// for the mutation paths (harvest, repair, analyze, tuning).
  mutable std::shared_mutex stats_mu_;
  StatsCatalog stats_;
  FeedbackCache feedback_;
  std::map<std::string, CorrelationInfo> correlations_storage_;
  std::map<std::string, const CorrelationInfo*> correlations_;
  MemoryBroker memory_;
  IndexTuner index_tuner_;
  StHistogramStore st_store_;
  PlanCache plan_cache_;
  /// Declared after memory_ so it is destroyed first and returns its
  /// grant's pages to a still-live broker.
  std::unique_ptr<ResultCache> result_cache_;
  bool result_cache_enabled_ = false;
  SimdLevel simd_level_ = SimdLevel::kScalar;  ///< options/$RQP_SIMD + cpuid
  /// Deterministic spill-directory naming; atomic because concurrent
  /// identical queries (stampedes onto the result cache) run Run() from
  /// several threads at once.
  std::atomic<int64_t> query_seq_{0};
  /// Process-unique engine tag prefixed to spill query ids, so engines
  /// sharing one $RQP_SPILL_DIR (or one process) never collide.
  std::string engine_tag_;
  /// Shared worker pool, created lazily on the first DOP > 1 query and
  /// reused (and grown) across queries. Guarded by pool_mu_ so concurrent
  /// first queries don't race the creation.
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace rqp

#endif  // RQP_ENGINE_ENGINE_H_
