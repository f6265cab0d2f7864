#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

#include "util/env.h"

namespace rqp {

namespace {

/// Process-unique engine tag: pid (distinguishes processes sharing one
/// $RQP_SPILL_DIR) plus a process-wide counter (distinguishes engines within
/// one process).
std::string MakeEngineTag() {
  static std::atomic<int64_t> counter{0};
  return "e" + std::to_string(static_cast<int64_t>(::getpid())) + "x" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// Resolves EngineOptions::num_threads: 0 defers to $RQP_THREADS (unset or
/// unparsable → 1); the result is clamped to [1, 64].
int ResolveNumThreads(int configured) {
  const int64_t dop =
      configured > 0 ? configured : EnvInt64("RQP_THREADS", 1);
  return static_cast<int>(std::clamp<int64_t>(dop, 1, 64));
}

/// Resolves EngineOptions::use_result_cache: -1 defers to $RQP_RESULT_CACHE
/// (off unless set to something other than "0" or "").
bool ResolveResultCacheEnabled(int configured) {
  if (configured >= 0) return configured != 0;
  return EnvFlag("RQP_RESULT_CACHE", /*if_unset=*/false);
}

}  // namespace

Engine::Engine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(std::move(options)),
      memory_(options_.memory_pages), index_tuner_(options_.index_tuner),
      plan_cache_([&] {
        PlanCache::Options po = options_.plan_cache;
        // Skip-verification mode: accept any drift.
        if (options_.plan_cache_skip_verification) po.verify_factor = 1e18;
        return po;
      }()),
      engine_tag_(options_.engine_tag_suffix.empty()
                      ? MakeEngineTag()
                      : MakeEngineTag() + "-" + options_.engine_tag_suffix) {
  result_cache_enabled_ = ResolveResultCacheEnabled(options_.use_result_cache);
  simd_level_ = ResolveSimdLevel(options_.simd);
  ResultCache::Options ro = options_.result_cache;
  // $RQP_RESULT_CACHE_PAGES overrides the configured budget.
  ro.max_pages = EnvInt64("RQP_RESULT_CACHE_PAGES", ro.max_pages);
  ro.max_staleness = options_.result_cache_max_staleness;
  ro.cost_model = options_.cost_model;
  // Cached results are charged against query memory: they compete with
  // operator working memory and shed when the broker runs a deficit.
  result_cache_ = std::make_unique<ResultCache>(&memory_, ro);
}

void Engine::AnalyzeAll(const AnalyzeOptions& options) {
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  stats_.AnalyzeAll(*catalog_, options);
}

void Engine::DetectAllCorrelations(
    const CorrelationDetectorOptions& options) {
  std::unique_lock<std::shared_mutex> lock(stats_mu_);
  correlations_storage_.clear();
  correlations_.clear();
  for (const auto& name : catalog_->TableNames()) {
    const Table* t = catalog_->GetTable(name).value();
    correlations_storage_[name] = DetectCorrelations(*t, options);
    correlations_[name] = &correlations_storage_[name];
  }
}

CardinalityModel Engine::ModelAt(const StatsCatalog* stats,
                                 double percentile) const {
  CardinalityOptions card_opts = options_.cardinality;
  card_opts.percentile = percentile;
  return CardinalityModel(
      stats, card_opts, correlations_.empty() ? nullptr : &correlations_,
      card_opts.estimator.use_feedback ? &feedback_ : nullptr,
      options_.use_st_histograms ? &st_store_ : nullptr);
}

OptimizerOptions Engine::PlanOptions(bool pop_checks,
                                     int64_t memory_pages) const {
  OptimizerOptions opts = options_.optimizer;
  opts.add_pop_checks = pop_checks;
  opts.cost.memory_pages = memory_pages;
  opts.cost.exec = options_.cost_model;
  return opts;
}

CardinalityModel Engine::MakeCardinalityModel() const {
  return ModelAt(&stats_, options_.cardinality.percentile);
}

Optimizer Engine::MakeOptimizer(const CardinalityModel* model) const {
  return Optimizer(catalog_, model,
                   PlanOptions(options_.use_pop, memory_.capacity()));
}

StatusOr<PlanNodePtr> Engine::Plan(const QuerySpec& spec) const {
  std::shared_lock<std::shared_mutex> lock(stats_mu_);
  CardinalityModel model = MakeCardinalityModel();
  Optimizer optimizer = MakeOptimizer(&model);
  auto result = optimizer.Optimize(spec);
  if (!result.ok()) return result.status();
  return std::move(result.value().plan);
}

namespace {

/// Finds the plan node with the given id; returns nullptr if absent.
const PlanNode* FindNode(const PlanNode& node, int id) {
  if (node.id == id) return &node;
  for (const auto& c : node.children) {
    if (const PlanNode* f = FindNode(*c, id)) return f;
  }
  return nullptr;
}

/// Disables all CHECK validity ranges (used once the re-optimization budget
/// is exhausted: execute to completion, however bad the estimates are).
void WidenChecks(PlanNode* node) {
  if (node->op == PlanOp::kCheck) {
    node->check_lo = 0;
    node->check_hi = std::numeric_limits<int64_t>::max();
  }
  for (auto& c : node->children) WidenChecks(c.get());
}

/// Applies fault-injected statistics staleness (believed row counts scaled
/// by per-table factors) to `stats`. Under concurrent serving the target is
/// a private per-query copy of the shared catalog, so one query's injected
/// staleness never perturbs a neighbor's optimization.
void ApplyStatsFactors(StatsCatalog* stats,
                       const std::map<std::string, double>& factors) {
  for (const auto& [table, factor] : factors) {
    TableStats* ts = stats->FindMutable(table);
    if (ts == nullptr) continue;
    const double scaled = static_cast<double>(ts->row_count()) * factor;
    ts->set_row_count(std::max<int64_t>(1, std::llround(scaled)));
  }
}

}  // namespace

void Engine::CollectNodeCards(const PlanNode& plan,
                              const std::map<int, int64_t>& actuals,
                              std::vector<QueryResult::NodeCard>* out) const {
  auto it = actuals.find(plan.id);
  if (it != actuals.end()) {
    out->push_back({plan.id, plan.est_rows, it->second});
  }
  for (const auto& c : plan.children) CollectNodeCards(*c, actuals, out);
}

void Engine::HarvestFeedback(const PlanNode& plan,
                             const std::map<int, int64_t>& actuals) {
  // Record observed scan selectivities for LEO.
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    auto it = actuals.find(node.id);
    if (it != actuals.end()) {
      TableStats* ts = stats_.FindMutable(node.table);
      if (ts != nullptr && node.op == PlanOp::kTableScan) {
        // A full scan observed the true table size; repair a stale believed
        // row count (LEO corrects statistics from execution observations).
        auto live = catalog_->GetTable(node.table);
        if (live.ok()) ts->set_row_count(live.value()->num_rows());
      }
      const double table_rows =
          ts != nullptr ? static_cast<double>(ts->row_count()) : 0.0;
      // Self-tuning histograms: single-column range observations refine
      // the per-column feedback histogram.
      if (options_.use_st_histograms && ts != nullptr) {
        PredicatePtr pred = node.predicate;
        if (node.op == PlanOp::kIndexScan) {
          pred = MakeBetween(node.index_column, node.index_lo, node.index_hi);
          if (node.predicate != nullptr) pred = nullptr;  // residual: skip
        } else if (node.op != PlanOp::kTableScan) {
          pred = nullptr;
        }
        if (pred != nullptr) {
          auto cols = ReferencedColumns(pred);
          int64_t lo, hi;
          PredicatePtr residual;
          if (cols.size() == 1 && ts->HasColumn(cols[0]) &&
              ExtractSargableRange(pred, cols[0], &lo, &hi, &residual) &&
              residual == nullptr) {
            const ColumnStats& cs = ts->column(cols[0]);
            st_store_.Observe(node.table, cols[0], std::max(lo, cs.min),
                              std::min(hi, cs.max), it->second, cs.min,
                              cs.max, ts->row_count());
          }
        }
      }
      if (table_rows > 0) {
        if (node.op == PlanOp::kTableScan && node.predicate != nullptr) {
          feedback_.Record(node.table, node.predicate,
                           static_cast<double>(it->second) / table_rows);
        } else if (node.op == PlanOp::kIndexScan) {
          PredicatePtr full = MakeBetween(node.index_column, node.index_lo,
                                          node.index_hi);
          if (node.predicate != nullptr) {
            full = MakeAnd({full, node.predicate});
          }
          feedback_.Record(node.table, full,
                           static_cast<double>(it->second) / table_rows);
        }
      }
    }
    for (const auto& c : node.children) walk(*c);
  };
  walk(plan);
}

void Engine::TuneIndexes(const PlanNode& plan,
                         const std::map<int, int64_t>& actuals,
                         std::vector<std::string>* built) {
  const CostModel& cm = options_.cost_model;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    for (const auto& c : node.children) walk(*c);
    if (node.op != PlanOp::kTableScan || node.predicate == nullptr) return;
    auto it = actuals.find(node.id);
    if (it == actuals.end()) return;
    auto table_or = catalog_->GetTable(node.table);
    if (!table_or.ok()) return;
    const Table* table = table_or.value();
    const double matches = static_cast<double>(it->second);
    const double rows = static_cast<double>(table->num_rows());
    const double pages = static_cast<double>(table->num_pages());

    for (const auto& column : ReferencedColumns(node.predicate)) {
      int64_t lo, hi;
      PredicatePtr residual;
      if (!ExtractSargableRange(node.predicate, column, &lo, &hi,
                                &residual)) {
        continue;  // no contiguous range on this column
      }
      if (catalog_->FindIndex(node.table, column) != nullptr) continue;
      // What the scan paid vs what an index probe would have cost for the
      // *observed* result size (a lower bound on the range's matches).
      const double scan_cost = pages * cm.seq_page_read + 2 * rows * cm.row_cpu;
      const double index_cost =
          cm.index_descend + matches * (cm.random_page_read + cm.row_cpu);
      const double build_cost =
          rows * std::log2(rows + 1.0) * cm.compare_op +
          pages * cm.spill_page_write;
      if (index_tuner_.ObserveMissedIndex(node.table, column,
                                          scan_cost - index_cost,
                                          build_cost)) {
        auto built_index = catalog_->BuildIndex(node.table, column);
        if (built_index.ok()) {
          index_tuner_.MarkBuilt(node.table, column);
          if (built != nullptr) built->push_back(node.table + "." + column);
        }
      }
    }
  };
  walk(plan);
}

void Engine::ArmFuses(const PlanNode& plan, ExecContext* ctx) const {
  const GuardrailOptions& g = options_.guardrails;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    // CHECK nodes police their own validity ranges and materialized leaves
    // replay already-paid-for rows; neither deserves a fuse.
    if (n.op != PlanOp::kCheck && n.op != PlanOp::kMaterializedSource &&
        n.est_rows > 0) {
      const int64_t limit = std::max(
          g.fuse_min_rows,
          static_cast<int64_t>(std::llround(n.est_rows * g.fuse_factor)));
      ctx->ArmFuse(n.id, n.est_rows, limit);
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(plan);
}

void Engine::RepairTrippedStats(const PlanNode& plan,
                                const ExecContext::GuardrailTrip& trip,
                                StatsCatalog* stats) {
  // Emergency statistics repair before the safe retry (LEO-style, same
  // precedent as HarvestFeedback): the fuse proved the estimates under the
  // tripped node wrong, so re-anchor the believed base-table cardinalities
  // in its subtree to the live catalog. Budget trips carry no node id; they
  // repair under the whole plan.
  const PlanNode* root =
      trip.plan_node_id >= 0 ? FindNode(plan, trip.plan_node_id) : nullptr;
  if (root == nullptr) root = &plan;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    if (n.op == PlanOp::kTableScan || n.op == PlanOp::kIndexScan) {
      TableStats* ts = stats->FindMutable(n.table);
      auto live = catalog_->GetTable(n.table);
      if (ts != nullptr && live.ok()) {
        ts->set_row_count(live.value()->num_rows());
      }
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(*root);
}

StatusOr<QueryResult> Engine::Run(const QuerySpec& spec, bool keep_rows,
                                  const QueryControl* control) {
  QueryResult result;

  // Serving-layer plumbing: a scheduler-submitted query executes against
  // its tenant's broker, may carry a per-query fault schedule, and resets
  // faulted attempts to its tenant quota rather than the engine baseline.
  MemoryBroker* broker =
      control != nullptr && control->broker != nullptr ? control->broker
                                                       : &memory_;
  const FaultSchedule& faults =
      control != nullptr && control->faults != nullptr ? *control->faults
                                                       : options_.faults;
  const int64_t baseline_pages =
      control != nullptr && control->baseline_pages > 0
          ? control->baseline_pages
          : options_.memory_pages;
  const auto wall_deadline =
      control != nullptr && control->deadline_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(control->deadline_ms)
          : std::chrono::steady_clock::time_point{};

  // Fault injection: statistics staleness must land before optimization so
  // the optimizer plans against the perturbed world. The perturbation goes
  // into a private copy of the statistics catalog — concurrent queries keep
  // planning against the clean shared catalog, and nothing needs restoring
  // when Run returns.
  const StatsCatalog* stats_view = &stats_;
  std::unique_ptr<StatsCatalog> perturbed_stats;
  if (!faults.empty()) {
    // A previous faulted query may have left the broker at a dropped
    // capacity; faulted queries always start from the configured baseline.
    broker->set_capacity(baseline_pages);
    FaultInjector stats_faults(faults);
    const std::map<std::string, double> factors = stats_faults.StatsFactors();
    result.faults.Accumulate(stats_faults.counters());
    if (!factors.empty()) {
      std::shared_lock<std::shared_mutex> lock(stats_mu_);
      perturbed_stats = std::make_unique<StatsCatalog>(stats_);
      ApplyStatsFactors(perturbed_stats.get(), factors);
      stats_view = perturbed_stats.get();
    }
  }

  // Result cache: the reuse tier above the plan cache. A hit skips
  // optimization and execution entirely; its deterministic charges are the
  // re-emit work plus any delta-patch scan. On a miss the single-flight
  // guard is held for the rest of Run, so concurrent identical queries
  // wait here and then find the published entry instead of recomputing.
  const auto fill_cache_totals = [this](QueryResult* r) {
    r->plan_cache_misses = plan_cache_.misses();
    r->plan_cache_evictions = plan_cache_.evictions();
  };
  std::string rc_key;
  ResultCache::Flight rc_flight;
  ResultCache::Snapshot rc_snapshot;
  if (result_cache_enabled_) {
    // Scheduled cache-corruption faults draw from a per-query injector
    // seeded by the query's schedule, like the stats perturbation above.
    std::unique_ptr<FaultInjector> cache_faults;
    if (!faults.empty()) {
      cache_faults = std::make_unique<FaultInjector>(faults);
    }
    rc_key = PlanCache::Key(spec);
    ResultCache::Hit hit;
    bool found =
        result_cache_->Lookup(rc_key, *catalog_, cache_faults.get(), &hit);
    if (!found) {
      rc_flight = result_cache_->AcquireFlight(rc_key);
      if (rc_flight.waited()) {
        // Another session computed this key while we blocked; its result
        // is usually published now.
        found = result_cache_->Lookup(rc_key, *catalog_, cache_faults.get(),
                                      &hit);
        if (found) rc_flight.Release();
      }
    }
    if (cache_faults != nullptr) {
      result.faults.Accumulate(cache_faults->counters());
    }
    if (found) {
      result.result_cache_hit = true;
      result.result_cache_patched = hit.patched;
      result.result_cache_stale = hit.stale;
      result.output_rows = hit.rows;
      result.output_slots = std::move(hit.slots);
      result.counters = hit.counters;
      result.cost = hit.counters.cost_units;
      result.elapsed = hit.counters.cost_units;
      result.first_plan = "[ResultCache] hit";
      result.final_plan = result.first_plan;
      if (keep_rows) result.rows = *hit.batches;
      fill_cache_totals(&result);
      return result;
    }
    // Snapshot the referenced tables' epochs *before* execution: rows
    // appended mid-computation count as post-snapshot delta, never as
    // silently-included state.
    rc_snapshot = ResultCache::TakeSnapshot(spec, *catalog_);
    // Give cached results back before the query claims working memory.
    result_cache_->ShedPages(memory_.deficit());
  }

  // Rio proactive box check: is one plan optimal across the whole
  // cardinality-uncertainty box?
  bool rio_skip_checks = false;
  bool rio_conservative = false;
  if (options_.use_rio) {
    auto signature_at = [&](double percentile) -> StatusOr<std::string> {
      std::shared_lock<std::shared_mutex> lock(stats_mu_);
      const CardinalityModel corner_model = ModelAt(stats_view, percentile);
      Optimizer corner_opt(catalog_, &corner_model,
                           PlanOptions(false, broker->capacity()));
      auto r = corner_opt.Optimize(spec);
      if (!r.ok()) return r.status();
      return r.value().plan->Explain(false);
    };
    auto lo = signature_at(options_.rio_low_percentile);
    if (!lo.ok()) return lo.status();
    auto mid = signature_at(0.5);
    if (!mid.ok()) return mid.status();
    auto hi = signature_at(options_.rio_high_percentile);
    if (!hi.ok()) return hi.status();
    rio_skip_checks = *lo == *mid && *mid == *hi;
    result.rio_robust_box = rio_skip_checks;
    // Box check failed and there is no reactive net: hedge with the
    // conservative corner plan.
    rio_conservative = !rio_skip_checks && !options_.use_pop;
  }

  CardinalityModel model =
      ModelAt(stats_view, rio_conservative ? options_.rio_high_percentile
                                           : options_.cardinality.percentile);
  const OptimizerOptions final_opts =
      PlanOptions(options_.use_pop && !rio_skip_checks, broker->capacity());
  Optimizer optimizer(catalog_, &model, final_opts);

  PlanNodePtr plan;
  std::string cache_key;
  PlanCache::Flight pc_flight;
  if (options_.use_plan_cache) {
    cache_key = PlanCache::Key(spec);
    bool failed = false;
    {
      std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
      PlanCoster verifier(&model, final_opts.cost);
      plan = plan_cache_.LookupVerified(cache_key, verifier, &failed);
    }
    result.plan_verification_failed = failed;
    if (plan == nullptr) {
      // Single-flight on the optimization: concurrent identical queries
      // wait for the leader's Put instead of optimizing in parallel. The
      // wait happens with the stats lock dropped — holding it here while a
      // writer queued for exclusive access could wedge the leader's own
      // re-acquisition on writer-priority implementations.
      pc_flight = plan_cache_.BeginCompute(cache_key);
      if (pc_flight.waited()) {
        std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
        PlanCoster verifier(&model, final_opts.cost);
        plan = plan_cache_.LookupVerified(cache_key, verifier, &failed);
      }
    }
    result.plan_cache_hit = plan != nullptr;
  }
  // Hedged robust selection: the pre-scored runner-up the retry paths
  // switch to instead of re-optimizing (null on plan-cache hits — the cache
  // stores only winners).
  PlanNodePtr hedge_fallback;
  if (plan == nullptr) {
    std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
    auto opt = optimizer.Optimize(spec);
    if (!opt.ok()) return opt.status();
    plan = std::move(opt.value().plan);
    result.plans_considered = opt.value().plans_considered;
    result.robust_plan_used = opt.value().robust_used;
    result.robust_hedged = opt.value().hedged;
    hedge_fallback = std::move(opt.value().fallback_plan);
    if (options_.use_plan_cache) plan_cache_.Put(cache_key, *plan);
  }
  pc_flight.Release();  // the plan is published; stop serializing peers
  result.first_plan = plan->Explain();

  std::vector<MaterializedLeaf> leaves;
  // Abandoned attempts (guardrail trips, POP restarts) still spent real
  // work: every counter they charged folds into the query's totals.
  ExecCounters accumulated;
  const GuardrailOptions& guard = options_.guardrails;
  const int64_t query_seq = query_seq_.fetch_add(1, std::memory_order_relaxed);

  // Parallel execution setup. The pool is shared across queries and lazily
  // created (and grown) on first DOP > 1 use; at DOP 1 no pool exists and
  // the builder produces the classic serial tree.
  ParallelOptions parallel;
  parallel.num_threads = ResolveNumThreads(options_.num_threads);
  parallel.morsel_rows = options_.morsel_rows;
  if (parallel.num_threads > 1) {
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    if (pool_ == nullptr || pool_->num_threads() < parallel.num_threads) {
      pool_ = std::make_unique<ThreadPool>(parallel.num_threads);
    }
    parallel.pool = pool_.get();
  }
  int recoveries = 0;          ///< circuit-breaker count: reopts + retries
  bool circuit_open = false;   ///< breaker tripped: run unguarded
  bool safe_plan_active = false;

  for (int attempt = 0;; ++attempt) {
    ExecContext ctx(broker);
    ctx.set_cost_model(options_.cost_model);
    ctx.set_simd(simd_level_);
    ctx.set_spill_dir(options_.spill_dir);
    std::string query_id = engine_tag_;
    query_id += "-q";
    query_id += std::to_string(query_seq);
    query_id += "-a";
    query_id += std::to_string(attempt);
    ctx.set_query_id(std::move(query_id));
    if (control != nullptr) {
      if (control->cancel != nullptr) ctx.set_cancel_token(control->cancel);
      if (control->deadline_cost > 0) {
        ctx.set_deadline_cost(control->deadline_cost);
      }
      if (control->deadline_ms > 0) ctx.set_deadline_wall(wall_deadline);
    }
    if (!faults.empty()) {
      // Re-arm the schedule and reset broker capacity so every attempt
      // experiences the identical environment.
      broker->set_capacity(baseline_pages);
      ctx.InstallFaults(faults);
    }
    const bool guarded = guard.enabled && !circuit_open;
    if (guarded) {
      if (guard.cost_budget > 0) ctx.set_cost_budget(guard.cost_budget);
      if (guard.fuse_factor > 0) ArmFuses(*plan, &ctx);
    }

    auto op = BuildExecutable(*plan, catalog_, spec.params, &parallel);
    if (!op.ok()) return op.status();

    // Materialize when the caller wants rows or when this session is the
    // result-cache leader for the key (the flight held since the miss).
    const bool materialize = keep_rows || rc_flight.active();
    std::vector<RowBatch> rows;
    auto drained =
        DrainOperator(op.value().get(), &ctx, materialize ? &rows : nullptr);
    if (ctx.faults() != nullptr) {
      result.faults.Accumulate(ctx.faults()->counters());
    }

    if (!drained.ok() && !ctx.has_reopt_request() && guarded &&
        ctx.has_trip()) {
      // Guardrail trip: a fuse blew or the cost budget ran out. Charge the
      // abandoned attempt to the query, then hedge with the conservative
      // plan (once) or finish unguarded when the breaker opens.
      const ExecContext::GuardrailTrip trip = *ctx.trip();
      accumulated.Merge(ctx.counters());
      if (trip.kind == ExecContext::GuardrailTrip::Kind::kCardinalityFuse) {
        ++result.fuse_trips;
      } else {
        ++result.budget_aborts;
      }
      ++result.guardrail_retries;
      if (++recoveries >= guard.max_recoveries) circuit_open = true;

      if (!guard.safe_plan_retry || safe_plan_active) {
        // No (further) hedge available: the breaker opens and the current
        // plan runs to completion without guardrails.
        circuit_open = true;
        result.degradation = QueryResult::Degradation::kUnguarded;
        continue;
      }
      {
        // The repair is shared learning (the live catalog is ground truth),
        // so it lands in the shared stats; a fault-perturbed query also
        // repairs its private copy, which is what its safe retry plans from.
        std::unique_lock<std::shared_mutex> stats_lock(stats_mu_);
        RepairTrippedStats(*plan, trip, &stats_);
      }
      if (perturbed_stats != nullptr) {
        RepairTrippedStats(*plan, trip, perturbed_stats.get());
      }
      if (hedge_fallback != nullptr) {
        // Hedged robust mode: switch to the pre-scored runner-up — already
        // costed over the same perturbation set — instead of re-optimizing.
        plan = std::move(hedge_fallback);
        safe_plan_active = true;
        result.safe_plan_used = true;
        result.hedged_fallback_used = true;
        result.degradation = QueryResult::Degradation::kSafeRetry;
        continue;
      }
      const CardinalityModel safe_model =
          ModelAt(stats_view, guard.safe_percentile);
      Optimizer safe_opt(catalog_, &safe_model, final_opts);
      std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
      auto safe = safe_opt.Optimize(spec, leaves);
      if (!safe.ok()) return safe.status();
      plan = std::move(safe.value().plan);
      safe_plan_active = true;
      result.safe_plan_used = true;
      result.degradation = QueryResult::Degradation::kSafeRetry;
      continue;
    }

    if (!drained.ok()) {
      if (!ctx.has_reopt_request()) return drained.status();
      // POP: a checkpoint fired. Keep the spent work both physically (the
      // materialized intermediate) and in the accounting (cost so far).
      const ExecContext::ReoptRequest& req = *ctx.reopt_request();
      accumulated.Merge(ctx.counters());
      ++result.reoptimizations;
      // POP re-optimizations count against the same circuit breaker as
      // guardrail retries, bounding total recovery attempts per query.
      if (guard.enabled && ++recoveries >= guard.max_recoveries) {
        circuit_open = true;
      }

      const PlanNode* check = FindNode(*plan, req.plan_node_id);
      if (check == nullptr || check->children.empty()) {
        return Status::Internal("re-optimization request for unknown node");
      }
      MaterializedLeaf leaf;
      leaf.covered_tables = check->children[0]->BaseTables();
      leaf.slots = req.slots;
      leaf.rows = req.actual_rows;
      leaf.batches = req.materialized;
      // Drop leaves subsumed by the new one.
      leaves.erase(std::remove_if(leaves.begin(), leaves.end(),
                                  [&](const MaterializedLeaf& old) {
                                    return std::includes(
                                        leaf.covered_tables.begin(),
                                        leaf.covered_tables.end(),
                                        old.covered_tables.begin(),
                                        old.covered_tables.end());
                                  }),
                   leaves.end());
      leaves.push_back(std::move(leaf));

      if (hedge_fallback != nullptr) {
        // A CHECK on the hedged winner fired: the penalty surface was as
        // steep as feared. Switch to the pre-scored runner-up directly —
        // it was selected for the flattest worst case, so no fresh
        // optimization round is needed (the materialized leaf is kept for
        // any later re-optimization).
        plan = std::move(hedge_fallback);
        result.hedged_fallback_used = true;
        continue;
      }
      std::shared_lock<std::shared_mutex> stats_lock(stats_mu_);
      auto reopt = optimizer.Optimize(spec, leaves);
      if (!reopt.ok()) return reopt.status();
      plan = std::move(reopt.value().plan);
      if (attempt + 1 >= options_.max_reoptimizations) {
        WidenChecks(plan.get());
      }
      continue;
    }

    // Success.
    result.output_rows = *drained;
    result.output_slots = op.value()->output_slots();
    result.counters = ctx.counters();
    result.counters.Merge(accumulated);
    result.cost = result.counters.cost_units;
    result.elapsed =
        result.counters.cost_units - result.counters.parallel_saved_units;
    result.final_plan = plan->Explain();
    CollectNodeCards(*plan, ctx.actual_cardinalities(), &result.node_cards);
    if (options_.collect_feedback || options_.auto_index_tuning) {
      std::unique_lock<std::shared_mutex> stats_lock(stats_mu_);
      if (options_.collect_feedback) {
        HarvestFeedback(*plan, ctx.actual_cardinalities());
      }
      if (options_.auto_index_tuning) {
        TuneIndexes(*plan, ctx.actual_cardinalities(), &result.indexes_built);
      }
    }
    // Publish into the result cache only here, on the one fully-successful
    // exit: aborted attempts (guardrail trips, POP restarts, injected
    // failures) re-enter the loop with a fresh `rows`, so a partially
    // filled result can never become visible. The flight releases when
    // Run returns, waking any sessions queued on this key.
    if (rc_flight.active()) {
      result_cache_->Insert(rc_key, spec, *catalog_, std::move(rc_snapshot),
                            result.output_slots,
                            keep_rows ? rows : std::move(rows), *drained);
    }
    if (keep_rows) result.rows = std::move(rows);
    fill_cache_totals(&result);
    return result;
  }
}

}  // namespace rqp
