#ifndef RQP_CACHE_RESULT_CACHE_H_
#define RQP_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/context.h"
#include "exec/sort_agg_ops.h"
#include "expr/predicate.h"
#include "fault/fault.h"
#include "optimizer/optimizer.h"
#include "storage/table.h"
#include "util/cache_util.h"

namespace rqp {

/// Semantic result cache: the result-reuse tier above the plan cache.
/// Entries are keyed by the normalized QuerySpec fingerprint
/// (PlanCache::Key), store the query's full result RowBatches, and are kept
/// *correct under data change* by the per-table epoch counters:
///
///  - Any reload-epoch change (SetColumnData / mutable_column — in-place
///    mutation that can rewrite history) invalidates the entry.
///  - Append-only change (AppendRow) is measured precisely: the rows in
///    [snapshot.rows, table.num_rows) are the delta. Within the bounded
///    staleness budget the entry is served as-is (a *stale hit*); beyond
///    it, single-table aggregate results are *patched* pequod-style by
///    folding the delta rows into the cached accumulators (all four
///    aggregate functions are decomposable), and everything else is
///    invalidated.
///
/// Robustness integration:
///  - Every entry's pages are held by one MemoryGrant on the broker given at
///    construction (the engine's query-memory broker), grown all-or-nothing
///    (TryGrow: no overcommit): cached results compete with query working
///    memory, and ShedPages(broker deficit) sheds LRU entries instead of
///    OOMing.
///  - Single-flight stampede suppression (shared KeyedFlight utility):
///    concurrent identical queries wait on the in-flight computation.
///  - Fault-injector integration: kCacheCorruption events damage an entry
///    at lookup; the FNV-1a checksum detects it, the entry is dropped, and
///    the query recomputes — corrupted rows are never served.
///  - Deterministic cost accounting: a hit charges only re-emit work
///    (rows x row_cpu); a patched hit additionally charges the delta scan.
///
/// Thread-safe; the cache mutex guards the grant, so the lock order is
/// cache mutex -> broker mutex (the broker never calls into the cache).
class ResultCache {
 public:
  struct Options {
    size_t max_entries = 64;
    /// Total page budget across entries (<= 0: unlimited beyond the
    /// broker's say-so). The broker remains the binding constraint.
    int64_t max_pages = 4096;
    /// Largest single result admitted (<= 0: unlimited).
    int64_t max_entry_pages = 1024;
    /// Bounded staleness: a cached entry whose referenced tables have
    /// received at most this many appended rows in total since the
    /// snapshot may be served unpatched. 0 = always fresh.
    int64_t max_staleness = 0;
    /// Constants for the deterministic hit/patch charges.
    CostModel cost_model;
  };

  struct Stats {
    int64_t hits = 0;          ///< total served (fresh + stale + patched)
    int64_t patched_hits = 0;  ///< served after incremental maintenance
    int64_t stale_hits = 0;    ///< served within the staleness budget
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;      ///< LRU / capacity / revocation drops
    int64_t invalidations = 0;  ///< epoch-based correctness drops
    int64_t corruptions_detected = 0;
  };

  /// A served result plus its deterministic charges. `batches` is a shared
  /// snapshot: later patches/evictions swap the entry's pointer rather
  /// than mutating the vector, so a Hit stays valid after release.
  struct Hit {
    std::shared_ptr<const std::vector<RowBatch>> batches;
    std::vector<std::string> slots;  ///< column names of `batches`
    int64_t rows = 0;
    bool patched = false;
    bool stale = false;
    double cost_units = 0;
    int64_t pages_read = 0;       ///< delta pages scanned by a patch
    int64_t rows_processed = 0;
    int64_t predicate_evals = 0;  ///< delta rows filtered by a patch
  };

  /// Epoch snapshot of one referenced table at result-computation time.
  struct TableEpoch {
    std::string table;
    int64_t append_epoch = 0;
    int64_t reload_epoch = 0;
    int64_t rows = 0;
  };
  using Snapshot = std::vector<TableEpoch>;

  using Flight = KeyedFlight<std::string>::Guard;

  /// Charges every entry's pages to `broker`, which must outlive the cache.
  explicit ResultCache(MemoryBroker* broker)
      : ResultCache(broker, Options()) {}
  ResultCache(MemoryBroker* broker, Options options)
      : options_(options), grant_(broker) {}

  /// Epochs of every table `spec` references, as of now. The engine takes
  /// the snapshot *before* execution so rows appended mid-computation are
  /// conservatively treated as post-snapshot delta.
  static Snapshot TakeSnapshot(const QuerySpec& spec, const Catalog& catalog);

  /// Looks up `key`, enforcing freshness against the current catalog
  /// epochs (invalidating, stale-serving, or patching as appropriate) and
  /// drawing scheduled corruption faults from `faults` (may be null).
  /// Returns true and fills `hit` only when a correct result is served.
  bool Lookup(const std::string& key, const Catalog& catalog,
              FaultInjector* faults, Hit* hit);

  /// Single-flight token for the miss path; a guard that `waited()` should
  /// re-run Lookup before computing.
  Flight AcquireFlight(const std::string& key) { return flight_.Acquire(key); }

  /// Publishes a completed result. Must only be called after the query
  /// finished successfully — aborted attempts (guardrail trips, faults,
  /// retries) must never reach here, which is what keeps partially-filled
  /// entries unobservable. Oversized results are skipped; otherwise LRU
  /// entries are evicted until entry-count, page-budget, and broker
  /// constraints all admit the new entry (skipped if the cache is empty
  /// and the broker still refuses).
  void Insert(const std::string& key, const QuerySpec& spec,
              const Catalog& catalog, Snapshot snapshot,
              std::vector<std::string> slots, std::vector<RowBatch> batches,
              int64_t rows);

  /// Sheds LRU entries until `deficit` pages (the broker's deficit()) are
  /// returned; the cache may shed to empty (no progress minimum — cached
  /// results are discretionary memory). Returns the pages shed.
  int64_t ShedPages(int64_t deficit);

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  int64_t total_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return grant_.pages();
  }
  void Clear();

  /// Pages a result of `rows` rows occupies under the simulated page
  /// model (minimum 1 — an entry is never free).
  static int64_t PagesFor(int64_t rows) {
    const int64_t pages = (rows + kRowsPerPage - 1) / kRowsPerPage;
    return pages < 1 ? 1 : pages;
  }

 private:
  /// How (whether) an entry can be incrementally maintained.
  struct MaintenanceInfo {
    bool maintainable = false;
    std::string table;             ///< the single referenced table
    PredicatePtr predicate;        ///< bound (param-free); may be null
    std::vector<size_t> group_cols;  ///< table column index per group slot
    std::vector<AggSpec> aggs;
    std::vector<size_t> agg_cols;  ///< table column index per aggregate
  };

  struct Entry {
    std::shared_ptr<const std::vector<RowBatch>> batches;
    std::vector<std::string> slots;
    int64_t rows = 0;
    int64_t pages = 0;
    uint64_t checksum = 0;
    Snapshot snapshot;
    MaintenanceInfo maint;
  };

  static uint64_t Checksum(const std::vector<RowBatch>& batches);
  static MaintenanceInfo AnalyzeMaintenance(
      const QuerySpec& spec, const Catalog& catalog,
      const std::vector<RowBatch>& batches);

  /// Drops `key`'s entry (if present), returning its pages to the broker.
  /// Caller holds mu_.
  void EraseLocked(const std::string& key);
  bool EvictOldestLocked();
  /// Grows the grant by `pages`, evicting LRU entries down to `min_keep`
  /// until they fit. Caller holds mu_. False when nothing more can be
  /// evicted and the pages still do not fit.
  bool ReserveLocked(int64_t pages, size_t min_keep);

  /// Applies the delta rows to a maintainable entry in place (copy-on-
  /// patch). Returns false — and erases the entry — when patching is not
  /// possible after all (table vanished, memory refused). Caller holds
  /// mu_.
  bool PatchLocked(const std::string& key, Entry* entry,
                   const Catalog& catalog, Hit* hit);

  Options options_;
  mutable std::mutex mu_;
  LruMap<std::string, Entry> entries_;
  KeyedFlight<std::string> flight_;
  MemoryGrant grant_;  ///< every entry's pages
  Stats stats_;
};

}  // namespace rqp

#endif  // RQP_CACHE_RESULT_CACHE_H_
