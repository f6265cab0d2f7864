#ifndef RQP_SERVER_ADMISSION_H_
#define RQP_SERVER_ADMISSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace rqp {

/// Per-tenant scheduling configuration.
struct TenantOptions {
  /// Weighted-fair share: a tenant with weight 2 drains its queue twice as
  /// fast (in service cost units) as a weight-1 tenant under contention.
  double weight = 1.0;
  /// Memory quota in broker pages (0: the scheduler default quota).
  int64_t quota_pages = 0;
};

/// Admission-control and queuing policy knobs, shared by the real
/// QueryScheduler and the discrete-event workload simulator so the bench
/// tables exercise exactly the policy the server runs.
struct AdmissionOptions {
  /// Queries running concurrently (the MPL bound). 0 reads
  /// $RQP_MAX_CONCURRENT (unset/invalid → 4); clamped to [1, 256].
  int max_concurrent = 0;
  /// Bound on *waiting* queries across all tenants; arrivals beyond it are
  /// rejected with kOverloaded (shed load, don't collapse). <= 0: unbounded.
  int max_queue_depth = 64;
  /// Default per-tenant memory quota in pages. 0 reads
  /// $RQP_TENANT_QUOTA_PAGES (unset/invalid → total_memory_pages).
  int64_t tenant_quota_pages = 0;
  /// Global page budget arbitrated across tenant brokers.
  int64_t total_memory_pages = 1 << 20;
  /// Estimated-demand watermark: a new query is rejected with kOverloaded
  /// when the estimated pages of queued + running queries would exceed
  /// `memory_watermark * total_memory_pages`. Estimates may legitimately
  /// overcommit (spilling absorbs the overflow), hence the factor > 1.
  double memory_watermark = 4.0;
  /// Default per-query deadline on the cost clock (<= 0: none).
  double default_deadline_cost = 0;
  /// Default wall-clock deadline in ms. -1 reads $RQP_QUERY_DEADLINE_MS
  /// (unset/invalid → 0 = none).
  int64_t deadline_ms = -1;
  /// Bounded retry-after-shed: how many times a query cancelled by memory
  /// arbitration (not by its own guardrails) is re-queued before its
  /// kOverloaded status is surfaced to the client.
  int max_shed_retries = 1;
  /// Legacy single-tenant pick orders (the §5.5 workload experiments): admit
  /// highest priority first instead of FIFO.
  bool priority_scheduling = false;
  /// Weighted-fair queuing across tenants (virtual-time WFQ). When false,
  /// the queue drains FIFO (or by priority, above) regardless of tenant.
  bool weighted_fair = false;
  std::map<std::string, TenantOptions> tenants;
};

/// Fills the env-deferred fields ($RQP_MAX_CONCURRENT,
/// $RQP_TENANT_QUOTA_PAGES, $RQP_QUERY_DEADLINE_MS) and clamps.
AdmissionOptions ResolveAdmissionOptions(AdmissionOptions options);

/// The admission-control state machine: a bounded admission queue with
/// per-tenant weighted-fair ordering and an MPL bound on the running set.
/// Pure policy — no threads, no clocks, no memory brokers — so the real
/// scheduler drives it under a mutex while the workload simulator drives
/// it from a deterministic event loop, and both shed identically.
///
/// States per query: (arrive) → Enqueue → queued → PickNext → running →
/// OnFinish. Enqueue rejects with typed kOverloaded on any of: queue depth
/// exceeded, per-tenant quota exceeded by the query's own estimate, or the
/// estimated-demand watermark exceeded. RemoveQueued serves deadline sheds
/// of never-started queries; EnqueueRetry re-admits a shed query without
/// re-running the admission checks it already passed.
class AdmissionController {
 public:
  struct Item {
    int64_t id = 0;
    std::string tenant;
    int64_t est_pages = 0;
    int priority = 0;
  };

  /// `options` must already be resolved (ResolveAdmissionOptions).
  explicit AdmissionController(AdmissionOptions options);

  /// Admission decision; on OK the item is waiting in its tenant's queue.
  Status Enqueue(Item item);

  /// Re-admits a previously admitted query after a shed. Bypasses the
  /// admission checks and jumps to the queue front so bounded retries do
  /// not pay full re-queuing latency.
  void EnqueueRetry(Item item);

  /// Next query to dispatch under the MPL bound, or -1 when the running
  /// set is full or nothing is queued. The returned query is moved to the
  /// running set.
  int64_t PickNext();

  /// Completion (success, failure, shed, or deadline): releases the MPL
  /// slot and advances the tenant's virtual time by `service_cost/weight`.
  void OnFinish(int64_t id, double service_cost);

  /// Removes a still-queued query (deadline passed before start). Returns
  /// false when the id is not queued.
  bool RemoveQueued(int64_t id);

  int running() const { return static_cast<int>(running_.size()); }
  int queued() const { return static_cast<int>(queue_.size()); }
  /// Estimated pages of all queued + running queries (the watermark input).
  int64_t admitted_est_pages() const { return est_admitted_; }
  /// Effective quota for `tenant` (its override or the default).
  int64_t quota_for(const std::string& tenant) const;
  const AdmissionOptions& options() const { return opts_; }

 private:
  struct Tenant {
    double weight = 1.0;
    int64_t quota = 0;
    double vtime = 0;  ///< WFQ virtual time: served cost / weight
    int active = 0;    ///< queued + running queries
  };
  Tenant& TenantOf(const std::string& name);

  AdmissionOptions opts_;
  std::vector<Item> queue_;  ///< global FIFO; WFQ picks within it by tenant
  std::map<int64_t, Item> running_;
  std::map<std::string, Tenant> tenants_;
  int64_t est_admitted_ = 0;
  double global_vtime_ = 0;  ///< activation floor for idle tenants
};

}  // namespace rqp

#endif  // RQP_SERVER_ADMISSION_H_
