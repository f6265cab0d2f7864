#ifndef RQP_SERVER_SCHEDULER_H_
#define RQP_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/admission.h"

namespace rqp {

/// The serving layer (PR 6): admits, queues, and runs many queries
/// concurrently against one Engine. Composed of three mechanisms, each of
/// which degrades gracefully instead of collapsing under overload — the
/// paper's robustness goal applied to whole-server scheduling:
///
///  - Admission control (AdmissionController): a bounded queue with
///    per-tenant weighted-fair ordering; arrivals beyond the queue depth or
///    the estimated-memory watermark are rejected with a typed kOverloaded
///    the client can retry, instead of being accepted into a thrashing
///    system.
///  - Deadlines: per-query cost-clock and/or wall-clock deadlines wired
///    into the executor's cooperative-cancellation points; an expired query
///    returns kDeadlineExceeded and its slot goes to a query that can still
///    meet its deadline.
///  - Tenant memory arbitration: each tenant's queries run against a
///    per-tenant MemoryBroker capped at the tenant quota. Under global
///    pressure the scheduler robs the richest tenant first — shrinking its
///    broker capacity so its operators shed at their next phase boundary
///    (the existing mid-query revocation path) — and only when actual usage
///    exceeds the hard ceiling does it shed a query outright. Sheds are
///    retried a bounded number of times before kOverloaded surfaces.
///
/// Dispatch runs on `max_concurrent` session threads; SubmitAsync never
/// blocks on execution. Thread-safe; one scheduler per engine.
class QueryScheduler {
 public:
  struct Request {
    QuerySpec spec;
    std::string tenant = "default";
    bool keep_rows = false;
    /// Estimated memory demand in broker pages (admission watermark and
    /// arbitration input). 0 = assume negligible.
    int64_t est_pages = 0;
    int priority = 0;
    /// Per-query deadline overrides (0: the scheduler defaults).
    double deadline_cost = 0;
    int64_t deadline_ms = 0;
    /// Per-query fault schedule (chaos harness); null = the engine default.
    const FaultSchedule* faults = nullptr;
  };

  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;        ///< finished with an OK status
    int64_t failed = 0;           ///< finished with a non-OK, non-typed status
    int64_t rejected = 0;         ///< kOverloaded at admission
    int64_t deadline_exceeded = 0;
    int64_t shed_retries = 0;     ///< re-queued after a memory shed
    int64_t overload_sheds = 0;   ///< kOverloaded surfaced after retries ran out
    int64_t capacity_revocations = 0;  ///< rob-richest capacity shrinks
    int64_t hard_sheds = 0;       ///< running queries cancelled outright
  };

  /// `options` is resolved (env knobs) at construction. The engine is
  /// borrowed and must outlive the scheduler.
  QueryScheduler(Engine* engine, AdmissionOptions options = AdmissionOptions());
  /// Cancels everything still queued or running and joins the session
  /// threads; all outstanding futures are fulfilled before return.
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Admission decision + asynchronous execution. The future resolves with
  /// the query result, a typed kOverloaded (rejected at admission, or shed
  /// with retries exhausted), kDeadlineExceeded, or the execution error.
  std::future<StatusOr<QueryResult>> SubmitAsync(Request request);

  /// Convenience: SubmitAsync + wait. Deadlocks if called from a session
  /// thread (there are none outside this class).
  StatusOr<QueryResult> Submit(Request request);

  /// Blocks until every submitted query has resolved.
  void Drain();

  Stats stats() const;
  /// The tenant's broker (created on first use, capacity = tenant quota).
  MemoryBroker* tenant_broker(const std::string& tenant);
  const AdmissionOptions& options() const { return opts_; }
  int queued() const;
  int running() const;

 private:
  struct Pending {
    Request request;
    std::promise<StatusOr<QueryResult>> promise;
    std::unique_ptr<QueryCancelToken> token;
    int shed_retries = 0;
    bool running = false;
  };

  void SessionLoop();
  /// Runs one admitted query end to end. Called with `lock` held; unlocks
  /// around Engine::Run and re-locks before returning.
  void RunOne(int64_t id, std::unique_lock<std::mutex>* lock);
  MemoryBroker* BrokerLocked(const std::string& tenant);
  /// Rob-richest memory arbitration before dispatching `est_pages` for
  /// `tenant`; may shrink other tenants' broker capacities (never
  /// `tenant`'s own) and hard-shed a running query.
  void ArbitrateLocked(const std::string& tenant, int64_t est_pages,
                       int64_t incoming_id);
  /// Restores robbed broker capacities once global usage is back under the
  /// page budget.
  void RestoreCapacitiesLocked();
  int64_t TotalUsedLocked() const;

  Engine* engine_;
  AdmissionOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< queued work for session threads
  std::condition_variable drain_cv_;  ///< pending_ emptied
  AdmissionController ctrl_;
  std::map<int64_t, Pending> pending_;  ///< queued + running queries
  std::map<std::string, std::unique_ptr<MemoryBroker>> brokers_;
  Stats stats_;
  int64_t next_id_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> sessions_;
};

}  // namespace rqp

#endif  // RQP_SERVER_SCHEDULER_H_
