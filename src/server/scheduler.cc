#include "server/scheduler.h"

#include <algorithm>
#include <utility>

namespace rqp {

QueryScheduler::QueryScheduler(Engine* engine, AdmissionOptions options)
    : engine_(engine),
      opts_(ResolveAdmissionOptions(std::move(options))),
      ctrl_(opts_) {
  sessions_.reserve(static_cast<size_t>(opts_.max_concurrent));
  for (int i = 0; i < opts_.max_concurrent; ++i) {
    sessions_.emplace_back(&QueryScheduler::SessionLoop, this);
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Queued queries are rejected here; running queries are cancelled via
    // their tokens and their session threads fulfill the promises.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.running) {
        it->second.token->Cancel(StatusCode::kOverloaded,
                                 "scheduler shutting down");
        ++it;
        continue;
      }
      ctrl_.RemoveQueued(it->first);
      it->second.promise.set_value(
          Status::Overloaded("scheduler shutting down"));
      it = pending_.erase(it);
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : sessions_) t.join();
  drain_cv_.notify_all();
}

std::future<StatusOr<QueryResult>> QueryScheduler::SubmitAsync(
    Request request) {
  std::promise<StatusOr<QueryResult>> promise;
  std::future<StatusOr<QueryResult>> future = promise.get_future();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    promise.set_value(Status::Overloaded("scheduler shutting down"));
    return future;
  }
  const int64_t id = next_id_++;
  AdmissionController::Item item;
  item.id = id;
  item.tenant = request.tenant;
  item.est_pages = request.est_pages;
  item.priority = request.priority;
  const Status admitted = ctrl_.Enqueue(std::move(item));
  if (!admitted.ok()) {
    ++stats_.rejected;
    promise.set_value(admitted);
    return future;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.promise = std::move(promise);
  pending_.emplace(id, std::move(pending));
  work_cv_.notify_one();
  return future;
}

StatusOr<QueryResult> QueryScheduler::Submit(Request request) {
  return SubmitAsync(std::move(request)).get();
}

void QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return pending_.empty(); });
}

QueryScheduler::Stats QueryScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

MemoryBroker* QueryScheduler::tenant_broker(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  return BrokerLocked(tenant);
}

int QueryScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctrl_.queued();
}

int QueryScheduler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ctrl_.running();
}

MemoryBroker* QueryScheduler::BrokerLocked(const std::string& tenant) {
  auto it = brokers_.find(tenant);
  if (it == brokers_.end()) {
    it = brokers_
             .emplace(tenant, std::make_unique<MemoryBroker>(
                                  ctrl_.quota_for(tenant)))
             .first;
  }
  return it->second.get();
}

int64_t QueryScheduler::TotalUsedLocked() const {
  int64_t total = 0;
  for (const auto& [name, broker] : brokers_) total += broker->used();
  return total;
}

void QueryScheduler::ArbitrateLocked(const std::string& tenant,
                                     int64_t est_pages, int64_t incoming_id) {
  const int64_t budget = opts_.total_memory_pages;
  const int64_t total_used = TotalUsedLocked();
  int64_t deficit = total_used + est_pages - budget;
  // Deterministic rob order: richest first, ties by tenant name.
  std::vector<std::pair<int64_t, std::string>> order;
  order.reserve(brokers_.size());
  for (const auto& [name, broker] : brokers_) {
    order.emplace_back(broker->used(), name);
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  if (deficit > 0) {
    // Rob the richest first: shrink its broker capacity down toward the
    // 1-page progress minimum. Its running queries observe the shrink at
    // their next phase boundary and shed pages through the existing
    // revocation path — no query is killed, it just runs at spill speed.
    // The requesting tenant is never robbed: the incoming query runs on its
    // broker, and its queries contend with each other within its quota
    // before they contend with anyone else.
    for (const auto& [used, name] : order) {
      if (deficit <= 0) break;
      if (used <= 1 || name == tenant) continue;
      const int64_t take = std::min(deficit, used - 1);
      brokers_[name]->set_capacity(std::max<int64_t>(1, used - take));
      deficit -= take;
      ++stats_.capacity_revocations;
    }
  }
  // Hard ceiling: admission gates *estimates* at watermark * budget; when
  // *actual* usage crosses the same line, phase-boundary shedding is not
  // keeping up and the richest tenant's youngest running query is shed
  // outright (bounded-retryable kOverloaded, never a crash or a deadlock).
  const double ceiling =
      opts_.memory_watermark * static_cast<double>(budget);
  if (static_cast<double>(total_used + est_pages) > ceiling &&
      !order.empty()) {
    const std::string& richest = order.front().second;
    int64_t victim = -1;
    for (const auto& [id, p] : pending_) {
      if (!p.running || id == incoming_id) continue;
      if (p.request.tenant != richest) continue;
      victim = std::max(victim, id);  // youngest: least sunk work discarded
    }
    if (victim >= 0) {
      pending_[victim].token->Cancel(
          StatusCode::kOverloaded,
          "shed by memory arbitration: tenant '" + richest +
              "' over quota under global memory pressure");
      ++stats_.hard_sheds;
    }
  }
}

void QueryScheduler::RestoreCapacitiesLocked() {
  if (TotalUsedLocked() > opts_.total_memory_pages) return;
  for (auto& [name, broker] : brokers_) {
    const int64_t quota = ctrl_.quota_for(name);
    if (broker->capacity() < quota) broker->set_capacity(quota);
  }
}

void QueryScheduler::SessionLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || ctrl_.queued() > 0; });
    if (stopping_) return;
    const int64_t id = ctrl_.PickNext();
    if (id < 0) continue;
    RunOne(id, &lock);
  }
}

void QueryScheduler::RunOne(int64_t id, std::unique_lock<std::mutex>* lock) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    ctrl_.OnFinish(id, 0);
    return;
  }
  Pending& p = it->second;
  p.running = true;
  p.token = std::make_unique<QueryCancelToken>();  // fresh token per attempt
  MemoryBroker* broker = BrokerLocked(p.request.tenant);
  ArbitrateLocked(p.request.tenant, p.request.est_pages, id);

  QueryControl control;
  control.cancel = p.token.get();
  control.broker = broker;
  control.deadline_cost = p.request.deadline_cost > 0
                              ? p.request.deadline_cost
                              : opts_.default_deadline_cost;
  control.deadline_ms =
      p.request.deadline_ms > 0 ? p.request.deadline_ms : opts_.deadline_ms;
  control.baseline_pages = ctrl_.quota_for(p.request.tenant);
  control.faults = p.request.faults;

  // Execute outside the lock; `p` stays valid (only this thread completes
  // or erases a running entry; map node addresses are stable).
  lock->unlock();
  StatusOr<QueryResult> result =
      engine_->Run(p.request.spec, p.request.keep_rows, &control);
  lock->lock();

  ctrl_.OnFinish(id, result.ok() ? result.value().cost : 0.0);

  // Bounded retry-after-shed: only queries cancelled *by our arbitration*
  // (token carries kOverloaded) are re-queued; a deadline or the query's own
  // guardrail failure is final.
  const bool shed_by_arbitration =
      !result.ok() && result.status().code() == StatusCode::kOverloaded &&
      p.token->cancelled();
  if (shed_by_arbitration && p.shed_retries < opts_.max_shed_retries &&
      !stopping_) {
    ++p.shed_retries;
    ++stats_.shed_retries;
    p.running = false;
    AdmissionController::Item item;
    item.id = id;
    item.tenant = p.request.tenant;
    item.est_pages = p.request.est_pages;
    item.priority = p.request.priority;
    ctrl_.EnqueueRetry(std::move(item));
    RestoreCapacitiesLocked();
    work_cv_.notify_one();
    return;
  }

  if (result.ok()) {
    ++stats_.completed;
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exceeded;
  } else if (result.status().code() == StatusCode::kOverloaded) {
    ++stats_.overload_sheds;
  } else {
    ++stats_.failed;
  }
  std::promise<StatusOr<QueryResult>> promise = std::move(p.promise);
  pending_.erase(it);
  RestoreCapacitiesLocked();
  work_cv_.notify_one();
  drain_cv_.notify_all();
  // Fulfill outside the lock: the waiter may immediately submit again.
  lock->unlock();
  promise.set_value(std::move(result));
  lock->lock();
}

}  // namespace rqp
