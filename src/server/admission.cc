#include "server/admission.h"

#include <algorithm>

#include "util/env.h"

namespace rqp {

AdmissionOptions ResolveAdmissionOptions(AdmissionOptions options) {
  const int64_t max_concurrent = options.max_concurrent > 0
                                     ? options.max_concurrent
                                     : EnvInt64("RQP_MAX_CONCURRENT", 4);
  options.max_concurrent =
      static_cast<int>(std::clamp<int64_t>(max_concurrent, 1, 256));
  if (options.tenant_quota_pages <= 0) {
    options.tenant_quota_pages =
        EnvInt64("RQP_TENANT_QUOTA_PAGES", options.total_memory_pages);
  }
  if (options.deadline_ms < 0) {
    options.deadline_ms = EnvInt64("RQP_QUERY_DEADLINE_MS", 0);
  }
  return options;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : opts_(std::move(options)) {}

AdmissionController::Tenant& AdmissionController::TenantOf(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    auto cfg = opts_.tenants.find(name);
    if (cfg != opts_.tenants.end()) {
      t.weight = std::max(1e-6, cfg->second.weight);
      t.quota = cfg->second.quota_pages;
    }
    if (t.quota <= 0) t.quota = opts_.tenant_quota_pages;
    it = tenants_.emplace(name, t).first;
  }
  return it->second;
}

int64_t AdmissionController::quota_for(const std::string& tenant) const {
  auto cfg = opts_.tenants.find(tenant);
  if (cfg != opts_.tenants.end() && cfg->second.quota_pages > 0) {
    return cfg->second.quota_pages;
  }
  return opts_.tenant_quota_pages;
}

Status AdmissionController::Enqueue(Item item) {
  if (opts_.max_queue_depth > 0 &&
      static_cast<int>(queue_.size()) >= opts_.max_queue_depth) {
    return Status::Overloaded("admission queue full (" +
                              std::to_string(queue_.size()) +
                              " queries waiting)");
  }
  Tenant& tenant = TenantOf(item.tenant);
  if (item.est_pages > tenant.quota) {
    return Status::Overloaded(
        "estimated memory demand " + std::to_string(item.est_pages) +
        " pages exceeds tenant '" + item.tenant + "' quota of " +
        std::to_string(tenant.quota));
  }
  const double watermark =
      opts_.memory_watermark * static_cast<double>(opts_.total_memory_pages);
  if (static_cast<double>(est_admitted_ + item.est_pages) > watermark) {
    return Status::Overloaded(
        "admitted memory demand would exceed the watermark (" +
        std::to_string(est_admitted_ + item.est_pages) + " of " +
        std::to_string(static_cast<int64_t>(watermark)) + " pages)");
  }
  if (tenant.active == 0) {
    // Activation: an idle tenant resumes at the current virtual clock, not
    // at its stale vtime — otherwise it would burst past active tenants.
    tenant.vtime = std::max(tenant.vtime, global_vtime_);
  }
  ++tenant.active;
  est_admitted_ += item.est_pages;
  queue_.push_back(std::move(item));
  return Status::OK();
}

void AdmissionController::EnqueueRetry(Item item) {
  Tenant& tenant = TenantOf(item.tenant);
  if (tenant.active == 0) tenant.vtime = std::max(tenant.vtime, global_vtime_);
  ++tenant.active;
  est_admitted_ += item.est_pages;
  queue_.insert(queue_.begin(), std::move(item));
}

int64_t AdmissionController::PickNext() {
  if (queue_.empty() ||
      static_cast<int>(running_.size()) >= opts_.max_concurrent) {
    return -1;
  }
  size_t pick = 0;
  if (opts_.weighted_fair) {
    // WFQ: first queued query of the tenant with the smallest virtual time
    // (ties broken by tenant name for determinism).
    const Tenant* best = nullptr;
    const std::string* best_name = nullptr;
    for (size_t i = 0; i < queue_.size(); ++i) {
      const Tenant& t = TenantOf(queue_[i].tenant);
      const bool better =
          best == nullptr || t.vtime < best->vtime ||
          (t.vtime == best->vtime && queue_[i].tenant < *best_name);
      if (better) {
        best = &t;
        best_name = &queue_[i].tenant;
        pick = i;
      }
    }
  } else if (opts_.priority_scheduling) {
    for (size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].priority > queue_[pick].priority) pick = i;
    }
  }
  Item item = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<long>(pick));
  global_vtime_ = std::max(global_vtime_, TenantOf(item.tenant).vtime);
  const int64_t id = item.id;
  running_.emplace(id, std::move(item));
  return id;
}

void AdmissionController::OnFinish(int64_t id, double service_cost) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  Tenant& tenant = TenantOf(it->second.tenant);
  tenant.vtime += std::max(0.0, service_cost) / tenant.weight;
  --tenant.active;
  est_admitted_ -= it->second.est_pages;
  running_.erase(it);
}

bool AdmissionController::RemoveQueued(int64_t id) {
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].id != id) continue;
    Tenant& tenant = TenantOf(queue_[i].tenant);
    --tenant.active;
    est_admitted_ -= queue_[i].est_pages;
    queue_.erase(queue_.begin() + static_cast<long>(i));
    return true;
  }
  return false;
}

}  // namespace rqp
