// serve-mixed: an open loop at a fixed rate from one generator thread into
// the QueryScheduler (3 sessions at DOP 1), with the plan and result caches
// on. Two tenants share the orders schema: `oltp` sends point lookups
// (orders joined to lineitem by order id), `olap` sends dashboards drawn
// from a small recurring set of 3-way join group-bys and single-table
// aggregates the result cache can patch. Every 250 ms the generator waits
// for in-flight requests, calls Drain() and appends a batch of lineitem
// rows (Table::AppendRow is unsafe while readers run). Each latency is
// timed from the request's due time. Served answers are checked after the
// window against a cache-less twin engine that replays the same appends.

#include <chrono>
#include <future>
#include <thread>

#include "server/scheduler.h"
#include "storage/data_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kCustomers = 20000;
constexpr int64_t kOrders = 120000;
constexpr double kRatePerSecond = 600;
constexpr double kDashboardShare = 0.10;
constexpr int kSessions = 3;
constexpr int64_t kAppendPeriodNs = 250000000;
constexpr int kAppendRows = 200;
constexpr int kJoinDashboards = 24;
constexpr int kAggDashboards = 8;
constexpr int kVerifyPerKind = 32;
constexpr int kReplayTxn = 300;
constexpr int kReplayDashboards = 32;

enum Kind { kTxn = 0, kDashboard = 1 };

struct World {
  rqp::Catalog catalog;
  std::unique_ptr<rqp::Engine> engine;
  /// Declared last so it stops (joining its sessions) before the engine
  /// it borrows is destroyed.
  std::unique_ptr<rqp::QueryScheduler> scheduler;
};

rqp::OrdersSchemaSpec SchemaSpec(uint64_t seed) {
  rqp::OrdersSchemaSpec spec;
  spec.num_customers = kCustomers;
  spec.num_orders = kOrders;
  spec.seed = seed;
  return spec;
}

std::unique_ptr<World> BuildWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  rqp::BuildOrdersSchema(&w->catalog, SchemaSpec(seed));
  w->catalog.BuildIndex("orders", "id").value();
  w->catalog.BuildIndex("orders", "cust_id").value();
  w->catalog.BuildIndex("customer", "id").value();
  w->catalog.BuildIndex("lineitem", "order_id").value();
  return w;
}

rqp::QuerySpec TxnQuery(int64_t order_id) {
  rqp::QuerySpec q;
  q.tables.push_back({"orders", rqp::MakeCmp("id", rqp::CmpOp::kEq, order_id)});
  q.tables.push_back({"lineitem", nullptr});
  q.joins.push_back({"orders", "id", "lineitem", "order_id"});
  return q;
}

/// The recurring dashboard set: 3-way join group-bys over yearly order
/// windows, then single-table lineitem aggregates over shipping windows.
std::vector<rqp::QuerySpec> Dashboards(uint64_t seed) {
  rqp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 37);
  std::vector<rqp::QuerySpec> out;
  for (int i = 0; i < kJoinDashboards; ++i) {
    const int64_t lo = rng.Uniform(0, 3285);
    rqp::QuerySpec q;
    q.tables.push_back({"customer", nullptr});
    q.tables.push_back({"orders", rqp::MakeBetween("date", lo, lo + 365)});
    q.tables.push_back({"lineitem", nullptr});
    q.joins.push_back({"customer", "id", "orders", "cust_id"});
    q.joins.push_back({"orders", "id", "lineitem", "order_id"});
    q.group_by = {"customer.region"};
    q.aggregates = {{rqp::AggFn::kSum, "lineitem.price", "revenue"},
                    {rqp::AggFn::kCount, "", "lines"}};
    out.push_back(std::move(q));
  }
  for (int i = 0; i < kAggDashboards; ++i) {
    const int64_t lo = rng.Uniform(0, 3470);
    rqp::QuerySpec q;
    q.tables.push_back(
        {"lineitem", rqp::MakeBetween("shipdate", lo, lo + 180)});
    q.group_by = {"lineitem.qty"};
    q.aggregates = {{rqp::AggFn::kSum, "lineitem.price", "revenue"},
                    {rqp::AggFn::kCount, "", "lines"}};
    out.push_back(std::move(q));
  }
  return out;
}

/// Append batch `b`: lineitems of orders whose header rows have not
/// arrived yet, so point lookups and join dashboards keep their answers
/// while the single-table dashboards change and must be patched.
std::vector<std::vector<int64_t>> AppendBatch(uint64_t seed, int64_t b) {
  rqp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1000003 * (b + 1));
  std::vector<std::vector<int64_t>> rows;
  for (int j = 0; j < kAppendRows; ++j) {
    rows.push_back({kOrders + b * kAppendRows + j, rng.Uniform(0, 9999),
                    rng.Uniform(1, 50), rng.Uniform(100, 100000),
                    rng.Uniform(0, 3650)});
  }
  return rows;
}

void Append(rqp::Catalog* catalog, uint64_t seed, int64_t b) {
  rqp::Table* lineitem = catalog->GetTable("lineitem").value();
  for (const auto& row : AppendBatch(seed, b)) lineitem->AppendRow(row);
}

struct Planned {
  Kind kind;
  int64_t arg;  ///< order id, or dashboard index
};

struct Served {
  Planned what;
  int64_t epoch;    ///< append batches applied before submission
  int64_t request;
  int64_t rows;
  uint64_t checksum;
};

struct Outstanding {
  std::future<rqp::StatusOr<rqp::QueryResult>> result;
  Planned what;
  int64_t due_ns;
  int64_t epoch;
  int64_t request;
  int64_t span;
};

class Generator {
 public:
  Generator(const Config& cfg, Recorder* rec)
      : cfg_(cfg), rec_(rec), dashboards_(Dashboards(cfg.seed)) {}

  const rqp::QuerySpec& Spec(const Planned& p, rqp::QuerySpec* scratch) const {
    if (p.kind == kDashboard) return dashboards_[static_cast<size_t>(p.arg)];
    *scratch = TxnQuery(p.arg);
    return *scratch;
  }

  /// Starts the scheduler and sends every dashboard and 200 point lookups
  /// through it, so the window starts with running sessions and warm caches.
  void Warm(World* world) {
    world_ = world;
    rqp::AdmissionOptions admission;
    admission.max_concurrent = kSessions;
    admission.tenant_quota_pages = 1 << 20;
    admission.deadline_ms = 0;
    admission.weighted_fair = true;
    admission.tenants["oltp"].weight = 4.0;
    admission.tenants["olap"].weight = 1.0;
    world_->scheduler = std::make_unique<rqp::QueryScheduler>(
        world_->engine.get(), admission);
    rqp::Rng rng(cfg_.seed + 5);
    const int dashboards = static_cast<int>(dashboards_.size());
    for (int i = 0; i < dashboards + 200; ++i) {
      rqp::QueryScheduler::Request req;
      const bool dashboard = i < dashboards;
      req.spec = dashboard ? dashboards_[static_cast<size_t>(i)]
                           : TxnQuery(rng.Uniform(0, kOrders - 1));
      req.tenant = dashboard ? "olap" : "oltp";
      req.keep_rows = true;
      auto r = world_->scheduler->Submit(std::move(req));
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
    }
  }

  void RunWindow() {
    rqp::Rng rng(cfg_.seed * 0x9e3779b97f4a7c15ull + 41);
    const int64_t period = static_cast<int64_t>(1e9 / kRatePerSecond);
    const int64_t window = static_cast<int64_t>(cfg_.seconds * 1e9);
    std::vector<Planned> plan;
    for (int64_t due = 0; due < window; due += period) {
      if (rng.Bernoulli(kDashboardShare)) {
        plan.push_back({kDashboard, rng.Uniform(0, kJoinDashboards +
                                                       kAggDashboards - 1)});
      } else {
        plan.push_back({kTxn, rng.Uniform(0, kOrders - 1)});
      }
    }

    rqp::QueryScheduler& scheduler = *world_->scheduler;
    const rqp::QueryScheduler::Stats sched_before = scheduler.stats();
    const rqp::ResultCache::Stats cache_before =
        world_->engine->result_cache()->stats();

    const int64_t start = NowNs() + 1000000;
    int64_t next_append = start + kAppendPeriodNs;
    last_done_ = start;
    size_t k = 0;
    while (k < plan.size()) {
      const int64_t now = NowNs();
      Poll();
      if (next_append <= now) {
        AppendNow(&scheduler);
        next_append += kAppendPeriodNs;
        continue;
      }
      const int64_t due = start + static_cast<int64_t>(k) * period;
      if (now < due) {
        std::this_thread::yield();
        continue;
      }
      Submit(&scheduler, plan[k], due, static_cast<int64_t>(k));
      ++k;
    }
    rec_->Fact("backlog_end", static_cast<double>(live_.size()));
    while (!live_.empty()) {
      Poll();
      std::this_thread::yield();
    }
    scheduler.Drain();
    rec_->Fact("window_s", static_cast<double>(last_done_ - start) / 1e9);
    rec_->Fact("peak_rss_mb", PeakRssMb());

    const rqp::QueryScheduler::Stats s = scheduler.stats();
    const rqp::ResultCache::Stats c = world_->engine->result_cache()->stats();
    const auto window_count = [this](const char* name, int64_t delta) {
      rec_->Count(name, static_cast<double>(delta));
    };
    window_count("server.rejected", s.rejected - sched_before.rejected);
    window_count("server.shed_retries",
                 s.shed_retries - sched_before.shed_retries);
    window_count("cache.result_hits", c.hits - cache_before.hits);
    window_count("cache.result_misses", c.misses - cache_before.misses);
    window_count("cache.result_patched",
                 c.patched_hits - cache_before.patched_hits);
    window_count("cache.result_invalidations",
                 c.invalidations - cache_before.invalidations);
    window_count("cache.result_evictions",
                 c.evictions - cache_before.evictions);
  }

  /// Re-runs an evenly spaced sample of served requests on a cache-less
  /// engine over a freshly built twin catalog, replaying the appends up to
  /// each request's epoch, and compares the answers.
  void Verify() {
    ScopedSpan span(rec_, "bench.verify", -1, -1);
    auto twin = BuildWorld(cfg_.seed);
    rqp::EngineOptions o;
    o.num_threads = 1;
    o.use_result_cache = 0;
    o.spill_dir = cfg_.spill_dir;
    rqp::Engine engine(&twin->catalog, o);
    *engine.stats() = *world_->engine->stats();

    int64_t epoch = 0;
    for (const Served* s : SampleServed(kVerifyPerKind, kVerifyPerKind)) {
      while (epoch < s->epoch) Append(&twin->catalog, cfg_.seed, epoch++);
      rqp::QuerySpec scratch;
      auto r = engine.Run(Spec(s->what, &scratch), /*keep_rows=*/true);
      if (!r.ok()) {
        rec_->Fail("verify", r.status().ToString());
      } else if (r.value().output_rows != s->rows ||
                 RowSetChecksum(r.value().rows) != s->checksum) {
        rec_->Fail("mismatch", "served request " +
                                   std::to_string(s->request) +
                                   " differs from the cache-less twin");
      }
    }
  }

  /// Traced replay of a sample of served requests on the serving engine,
  /// after the window so the open loop is undisturbed.
  void Replay() {
    LayerReplay replay(world_->engine.get());
    for (const Served* s : SampleServed(kReplayTxn, kReplayDashboards)) {
      rqp::QuerySpec scratch;
      const rqp::QuerySpec& spec = Spec(s->what, &scratch);
      const int64_t root = rec_->Begin("replay", -1, s->request);
      const int64_t t0 = NowNs();
      auto r = world_->engine->Run(spec);
      const int64_t t1 = NowNs();
      rec_->End(rec_->Begin("engine.run", root, s->request, t0), t1);
      if (r.ok()) {
        replay.Replay(spec, r.value(), t1 - t0, s->request, root, rec_);
      } else {
        rec_->Fail("replay", r.status().ToString());
      }
      rec_->End(root);
    }
  }

 private:
  void Submit(rqp::QueryScheduler* scheduler, const Planned& what,
              int64_t due, int64_t request) {
    const int64_t now = NowNs();
    rec_->Sample("bench.generator_late_ms", NsToMs(now - due));
    if (rec_->tracing()) {
      rec_->Sample("server.queue_depth", scheduler->queued());
      rec_->Sample("server.running", scheduler->running());
    }
    rqp::QueryScheduler::Request req;
    rqp::QuerySpec scratch;
    req.spec = Spec(what, &scratch);
    req.tenant = what.kind == kTxn ? "oltp" : "olap";
    req.keep_rows = true;
    req.est_pages = what.kind == kTxn ? 2 : 64;
    const int64_t root = rec_->Begin("request", -1, request, due);
    const int64_t t0 = NowNs();
    auto result = scheduler->SubmitAsync(std::move(req));
    rec_->End(rec_->Begin("server.submit", root, request, t0));
    rec_->Count("attempted");
    live_.push_back({std::move(result), what, due, epoch_, request, root});
  }

  /// Stamps and records every request whose result is ready.
  void Poll() {
    for (size_t i = 0; i < live_.size();) {
      Outstanding& o = live_[i];
      if (o.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const int64_t done = NowNs();
      rec_->End(o.span, done);
      Finish(&o, done);
      if (i + 1 != live_.size()) live_[i] = std::move(live_.back());
      live_.pop_back();
    }
  }

  void Finish(Outstanding* o, int64_t done) {
    rqp::StatusOr<rqp::QueryResult> r = o->result.get();
    if (!r.ok()) {
      const rqp::StatusCode code = r.status().code();
      rec_->Fail(code == rqp::StatusCode::kOverloaded         ? "overloaded"
                 : code == rqp::StatusCode::kDeadlineExceeded ? "deadline"
                                                              : "error",
                 r.status().ToString());
      return;
    }
    const double ms = NsToMs(done - o->due_ns);
    rec_->Sample("latency_ms", ms);
    rec_->Sample(o->what.kind == kTxn ? "txn_latency_ms" : "dash_latency_ms",
                 ms);
    rec_->Count("completed");
    CountResult(r.value(), rec_);
    if (!r.value().result_cache_hit) rec_->Count("engine.plan_cache_lookups");
    served_.push_back({o->what, o->epoch, o->request, r.value().output_rows,
                       RowSetChecksum(r.value().rows)});
    last_done_ = done;
  }

  /// Waits for every in-flight request, drains the scheduler and appends
  /// the next lineitem batch.
  void AppendNow(rqp::QueryScheduler* scheduler) {
    ScopedSpan root(rec_, "bench.append", -1, -1);
    {
      ScopedSpan drain(rec_, "server.drain", root.id(), -1);
      while (!live_.empty()) {
        Poll();
        std::this_thread::yield();
      }
      scheduler->Drain();
    }
    ScopedSpan append(rec_, "storage.append", root.id(), -1);
    Append(&world_->catalog, cfg_.seed, epoch_++);
  }

  /// Up to `txn` point lookups and `dash` dashboards, evenly spaced over
  /// the served requests (which are in epoch order).
  std::vector<const Served*> SampleServed(int txn, int dash) const {
    int64_t n_txn = 0, n_dash = 0;
    for (const Served& s : served_) ++(s.what.kind == kTxn ? n_txn : n_dash);
    const int64_t txn_stride = std::max<int64_t>(1, n_txn / txn);
    const int64_t dash_stride = std::max<int64_t>(1, n_dash / dash);
    std::vector<const Served*> out;
    int64_t i_txn = 0, i_dash = 0;
    for (const Served& s : served_) {
      const bool pick = s.what.kind == kTxn ? i_txn++ % txn_stride == 0
                                            : i_dash++ % dash_stride == 0;
      if (pick) out.push_back(&s);
    }
    return out;
  }

  const Config& cfg_;
  Recorder* rec_;
  World* world_ = nullptr;
  std::vector<rqp::QuerySpec> dashboards_;
  std::vector<Outstanding> live_;
  std::vector<Served> served_;
  int64_t epoch_ = 0;
  int64_t last_done_ = 0;
};

}  // namespace

void RunServeMixed(const Config& cfg, Recorder* rec) {
  Generator gen(cfg, rec);
  auto world = TimedSetup<World>(
      rec, [&] { return BuildWorld(cfg.seed); },
      [&](World* w) {
        rqp::EngineOptions o;
        o.num_threads = 1;
        o.use_plan_cache = true;
        o.use_result_cache = 1;
        o.spill_dir = cfg.spill_dir;
        w->engine = std::make_unique<rqp::Engine>(&w->catalog, o);
        w->engine->AnalyzeAll();
      },
      [&](World* w) { gen.Warm(w); });
  gen.RunWindow();
  gen.Verify();
  if (rec->tracing()) gen.Replay();
}

}  // namespace perfbench
