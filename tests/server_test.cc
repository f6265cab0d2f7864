// Server-layer tests (PR 6): admission-control state machine, the
// discrete-event workload simulator, deadline cancellation, the concurrent
// QueryScheduler with tenant memory arbitration, and the ThreadPool
// concurrency contract. Runs under the `server` ctest label — the TSan CI
// job referees the concurrent-submission and arbitration tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/thread_pool.h"
#include "server/admission.h"
#include "server/scheduler.h"
#include "server/simulator.h"
#include "storage/data_generator.h"

namespace rqp {
namespace {

namespace fs = std::filesystem;

std::string TestSpillDir(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("rqp-server-test-" + std::to_string(getpid()) + "-" + tag))
      .string();
}

// ---------------------------------------------------------------------------
// AdmissionController: the pure policy state machine.
// ---------------------------------------------------------------------------

AdmissionController::Item Item(int64_t id, std::string tenant,
                               int64_t est_pages = 0, int priority = 0) {
  AdmissionController::Item item;
  item.id = id;
  item.tenant = std::move(tenant);
  item.est_pages = est_pages;
  item.priority = priority;
  return item;
}

TEST(AdmissionControllerTest, QueueDepthRejectsTypedOverloaded) {
  AdmissionOptions o;
  o.max_concurrent = 1;
  o.max_queue_depth = 2;
  AdmissionController ctrl(o);
  EXPECT_TRUE(ctrl.Enqueue(Item(1, "a")).ok());
  EXPECT_TRUE(ctrl.Enqueue(Item(2, "a")).ok());
  const Status s = ctrl.Enqueue(Item(3, "a"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOverloaded);
  // Draining the queue re-opens admission.
  EXPECT_GE(ctrl.PickNext(), 0);
  EXPECT_TRUE(ctrl.Enqueue(Item(4, "a")).ok());
}

TEST(AdmissionControllerTest, TenantQuotaRejectsTypedOverloaded) {
  AdmissionOptions o;
  o.max_concurrent = 4;
  o.tenant_quota_pages = 100;
  o.tenants["big"].quota_pages = 1000;
  AdmissionController ctrl(o);
  const Status s = ctrl.Enqueue(Item(1, "small", /*est_pages=*/500));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOverloaded);
  // The same demand fits the big tenant's override quota.
  EXPECT_TRUE(ctrl.Enqueue(Item(2, "big", /*est_pages=*/500)).ok());
  EXPECT_EQ(ctrl.quota_for("small"), 100);
  EXPECT_EQ(ctrl.quota_for("big"), 1000);
}

TEST(AdmissionControllerTest, MemoryWatermarkRejectsAndRecovers) {
  AdmissionOptions o;
  o.max_concurrent = 8;
  o.total_memory_pages = 100;
  o.memory_watermark = 2.0;  // watermark at 200 estimated pages
  o.tenant_quota_pages = 200;
  AdmissionController ctrl(o);
  EXPECT_TRUE(ctrl.Enqueue(Item(1, "a", 150)).ok());
  const Status s = ctrl.Enqueue(Item(2, "a", 100));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOverloaded);
  EXPECT_EQ(ctrl.admitted_est_pages(), 150);
  // Finishing the admitted query releases its estimate.
  EXPECT_EQ(ctrl.PickNext(), 1);
  ctrl.OnFinish(1, 10.0);
  EXPECT_EQ(ctrl.admitted_est_pages(), 0);
  EXPECT_TRUE(ctrl.Enqueue(Item(3, "a", 100)).ok());
}

TEST(AdmissionControllerTest, WeightedFairFavorsHeavierTenant) {
  AdmissionOptions o;
  o.max_concurrent = 1;
  o.weighted_fair = true;
  o.tenants["a"].weight = 2.0;
  o.tenants["b"].weight = 1.0;
  AdmissionController ctrl(o);
  // 4 queries per tenant, all queued before any dispatch; each costs 10.
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctrl.Enqueue(Item(i, "a")).ok());
    ASSERT_TRUE(ctrl.Enqueue(Item(10 + i, "b")).ok());
  }
  // Dispatch one at a time, charging cost 10 on completion. Tenant a
  // (weight 2) advances its virtual clock half as fast, so it gets 2 of
  // every 3 slots once the clocks separate.
  int a_first_half = 0;
  for (int k = 0; k < 8; ++k) {
    const int64_t id = ctrl.PickNext();
    ASSERT_GE(id, 0);
    if (k < 4 && id < 10) ++a_first_half;
    ctrl.OnFinish(id, 10.0);
  }
  EXPECT_GE(a_first_half, 3);  // a dominates the early slots
}

TEST(AdmissionControllerTest, RetryJumpsToQueueFront) {
  AdmissionOptions o;
  o.max_concurrent = 1;
  AdmissionController ctrl(o);
  ASSERT_TRUE(ctrl.Enqueue(Item(1, "a")).ok());
  ASSERT_TRUE(ctrl.Enqueue(Item(2, "a")).ok());
  EXPECT_EQ(ctrl.PickNext(), 1);
  ctrl.OnFinish(1, 1.0);
  ctrl.EnqueueRetry(Item(9, "a"));  // shed retry bypasses the FIFO tail
  EXPECT_EQ(ctrl.PickNext(), 9);
}

// ---------------------------------------------------------------------------
// QueryCancelToken.
// ---------------------------------------------------------------------------

TEST(QueryCancelTokenTest, FirstCancelWins) {
  QueryCancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.ToStatus().ok());
  token.Cancel(StatusCode::kDeadlineExceeded, "deadline");
  token.Cancel(StatusCode::kOverloaded, "shed");  // ignored: one-shot
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.ToStatus().message(), "deadline");
}

// ---------------------------------------------------------------------------
// Workload simulator: deadline shedding, bounded queues, oracle admission.
// ---------------------------------------------------------------------------

SimJob MakeJob(const std::string& name, double arrival, double cost,
               double deadline = 0, const std::string& tenant = "default") {
  SimJob j;
  j.name = name;
  j.tenant = tenant;
  j.arrival = arrival;
  j.cost = cost;
  j.deadline = deadline;
  return j;
}

/// Queries that completed within their deadline (the goodput numerator).
int OnTime(const std::vector<SimJob>& jobs,
           const std::vector<SimOutcome>& outcomes) {
  int n = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].completed() &&
        (jobs[i].deadline <= 0 ||
         outcomes[i].response_time() <= jobs[i].deadline + 1e-9)) {
      ++n;
    }
  }
  return n;
}

std::vector<SimJob> OverloadBurst() {
  // 40 deadline-carrying queries; every 5th is a whale whose service time
  // alone exceeds its deadline. Without shedding the whales squat on slots
  // for 200 units each and starve everything behind them.
  std::vector<SimJob> jobs;
  for (int i = 0; i < 40; ++i) {
    const bool whale = i % 5 == 0;
    jobs.push_back(MakeJob("q" + std::to_string(i), i * 2.0,
                           whale ? 200.0 : 5.0, /*deadline=*/40.0));
  }
  return jobs;
}

TEST(SimulatorTest, DeadlineSheddingImprovesGoodput) {
  const std::vector<SimJob> jobs = OverloadBurst();
  SimOptions base;
  base.max_mpl = 2;
  base.capacity_slots = 2;

  SimOptions shed = base;
  shed.shed_on_deadline = true;

  const int goodput_base = OnTime(jobs, SimulateSchedule(jobs, base));
  const auto shed_out = SimulateSchedule(jobs, shed);
  const int goodput_shed = OnTime(jobs, shed_out);
  // Shedding frees capacity wasted on already-doomed queries, so strictly
  // more queries make their deadlines under the same overload.
  EXPECT_GT(goodput_shed, goodput_base);
  int sheds = 0;
  for (const auto& o : shed_out) {
    if (o.fate == SimOutcome::Fate::kDeadlineShed) ++sheds;
  }
  EXPECT_GT(sheds, 0);
}

TEST(SimulatorTest, OracleRejectsHopelessArrivals) {
  const std::vector<SimJob> jobs = OverloadBurst();
  SimOptions oracle;
  oracle.max_mpl = 4;
  oracle.capacity_slots = 4;
  oracle.shed_on_deadline = true;
  oracle.reject_hopeless = true;
  const auto out = SimulateSchedule(jobs, oracle);
  int hopeless = 0;
  for (const auto& o : out) {
    if (o.fate == SimOutcome::Fate::kRejectedHopeless) ++hopeless;
  }
  EXPECT_GT(hopeless, 0);
  // The oracle never does worse than reactive shedding.
  SimOptions shed;
  shed.max_mpl = 4;
  shed.capacity_slots = 4;
  shed.shed_on_deadline = true;
  EXPECT_GE(OnTime(jobs, out), OnTime(jobs, SimulateSchedule(jobs, shed)));
}

TEST(SimulatorTest, BoundedQueueRejectsBeyondDepth) {
  std::vector<SimJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(MakeJob("q" + std::to_string(i), 0.0, 10.0));
  }
  SimOptions o;
  o.max_mpl = 1;
  o.capacity_slots = 1;
  o.max_queue_depth = 2;
  const auto out = SimulateSchedule(jobs, o);
  int rejected = 0, completed = 0;
  for (const auto& r : out) {
    if (r.fate == SimOutcome::Fate::kRejectedQueue) ++rejected;
    if (r.completed()) ++completed;
  }
  // All 5 arrive at t=0 before anything dispatches: 2 queue, 3 are shed.
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(completed, 2);
}

TEST(SimulatorTest, WeightedFairProtectsHeavyTenant) {
  std::vector<SimJob> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(MakeJob("a" + std::to_string(i), 0.0, 10.0, 0, "a"));
    jobs.push_back(MakeJob("b" + std::to_string(i), 0.0, 10.0, 0, "b"));
  }
  SimOptions o;
  o.max_mpl = 1;
  o.capacity_slots = 1;
  o.weighted_fair = true;
  o.tenants["a"].weight = 4.0;
  o.tenants["b"].weight = 1.0;
  const auto out = SimulateSchedule(jobs, o);
  double a_sum = 0, b_sum = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    (jobs[i].tenant == "a" ? a_sum : b_sum) += out[i].finish;
  }
  EXPECT_LT(a_sum, b_sum);  // the weight-4 tenant drains first
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  std::vector<SimJob> jobs = OverloadBurst();
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].tenant = (i % 3 == 0) ? "a" : "b";
    jobs[i].est_pages = static_cast<int64_t>(i % 7) * 10;
  }
  SimOptions o;
  o.max_mpl = 3;
  o.capacity_slots = 4;
  o.weighted_fair = true;
  o.tenants["a"].weight = 2.0;
  o.shed_on_deadline = true;
  o.max_queue_depth = 8;
  o.memory_pages = 100;
  o.memory_watermark = 2.0;
  const auto r1 = SimulateSchedule(jobs, o);
  const auto r2 = SimulateSchedule(jobs, o);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].fate, r2[i].fate) << i;
    EXPECT_EQ(r1[i].start, r2[i].start) << i;
    EXPECT_EQ(r1[i].finish, r2[i].finish) << i;
  }
}

// ---------------------------------------------------------------------------
// Engine-level deadlines and external cancellation.
// ---------------------------------------------------------------------------

struct ServerFixture : ::testing::Test {
  Catalog catalog;
  std::unique_ptr<Engine> engine;
  std::string spill_dir;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 60000;
    spec.dim_rows = 1000;
    spec.num_dimensions = 2;
    BuildStarSchema(&catalog, spec);
    spill_dir = TestSpillDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    EngineOptions options;
    options.memory_pages = 64;  // tight: joins spill, brokers matter
    options.spill_dir = spill_dir;
    engine = std::make_unique<Engine>(&catalog, options);
    engine->AnalyzeAll();
  }

  void TearDown() override {
    engine.reset();
    std::error_code ec;
    fs::remove_all(spill_dir, ec);
  }

  /// Two-dimension star join: enough work to spill and to outlast the
  /// dispatch of queries submitted just after it.
  static QuerySpec HeavyQuery(int64_t hi = 9000) {
    QuerySpec q;
    q.tables.push_back({"fact", nullptr});
    for (int d = 0; d < 2; ++d) {
      const std::string dim = "dim" + std::to_string(d);
      q.tables.push_back({dim, MakeBetween("attr", 0, hi)});
      q.joins.push_back({"fact", "fk" + std::to_string(d), dim, "id"});
    }
    return q;
  }

  /// Selective single-table scan: cheap, deterministic output.
  static QuerySpec LightQuery(int64_t hi = 200) {
    QuerySpec q;
    q.tables.push_back({"fact", MakeBetween("fk0", 0, hi)});
    return q;
  }

  static std::vector<int64_t> Flatten(const QueryResult& r) {
    std::vector<int64_t> flat;
    for (const RowBatch& b : r.rows) {
      for (size_t i = 0; i < b.num_rows(); ++i) {
        const int64_t* row = b.row(i);
        flat.insert(flat.end(), row, row + b.num_cols());
      }
    }
    return flat;
  }
};

TEST_F(ServerFixture, CostDeadlineReturnsTypedStatus) {
  QueryControl control;
  control.deadline_cost = 5;  // far below the query's real cost
  const auto result = engine->Run(HeavyQuery(), false, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServerFixture, CancelTokenSurfacesItsTypedStatus) {
  QueryCancelToken token;
  token.Cancel(StatusCode::kOverloaded, "shed by test");
  QueryControl control;
  control.cancel = &token;
  const auto result = engine->Run(HeavyQuery(), false, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
}

TEST_F(ServerFixture, DeadlineNeverTriggersSafePlanRetry) {
  // Deadlines are not guardrails: no hedge, no conservative re-run — the
  // typed status must surface even with guardrails armed.
  engine->mutable_options()->guardrails.enabled = true;
  engine->mutable_options()->guardrails.cost_budget = 1e9;
  QueryControl control;
  control.deadline_cost = 5;
  const auto result = engine->Run(HeavyQuery(), false, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ServerFixture, TenantBrokerOverrideCapsMemory) {
  MemoryBroker broker(/*capacity_pages=*/8);
  QueryControl control;
  control.broker = &broker;
  const auto result = engine->Run(HeavyQuery(), false, &control);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(broker.peak_used(), 8 + 4);  // progress-minimum slack only
  EXPECT_EQ(broker.used(), 0);           // everything released on close
  EXPECT_GT(result.value().counters.spill_pages, 0);  // paid in spills
}

// ---------------------------------------------------------------------------
// QueryScheduler: the concurrent serving layer.
// ---------------------------------------------------------------------------

TEST_F(ServerFixture, SchedulerCompletesSubmissionsIdenticallyToSerialRun) {
  const auto baseline = engine->Run(LightQuery(), /*keep_rows=*/true);
  ASSERT_TRUE(baseline.ok());
  const std::vector<int64_t> expected = Flatten(baseline.value());

  AdmissionOptions o;
  o.max_concurrent = 4;
  QueryScheduler scheduler(engine.get(), o);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 16; ++i) {
    QueryScheduler::Request req;
    req.spec = LightQuery();
    req.keep_rows = true;
    req.tenant = i % 2 == 0 ? "a" : "b";
    futures.push_back(scheduler.SubmitAsync(std::move(req)));
  }
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Flatten(result.value()), expected);
  }
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 16);
  EXPECT_EQ(stats.completed, 16);
  EXPECT_EQ(stats.rejected, 0);
}

TEST_F(ServerFixture, SchedulerRejectsOverQuotaEstimates) {
  AdmissionOptions o;
  o.max_concurrent = 2;
  o.tenant_quota_pages = 32;
  QueryScheduler scheduler(engine.get(), o);
  QueryScheduler::Request req;
  req.spec = LightQuery();
  req.est_pages = 100;  // exceeds the tenant quota outright
  auto result = scheduler.SubmitAsync(std::move(req)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
  EXPECT_EQ(scheduler.stats().rejected, 1);
}

TEST_F(ServerFixture, SchedulerEnforcesDeadlines) {
  AdmissionOptions o;
  o.max_concurrent = 2;
  QueryScheduler scheduler(engine.get(), o);
  QueryScheduler::Request heavy;
  heavy.spec = HeavyQuery();
  heavy.deadline_cost = 5;
  auto shed = scheduler.SubmitAsync(std::move(heavy)).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

  QueryScheduler::Request light;
  light.spec = LightQuery();
  auto ok = scheduler.SubmitAsync(std::move(light)).get();
  EXPECT_TRUE(ok.ok());
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST_F(ServerFixture, QuotaExhaustionDegradesToSpillingNotDeadlock) {
  // A 4-page tenant quota is far below the join's appetite: the broker's
  // 1-page progress minimum means the query *completes* at spill speed
  // instead of deadlocking or erroring.
  AdmissionOptions o;
  o.max_concurrent = 2;
  o.tenants["poor"].quota_pages = 4;
  QueryScheduler scheduler(engine.get(), o);
  QueryScheduler::Request req;
  req.spec = HeavyQuery();
  req.tenant = "poor";
  auto result = scheduler.SubmitAsync(std::move(req)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().counters.spill_pages, 0);
  EXPECT_EQ(scheduler.tenant_broker("poor")->used(), 0);
}

TEST_F(ServerFixture, ArbitrationRobsRichestTenantThenRestores) {
  AdmissionOptions o;
  o.max_concurrent = 2;
  o.total_memory_pages = 64;
  o.tenant_quota_pages = 64;
  QueryScheduler scheduler(engine.get(), o);
  // Tenant a sits on 60 of the 64 global pages (simulating a running
  // memory-hungry query holding grants).
  MemoryBroker* rich = scheduler.tenant_broker("a");
  ASSERT_EQ(rich->capacity(), 64);
  MemoryGrant held(rich);
  held.Grow(60);
  // Dispatching tenant b's query with a 32-page estimate forces a 28-page
  // deficit: the scheduler robs the richest broker's capacity.
  QueryScheduler::Request req;
  req.spec = LightQuery();
  req.tenant = "b";
  req.est_pages = 32;
  auto result = scheduler.SubmitAsync(std::move(req)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(scheduler.stats().capacity_revocations, 1);
  // Once global usage fits the budget again the quota is restored.
  held.Clear();
  QueryScheduler::Request again;
  again.spec = LightQuery();
  again.tenant = "b";
  ASSERT_TRUE(scheduler.SubmitAsync(std::move(again)).get().ok());
  EXPECT_EQ(rich->capacity(), 64);
}

TEST_F(ServerFixture, ArbitrationNeverRobsTheRequestingTenant) {
  AdmissionOptions o;
  o.max_concurrent = 2;
  o.total_memory_pages = 64;
  o.tenant_quota_pages = 64;
  QueryScheduler scheduler(engine.get(), o);
  // Tenant a sits on 60 of the 64 global pages and is the richest tenant;
  // its own 32-page query forces the same 28-page deficit as above. The
  // query runs on a's broker, so shrinking that broker would start it in
  // deficit and charge its estimate twice: a's queries contend within a's
  // quota, and nobody else holds pages to rob.
  MemoryBroker* rich = scheduler.tenant_broker("a");
  MemoryGrant held(rich);
  held.Grow(60);
  QueryScheduler::Request req;
  req.spec = LightQuery();
  req.tenant = "a";
  req.est_pages = 32;
  auto result = scheduler.SubmitAsync(std::move(req)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(scheduler.stats().capacity_revocations, 0);
  EXPECT_EQ(rich->capacity(), 64);
  held.Clear();
}

TEST_F(ServerFixture, HardShedCancelsRichestTenantAndRetries) {
  AdmissionOptions o;
  o.max_concurrent = 2;
  o.total_memory_pages = 64;
  o.tenant_quota_pages = 100;
  o.memory_watermark = 1.5;  // hard ceiling at 96 actual pages
  o.max_shed_retries = 1;
  QueryScheduler scheduler(engine.get(), o);
  // Tenant a holds its whole 100-page quota — past the hard ceiling on its
  // own — so Q1 runs on 1-page progress grants, at spill speed, and is
  // still running when Q2 arrives. (Q1's own dispatch never robs tenant a.)
  MemoryBroker* rich = scheduler.tenant_broker("a");
  MemoryGrant held(rich);
  held.Grow(100);
  // Q1 (tenant a) starts running; Q2's dispatch finds actual usage past the
  // ceiling and sheds tenant a's youngest running query — Q1 — outright.
  QueryScheduler::Request q1;
  q1.spec = HeavyQuery();
  q1.tenant = "a";
  auto f1 = scheduler.SubmitAsync(std::move(q1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  QueryScheduler::Request q2;
  q2.spec = LightQuery();
  q2.tenant = "b";
  q2.est_pages = 8;
  auto f2 = scheduler.SubmitAsync(std::move(q2));
  EXPECT_TRUE(f2.get().ok());
  // Q1 was shed once, re-queued (bounded retry), and finished — overload
  // cost it latency, never its result.
  auto r1 = f1.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const auto stats = scheduler.stats();
  EXPECT_GE(stats.hard_sheds, 1);
  EXPECT_GE(stats.shed_retries, 1);
  EXPECT_EQ(stats.overload_sheds, 0);  // the retry absorbed the shed
  held.Clear();
}

TEST_F(ServerFixture, ConcurrentSubmissionsFromManyThreads) {
  AdmissionOptions o;
  o.max_concurrent = 4;
  o.max_queue_depth = 256;
  o.weighted_fair = true;
  o.tenants["a"].weight = 2.0;
  o.tenants["b"].weight = 1.0;
  QueryScheduler scheduler(engine.get(), o);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::atomic<int> ok_count{0}, overloaded{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryScheduler::Request req;
        req.spec = LightQuery(100 + (t * kPerThread + i) % 50);
        req.tenant = (t % 2 == 0) ? "a" : "b";
        req.est_pages = 4;
        auto result = scheduler.SubmitAsync(std::move(req)).get();
        if (result.ok()) {
          ++ok_count;
        } else if (result.status().code() == StatusCode::kOverloaded) {
          ++overloaded;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  scheduler.Drain();
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok_count.load() + overloaded.load(), kThreads * kPerThread);
  EXPECT_GT(ok_count.load(), 0);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, ok_count.load());
  EXPECT_EQ(scheduler.queued(), 0);
  EXPECT_EQ(scheduler.running(), 0);
  EXPECT_EQ(scheduler.tenant_broker("a")->used(), 0);
  EXPECT_EQ(scheduler.tenant_broker("b")->used(), 0);
}

TEST_F(ServerFixture, DestructorResolvesOutstandingFutures) {
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  {
    AdmissionOptions o;
    o.max_concurrent = 1;
    QueryScheduler scheduler(engine.get(), o);
    for (int i = 0; i < 6; ++i) {
      QueryScheduler::Request req;
      req.spec = HeavyQuery();
      futures.push_back(scheduler.SubmitAsync(std::move(req)));
    }
    // Scheduler destroyed with work queued and running.
  }
  for (auto& f : futures) {
    auto result = f.get();  // must not hang
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kOverloaded);
    }
  }
}

// Satellite (f): seeded fault schedule on a random subset of in-flight
// queries; untouched queries finish byte-identical to their serial baseline,
// and no shed/faulted query leaks spill files or broker pages.
TEST_F(ServerFixture, FaultedSubsetLeavesCleanQueriesByteIdentical) {
  const auto baseline = engine->Run(LightQuery(), /*keep_rows=*/true);
  ASSERT_TRUE(baseline.ok());
  const std::vector<int64_t> expected = Flatten(baseline.value());

  FaultSchedule chaos;
  chaos.seed = 1234;
  chaos.MemoryDrop(/*at_cost=*/20, /*pages=*/2)
      .IoSlowdown("fact", /*factor=*/4.0)
      .PerturbStats("dim0", /*factor=*/8.0);

  AdmissionOptions o;
  o.max_concurrent = 4;
  QueryScheduler scheduler(engine.get(), o);
  std::vector<std::future<StatusOr<QueryResult>>> clean, faulted;
  for (int i = 0; i < 24; ++i) {
    QueryScheduler::Request req;
    req.tenant = "t" + std::to_string(i % 3);
    if (i % 4 == 0) {
      req.spec = HeavyQuery();  // the chaos targets the heavy join
      req.faults = &chaos;
      faulted.push_back(scheduler.SubmitAsync(std::move(req)));
    } else {
      req.spec = LightQuery();
      req.keep_rows = true;
      clean.push_back(scheduler.SubmitAsync(std::move(req)));
    }
  }
  for (auto& f : clean) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Flatten(result.value()), expected);
  }
  for (auto& f : faulted) {
    // Faults degrade (slowdowns, shrunken memory, stale stats) but never
    // corrupt: the queries still finish.
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  scheduler.Drain();
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(scheduler.tenant_broker("t" + std::to_string(t))->used(), 0);
  }
  // Every spill directory was reclaimed with its query.
  EXPECT_TRUE(!fs::exists(spill_dir) || fs::is_empty(spill_dir));
}

// ---------------------------------------------------------------------------
// ThreadPool concurrency contract (satellite b).
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ConcurrentCallersSerializeSafely) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kPhases = 50;
  std::atomic<int64_t> total{0};
  std::atomic<int> in_phase{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        pool.RunOnWorkers(4, [&](int) {
          EXPECT_TRUE(ThreadPool::InParallelPhase());
          // At most 4 workers may ever be inside a phase: phases from
          // different callers must not overlap.
          const int now = ++in_phase;
          EXPECT_LE(now, 4);
          ++total;
          --in_phase;
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), int64_t{kCallers} * kPhases * 4);
  EXPECT_FALSE(ThreadPool::InParallelPhase());
}

TEST(ThreadPoolTest, ReentrantRunOnWorkersAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadPool pool(1);  // caller-only: the re-entry happens on this thread
  EXPECT_DEATH(
      pool.RunOnWorkers(1, [&](int) { pool.RunOnWorkers(1, [](int) {}); }),
      "re-entered");
}

}  // namespace
}  // namespace rqp
