// E18 — "Benchmarking Hybrid OLTP & OLAP Database Workloads" (Kemper,
// Kuno, Paulley et al.; §5.4, the TPC-CH proposal): a transactional
// order-entry stream and a BI query suite run against the same database.
// We measure OLTP throughput-proxy (mean transaction response time) and
// OLAP latency in isolation and mixed, with and without workload
// management (MPL limit + priorities for the short transactions).
//
// E26 — Admission control under overload (PR 6): 1024 simulated clients
// offer ~1.6x the server's capacity. Three policies over the *same* arrival
// trace: admission off (accept everything, unbounded queue), admission on
// (the shipped AdmissionController: bounded queue, estimated-memory
// watermark, weighted-fair tenants, deadline shedding), and a clairvoyant
// oracle that additionally rejects at arrival any query whose deadline is
// provably unreachable. Tables report tail latency (P50/P99/P999) and
// goodput — the fraction of clients whose query completed within its
// deadline. Everything runs on the deterministic cost clock, so every
// number reproduces bit-for-bit.

#include <cmath>

#include "bench/bench_util.h"
#include "server/scheduler.h"
#include "server/simulator.h"
#include "util/summary.h"

namespace rqp {
namespace {

struct ClassCosts {
  double txn_mean = 0;
  double bi_mean = 0;
  std::vector<double> txn;
  std::vector<double> bi;
};

QuerySpec TxnQuery(int64_t order_id) {
  QuerySpec q;
  q.tables.push_back({"orders", MakeCmp("id", CmpOp::kEq, order_id)});
  q.tables.push_back({"lineitem", nullptr});
  q.joins.push_back({"orders", "id", "lineitem", "order_id"});
  return q;
}

QuerySpec BiQuery(int64_t date_lo) {
  QuerySpec q;
  q.tables.push_back({"customer", nullptr});
  q.tables.push_back({"orders", MakeBetween("date", date_lo, date_lo + 365)});
  q.tables.push_back({"lineitem", nullptr});
  q.joins.push_back({"customer", "id", "orders", "cust_id"});
  q.joins.push_back({"orders", "id", "lineitem", "order_id"});
  q.group_by = {"customer.region"};
  q.aggregates = {{AggFn::kSum, "lineitem.price", "revenue"},
                  {AggFn::kCount, "", "orders"}};
  return q;
}

/// Measures per-class service costs on the engine's simulated clock.
ClassCosts MeasureCosts(Engine* engine, const OrdersSchemaSpec& ospec) {
  ClassCosts costs;
  Rng rng(61);
  for (int i = 0; i < 40; ++i) {
    const auto r = bench::ValueOrDie(
        engine->Run(TxnQuery(rng.Uniform(0, ospec.num_orders - 1))), "oltp");
    costs.txn.push_back(r.cost);
    costs.txn_mean += r.cost;
  }
  costs.txn_mean /= static_cast<double>(costs.txn.size());
  for (int i = 0; i < 6; ++i) {
    const auto r = bench::ValueOrDie(
        engine->Run(BiQuery(rng.Uniform(0, 3000))), "olap");
    costs.bi.push_back(r.cost);
    costs.bi_mean += r.cost;
  }
  costs.bi_mean /= static_cast<double>(costs.bi.size());
  return costs;
}

// ---------------------------------------------------------------------------
// E18 (unchanged semantics): isolation vs mixing vs managed mixing.
// ---------------------------------------------------------------------------

void RunE18(Engine* engine, const OrdersSchemaSpec& ospec) {
  const ClassCosts costs = MeasureCosts(engine, ospec);

  // Mixed arrival schedule: transactions every 300 cost units, BI queries
  // every 2500.
  auto make_jobs = [&](bool include_oltp, bool include_olap) {
    std::vector<SimJob> jobs;
    if (include_oltp) {
      for (size_t i = 0; i < costs.txn.size(); ++i) {
        jobs.push_back({.name = "txn" + std::to_string(i),
                        .arrival = static_cast<double>(i) * 300.0,
                        .cost = costs.txn[i],
                        .requested_slots = 1,
                        .priority = 5});
      }
    }
    if (include_olap) {
      for (size_t i = 0; i < costs.bi.size(); ++i) {
        jobs.push_back({.name = "bi" + std::to_string(i),
                        .arrival = static_cast<double>(i) * 2500.0,
                        .cost = costs.bi[i],
                        .requested_slots = 4,
                        .priority = 1});
      }
    }
    return jobs;
  };

  auto summarize = [](const std::vector<SimOutcome>& outcomes,
                      const char* prefix) {
    Summary s;
    for (const auto& o : outcomes) {
      if (o.name.rfind(prefix, 0) == 0) s.Add(o.response_time());
    }
    return s;
  };

  bench::Banner("E18", "Hybrid OLTP & OLAP (TPC-CH-style) mixed workload",
                "Dagstuhl 10381 §5.4 'Benchmarking Hybrid OLTP & OLAP "
                "Database Workloads'");

  TablePrinter t({"configuration", "txn mean resp", "txn p95 resp",
                  "BI mean resp"});
  auto report = [&](const char* name, const std::vector<SimJob>& jobs,
                    const SimOptions& options) {
    auto outcomes = SimulateSchedule(jobs, options);
    Summary txn = summarize(outcomes, "txn");
    Summary bi = summarize(outcomes, "bi");
    t.AddRow({name,
              txn.empty() ? "-" : TablePrinter::Num(txn.Mean(), 0),
              txn.empty() ? "-" : TablePrinter::Num(txn.Percentile(95), 0),
              bi.empty() ? "-" : TablePrinter::Num(bi.Mean(), 0)});
  };

  SimOptions base;
  base.max_mpl = 8;
  base.capacity_slots = 4;
  report("OLTP alone", make_jobs(true, false), base);
  report("OLAP alone", make_jobs(false, true), base);
  report("mixed, no management", make_jobs(true, true), base);

  SimOptions managed = base;
  managed.priority_scheduling = true;
  managed.priority_weighted_sharing = true;
  report("mixed, managed (txn priority shares)", make_jobs(true, true),
         managed);
  t.Print();
  std::printf(
      "\nUnmanaged mixing lets long BI scans crowd the short transactions;\n"
      "admission control plus priorities restores transaction latency at a\n"
      "modest BI cost — the gap the TPC-CH proposal exists to measure.\n");
}

// ---------------------------------------------------------------------------
// E26: 1024 clients, admission off vs on vs oracle.
// ---------------------------------------------------------------------------

void RunE26(Engine* engine, const OrdersSchemaSpec& ospec) {
  const ClassCosts costs = MeasureCosts(engine, ospec);

  constexpr int kClients = 1024;
  constexpr int kSlots = 8;
  constexpr double kOfferedLoad = 1.6;  // arrivals at 160% of capacity

  // One query per client: 87.5% transactions (tenant oltp), 12.5% BI
  // (tenant olap). Deadlines are per-class latency SLOs; est_pages feeds
  // the admission watermark.
  const double mean_service =
      0.875 * costs.txn_mean + 0.125 * costs.bi_mean;
  const double mean_gap = mean_service / (kSlots * kOfferedLoad);
  const double txn_deadline = 16.0 * costs.txn_mean;
  const double bi_deadline = 4.0 * costs.bi_mean;

  Rng rng(427);
  std::vector<SimJob> jobs;
  jobs.reserve(kClients);
  double arrival = 0;
  for (int i = 0; i < kClients; ++i) {
    // Exponential interarrivals (Poisson process) on the cost clock.
    arrival += -std::log(1.0 - rng.NextDouble()) * mean_gap;
    SimJob j;
    j.arrival = arrival;
    if (i % 8 != 0) {
      j.name = "txn" + std::to_string(i);
      j.tenant = "oltp";
      j.cost = costs.txn[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(costs.txn.size()) - 1))];
      j.deadline = txn_deadline;
      j.est_pages = 2;
    } else {
      j.name = "bi" + std::to_string(i);
      j.tenant = "olap";
      j.cost = costs.bi[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(costs.bi.size()) - 1))];
      j.deadline = bi_deadline;
      j.est_pages = 64;
      j.requested_slots = 4;
    }
    jobs.push_back(std::move(j));
  }

  bench::Banner("E26",
                "Admission control, deadlines, and load shedding under "
                "overload (1024 clients)",
                "Graefe ICDE'11 'Robust query processing' — graceful "
                "degradation of the whole server, not just one query");

  SimOptions off;
  off.max_mpl = kSlots;
  off.capacity_slots = kSlots;
  off.max_queue_depth = 0;  // accept everything

  SimOptions on = off;
  on.max_queue_depth = 48;
  on.weighted_fair = true;
  on.tenants["oltp"].weight = 4.0;
  on.tenants["olap"].weight = 1.0;
  on.shed_on_deadline = true;
  on.memory_pages = 512;
  on.memory_watermark = 4.0;

  SimOptions oracle = on;
  oracle.reject_hopeless = true;

  TablePrinter t({"policy", "class", "P50 resp", "P99 resp", "P999 resp",
                  "on-time", "rejected", "shed", "goodput %"});
  auto report = [&](const char* policy, const SimOptions& options) {
    const auto outcomes = SimulateSchedule(jobs, options);
    for (const char* cls : {"txn", "bi"}) {
      Summary resp;
      int total = 0, on_time = 0, rejected = 0, shed = 0;
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].name.rfind(cls, 0) != 0) continue;
        ++total;
        const SimOutcome& o = outcomes[i];
        switch (o.fate) {
          case SimOutcome::Fate::kCompleted:
            resp.Add(o.response_time());
            if (o.response_time() <= jobs[i].deadline + 1e-9) ++on_time;
            break;
          case SimOutcome::Fate::kDeadlineShed:
            ++shed;
            break;
          default:
            ++rejected;
        }
      }
      t.AddRow({policy, cls,
                resp.empty() ? "-" : TablePrinter::Num(resp.Percentile(50), 0),
                resp.empty() ? "-" : TablePrinter::Num(resp.Percentile(99), 0),
                resp.empty() ? "-"
                             : TablePrinter::Num(resp.Percentile(99.9), 0),
                std::to_string(on_time), std::to_string(rejected),
                std::to_string(shed),
                TablePrinter::Num(100.0 * on_time / total, 1)});
    }
  };
  report("admission off", off);
  report("admission on", on);
  report("oracle", oracle);
  t.Print();
  std::printf(
      "\nWith admission off every client is accepted and the queue grows\n"
      "without bound: the P99/P999 tail explodes and almost nothing\n"
      "finishes inside its deadline. Admission on sheds a bounded fraction\n"
      "(typed kOverloaded the client can retry) and aborts doomed queries\n"
      "at their deadline, so the tail stays near the no-load latency and\n"
      "goodput is decided by capacity, not by queueing collapse. The\n"
      "clairvoyant oracle (true costs known at arrival) matches that\n"
      "goodput while converting nearly all late deadline sheds into\n"
      "instant typed rejections — the estimate-based policy is within a\n"
      "point of clairvoyant, so better cost estimates would mostly buy\n"
      "earlier client notification, not more completed work.\n");
}

// ---------------------------------------------------------------------------
// Real-scheduler smoke: the same AdmissionController driving actual
// concurrent execution through QueryScheduler. Only scheduling-invariant
// facts are printed (counts, residual broker pages), keeping the bench
// output deterministic while the thread interleaving is not.
// ---------------------------------------------------------------------------

void RunSchedulerSmoke(Engine* engine, const OrdersSchemaSpec& ospec) {
  std::printf("\n--- real scheduler smoke (QueryScheduler, %d sessions) ---\n",
              4);
  AdmissionOptions options;
  options.max_concurrent = 4;
  options.max_queue_depth = 0;  // invariant output: nothing may be rejected
  options.weighted_fair = true;
  options.tenants["oltp"].weight = 4.0;
  options.tenants["olap"].weight = 1.0;
  QueryScheduler scheduler(engine, options);

  Rng rng(91);
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 64; ++i) {
    QueryScheduler::Request req;
    if (i % 8 != 0) {
      req.spec = TxnQuery(rng.Uniform(0, ospec.num_orders - 1));
      req.tenant = "oltp";
      req.est_pages = 2;
    } else {
      req.spec = BiQuery(rng.Uniform(0, 3000));
      req.tenant = "olap";
      req.est_pages = 64;
    }
    futures.push_back(scheduler.SubmitAsync(std::move(req)));
  }
  int completed = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++completed;
  }
  scheduler.Drain();
  const auto stats = scheduler.stats();
  std::printf("submitted=%lld completed=%lld rejected=%lld failed=%lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.failed));
  std::printf("futures ok=%d of 64, residual broker pages: oltp=%lld "
              "olap=%lld\n",
              completed,
              static_cast<long long>(scheduler.tenant_broker("oltp")->used()),
              static_cast<long long>(scheduler.tenant_broker("olap")->used()));
}

void Run() {
  Catalog catalog;
  OrdersSchemaSpec ospec;
  ospec.num_customers = 20000;
  ospec.num_orders = 120000;
  BuildOrdersSchema(&catalog, ospec);
  catalog.BuildIndex("orders", "id").value();
  catalog.BuildIndex("orders", "cust_id").value();
  catalog.BuildIndex("customer", "id").value();
  catalog.BuildIndex("lineitem", "order_id").value();

  Engine engine(&catalog);
  engine.AnalyzeAll();

  RunE18(&engine, ospec);
  RunE26(&engine, ospec);
  RunSchedulerSmoke(&engine, ospec);
}

}  // namespace
}  // namespace rqp

int main() {
  rqp::Run();
  return 0;
}
