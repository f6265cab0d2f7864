// E23 — Morsel-driven intra-query parallelism. Two tables:
//   table 1 (scaling): the star scan+join+agg query at DOP 1/2/4/8. Total
//            work (cost units) stays flat — the clock charges every
//            morsel's full cost regardless of who runs it — while elapsed
//            (cost minus the work hidden by the deterministic list-schedule
//            overlap model) drops with DOP.
//   table 2 (robustness): the same query while the environment misbehaves —
//            DOP changing across a sweep, and a fault-injected memory drop
//            mid-query at DOP 4. Output must be identical everywhere; the
//            engine degrades (to serial execution, to spilling) instead of
//            failing.
// Elapsed is simulated, so every number in both tables reproduces exactly
// on any host, including single-core CI. The binary aborts when a DOP changes
// the total work: every scaling-table DOP must charge exactly what DOP 1
// charges, and so must the degraded DOP-4 run against DOP 1 under the same
// memory drop.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

constexpr int64_t kFactRows = 200000;
constexpr int64_t kDimRows = 1000;

QuerySpec StarAggQuery() {
  QuerySpec q = workload::StarQuery(3, {5000, 7000, 9000});
  q.group_by = {"dim0.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"}};
  return q;
}

StatusOr<QueryResult> RunAtDop(Catalog* catalog, const QuerySpec& q, int dop,
                               EngineOptions options = EngineOptions()) {
  options.num_threads = dop;
  Engine engine(catalog, options);
  engine.AnalyzeAll();
  return engine.Run(q);
}

void Run() {
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = kFactRows;
  spec.dim_rows = kDimRows;
  spec.num_dimensions = 3;
  BuildStarSchema(&catalog, spec);
  const QuerySpec q = StarAggQuery();

  bench::Banner("E23", "Morsel-driven intra-query parallelism",
                "Leis et al. SIGMOD'14 morsel execution; Dagstuhl 10381 "
                "robust execution under varying resources");

  std::printf("scaling: star scan+join+agg, fact=%lld rows, DOP sweep\n",
              static_cast<long long>(kFactRows));
  double serial_elapsed = 0;
  double serial_cost = 0;
  int64_t serial_rows = 0;
  {
    TablePrinter t({"DOP", "total work", "elapsed", "speedup", "morsels",
                    "output rows"});
    for (int dop : {1, 2, 4, 8}) {
      auto r = bench::ValueOrDie(RunAtDop(&catalog, q, dop), "scaling run");
      if (dop == 1) {
        serial_elapsed = r.elapsed;
        serial_cost = r.cost;
        serial_rows = r.output_rows;
      }
      t.AddRow({TablePrinter::Int(dop), TablePrinter::Num(r.cost, 0),
                TablePrinter::Num(r.elapsed, 0),
                TablePrinter::Num(serial_elapsed / r.elapsed, 2) + "x",
                TablePrinter::Int(r.counters.morsels),
                TablePrinter::Int(r.output_rows)});
      if (r.output_rows != serial_rows) {
        std::fprintf(stderr, "FATAL: output diverged at DOP %d\n", dop);
        std::abort();
      }
      if (r.cost != serial_cost) {
        std::fprintf(stderr,
                     "FATAL: total work %.17g at DOP %d differs from %.17g "
                     "at DOP 1\n",
                     r.cost, dop, serial_cost);
        std::abort();
      }
    }
    t.Print();
    std::printf("total work is DOP-invariant (the clock charges every "
                "morsel);\nelapsed follows the deterministic makespan of the "
                "morsel schedule.\n\n");
  }

  std::printf("robustness: same query while the environment misbehaves\n");
  {
    TablePrinter t({"scenario", "DOP", "elapsed", "spill pages",
                    "memory drops", "output rows"});
    // DOP varying across a sweep: each run picks its own DOP; results and
    // total work stay put.
    for (int dop : {4, 1, 8, 2}) {
      auto r = bench::ValueOrDie(RunAtDop(&catalog, q, dop), "dop sweep");
      t.AddRow({"DOP varies mid-sweep", TablePrinter::Int(dop),
                TablePrinter::Num(r.elapsed, 0),
                TablePrinter::Int(r.counters.spill_pages),
                TablePrinter::Int(r.faults.memory_drops),
                TablePrinter::Int(r.output_rows)});
    }
    // Mid-query capacity shrink at DOP 4: observed at morsel boundaries.
    {
      EngineOptions opts;
      opts.faults.MemoryDrop(200, 200);
      auto r = bench::ValueOrDie(RunAtDop(&catalog, q, 4, opts),
                                 "memory drop");
      t.AddRow({"memory drop to 200 pages", TablePrinter::Int(4),
                TablePrinter::Num(r.elapsed, 0),
                TablePrinter::Int(r.counters.spill_pages),
                TablePrinter::Int(r.faults.memory_drops),
                TablePrinter::Int(r.output_rows)});
    }
    // Catastrophic early drop: the gather operator degrades to the serial
    // tree and spills at starved grants rather than failing — doing exactly
    // the work DOP 1 does under the same drop.
    {
      EngineOptions opts;
      opts.faults.MemoryDrop(5, 4);
      auto r = bench::ValueOrDie(RunAtDop(&catalog, q, 4, opts),
                                 "catastrophic drop");
      auto serial = bench::ValueOrDie(RunAtDop(&catalog, q, 1, opts),
                                      "catastrophic drop, DOP 1");
      if (r.cost != serial.cost) {
        std::fprintf(stderr,
                     "FATAL: degraded total work %.17g at DOP 4 differs from "
                     "%.17g at DOP 1\n",
                     r.cost, serial.cost);
        std::abort();
      }
      t.AddRow({"drop to 4 pages (degrades)", TablePrinter::Int(4),
                TablePrinter::Num(r.elapsed, 0),
                TablePrinter::Int(r.counters.spill_pages),
                TablePrinter::Int(r.faults.memory_drops),
                TablePrinter::Int(r.output_rows)});
    }
    t.Print();
    std::printf("\nidentical output rows in every scenario: parallelism "
                "never changes\nthe answer, and memory faults degrade to "
                "serial/spilling execution.\n");
  }
}

}  // namespace
}  // namespace rqp

int main() {
  rqp::Run();
  return 0;
}
