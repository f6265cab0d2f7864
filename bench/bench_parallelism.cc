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
//
// The scaling table also reports the wall clock: the median of 5 timed
// Engine::Run calls at each DOP after one warm-up, each on a freshly
// analyzed engine (ANALYZE is outside the timer). Wall time is
// host-dependent; `--deterministic` prints those two columns as `-`, which
// is what the CI run-twice diff uses.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

constexpr int64_t kFactRows = 200000;
constexpr int64_t kDimRows = 1000;
constexpr int kWallReps = 5;

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

/// Median wall time of Engine::Run at `dop` over kWallReps runs after one
/// warm-up run.
double MedianWallMs(Catalog* catalog, const QuerySpec& q, int dop) {
  std::vector<double> ms;
  for (int rep = 0; rep <= kWallReps; ++rep) {
    EngineOptions options;
    options.num_threads = dop;
    Engine engine(catalog, options);
    engine.AnalyzeAll();
    const auto t0 = std::chrono::steady_clock::now();
    bench::ValueOrDie(engine.Run(q), "timed run");
    if (rep == 0) continue;  // warm-up
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void Run(bool deterministic) {
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
  double serial_wall = 0;
  int64_t serial_rows = 0;
  {
    TablePrinter t({"DOP", "total work", "elapsed", "speedup", "wall ms",
                    "wall speedup", "morsels", "output rows"});
    for (int dop : {1, 2, 4, 8}) {
      auto r = bench::ValueOrDie(RunAtDop(&catalog, q, dop), "scaling run");
      const double wall = deterministic ? 0 : MedianWallMs(&catalog, q, dop);
      if (dop == 1) {
        serial_elapsed = r.elapsed;
        serial_cost = r.cost;
        serial_wall = wall;
        serial_rows = r.output_rows;
      }
      t.AddRow({TablePrinter::Int(dop), TablePrinter::Num(r.cost, 0),
                TablePrinter::Num(r.elapsed, 0),
                TablePrinter::Num(serial_elapsed / r.elapsed, 2) + "x",
                deterministic ? "-" : TablePrinter::Num(wall, 1),
                deterministic ? "-"
                              : TablePrinter::Num(serial_wall / wall, 2) + "x",
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
                "morsel schedule.\nwall ms: median of %d Engine::Run calls "
                "after a warm-up (host-dependent).\n\n",
                kWallReps);
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

int main(int argc, char** argv) {
  const bool deterministic =
      argc > 1 && std::strcmp(argv[1], "--deterministic") == 0;
  rqp::Run(deterministic);
  return 0;
}
