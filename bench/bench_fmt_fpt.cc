// E19 — "Measuring the Effects of Dynamic Activities in Data Warehouse
// Workloads" (Giakoumakis, Paulley, Poess, Salem, Sattler, Wrembel; §5.5):
//   FMT (Fluctuating Memory Test): define memUBL (all memory) and memLBL
//   (minimum memory) baselines, then run the workload under a fluctuating
//   memory schedule; a well-governed engine oscillates between the
//   baselines instead of falling below memLBL.
//   FPT (Fluctuating Parallelism Test): procUBL/procLBL baselines, then a
//   greedy query Qm steals processor slots from Qi mid-flight.

#include <memory>

#include "bench/bench_util.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "server/simulator.h"
#include "util/summary.h"

namespace rqp {
namespace {

constexpr int64_t kRows = 300000;
constexpr int64_t kMemUpper = 16384;  // all of memory (pages)
constexpr int64_t kMemLower = 32;     // guaranteed minimum

double RunSortWithSchedule(
    const Table* table,
    const std::vector<std::pair<double, int64_t>>& schedule,
    int64_t initial_capacity, bool dynamic) {
  MemoryBroker broker(initial_capacity);
  ExecContext ctx(&broker);
  ctx.SetMemorySchedule(schedule);
  SortOp::Options opts;
  opts.dynamic_memory = dynamic;
  SortOp sort(std::make_unique<TableScanOp>(table), "t.k", opts);
  bench::ValueOrDie(DrainOperator(&sort, &ctx, nullptr), "sort");
  return ctx.cost();
}

void RunFmt() {
  Table table("t", Schema({{"k", LogicalType::kInt64, 0, nullptr}}));
  Rng rng(41);
  table.SetColumnData(0, gen::Permutation(&rng, kRows));

  std::printf("FMT — Fluctuating Memory Test (workload: external sort of "
              "%lld rows)\n\n", static_cast<long long>(kRows));

  const double mem_ubl =
      RunSortWithSchedule(&table, {}, kMemUpper, /*dynamic=*/true);
  const double mem_lbl =
      RunSortWithSchedule(&table, {}, kMemLower, /*dynamic=*/true);
  std::printf("baselines: memUBL = %.0f   memLBL = %.0f\n\n", mem_ubl,
              mem_lbl);

  // Fluctuation schedules: memory drops and recovers while the query runs.
  struct Fluct {
    const char* name;
    std::vector<std::pair<double, int64_t>> schedule;
    int64_t initial;
  };
  const std::vector<Fluct> schedules{
      // Memory evaporates while the input is still being scanned.
      {"decrease during scan", {{4000, 4096}, {6000, 512}, {8000, 64}},
       kMemUpper},
      // Memory freed while the merge passes run.
      {"start starved, recover early", {{15000, kMemUpper}}, kMemLower},
      {"start starved, recover late", {{45000, kMemUpper}}, kMemLower},
  };
  TablePrinter t({"memory schedule", "policy", "response time",
                  "headroom captured"});
  for (const auto& f : schedules) {
    for (bool dynamic : {true, false}) {
      const double cost =
          RunSortWithSchedule(&table, f.schedule, f.initial, dynamic);
      // Fraction of the memUBL..memLBL spread the engine recovered.
      const double headroom =
          (mem_lbl - cost) / std::max(1.0, mem_lbl - mem_ubl);
      t.AddRow({f.name, dynamic ? "dynamic grow&shrink" : "static grant",
                TablePrinter::Num(cost, 0),
                TablePrinter::Num(headroom * 100, 0) + "%"});
    }
  }
  t.Print();
  std::printf(
      "\nBoth policies stay inside the [memUBL, memLBL] envelope — losing\n"
      "memory before the sort starts costs both equally — but only the\n"
      "grow-&-shrink policy captures freed memory mid-query: its response\n"
      "oscillates toward memUBL while the static grant sits at memLBL.\n\n");
}

void RunFpt() {
  std::printf("FPT — Fluctuating Parallelism Test\n\n");
  // Qi: 240 units of work at DOP 2; baselines.
  SimOptions opts;
  opts.capacity_slots = 4;
  opts.max_mpl = 8;
  const double proc_ubl =
      SimulateSchedule({{.name = "qi", .cost = 240, .requested_slots = 4}},
                       opts)[0]
          .response_time();
  const double proc_lbl =
      SimulateSchedule({{.name = "qi", .cost = 240, .requested_slots = 1}},
                       opts)[0]
          .response_time();
  std::printf("baselines for Qi: procUBL (all 4 slots) = %.0f   "
              "procLBL (1 slot) = %.0f\n\n", proc_ubl, proc_lbl);

  TablePrinter t({"Qm demand (slots)", "Qi response", "Qi slowdown vs UBL",
                  "within [procUBL, procLBL]?"});
  for (int qm_slots : {0, 2, 4, 6, 8}) {
    std::vector<SimJob> jobs{
        {.name = "qi", .cost = 240, .requested_slots = 2}};
    if (qm_slots > 0) {
      jobs.push_back({.name = "qm", .arrival = 20, .cost = 600,
                      .requested_slots = qm_slots});
    }
    auto outcomes = SimulateSchedule(jobs, opts);
    const double qi = outcomes[0].response_time();
    t.AddRow({TablePrinter::Int(qm_slots), TablePrinter::Num(qi, 0),
              TablePrinter::Num(qi / proc_ubl, 2) + "x",
              qi >= proc_ubl * 0.999 && qi <= proc_lbl * 1.001 ? "yes"
                                                               : "NO"});
  }
  t.Print();
  std::printf(
      "\nAs Qm demands more than the machine has, the fair-share governor\n"
      "squeezes Qi toward — but never below — its one-slot lower baseline.\n");
}

}  // namespace
}  // namespace rqp

int main() {
  rqp::bench::Banner("E19", "FMT / FPT dynamic resource tests",
                     "Dagstuhl 10381 §5.5 'Measuring the Effects of Dynamic "
                     "Activities in Data Warehouse Workloads'");
  rqp::RunFmt();
  rqp::RunFpt();
  return 0;
}
