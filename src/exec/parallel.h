#ifndef RQP_EXEC_PARALLEL_H_
#define RQP_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/context.h"
#include "exec/thread_pool.h"

namespace rqp {

/// Degree-of-parallelism configuration threaded from EngineOptions into the
/// executable builder. num_threads == 1 (the default) builds the classic
/// single-threaded tree — byte-identical to pre-parallel behavior.
struct ParallelOptions {
  int num_threads = 1;
  int64_t morsel_rows = 4096;  ///< rows per morsel (rounded to page size)
  ThreadPool* pool = nullptr;  ///< required when num_threads > 1
};

/// A fixed row-range work unit of a parallel table scan. Morsel ids are
/// dense and ordered by table position, which is what lets the gather
/// operator reassemble worker output in a deterministic (morsel-id) order
/// no matter which worker processed which morsel.
struct Morsel {
  int64_t id = 0;
  int64_t begin = 0;  ///< first row (inclusive)
  int64_t end = 0;    ///< last row (exclusive)
};

/// Atomic work-stealing cursor handing out morsels of `morsel_rows` rows
/// over [0, total_rows). Rounds morsel_rows up to a multiple of kRowsPerPage
/// so per-morsel page charges sum exactly to the serial scan's page count.
class MorselCursor {
 public:
  MorselCursor(int64_t total_rows, int64_t morsel_rows);

  /// Claims the next morsel; false once the table is exhausted.
  bool Claim(Morsel* m);

  int64_t num_morsels() const { return num_morsels_; }
  int64_t morsel_rows() const { return morsel_rows_; }

 private:
  int64_t total_rows_;
  int64_t morsel_rows_;
  int64_t num_morsels_;
  std::atomic<int64_t> next_{0};
};

/// Deterministic greedy list schedule: assigns `costs` (indexed by morsel
/// id, in id order) to the least-loaded of `workers` (lowest worker id
/// breaks ties) and returns the makespan. This replaces wall-clock speedup
/// measurement — on the simulated cost clock, a parallel phase "takes" its
/// makespan while charging its total work, so scaling tables are exactly
/// reproducible on any host, including single-core CI.
double ScheduleMakespan(const std::vector<double>& costs, int workers);

/// A worker's thread-local charge accumulator (the relaxed-contention
/// batching layer): charges a local ExecCounters through the same formulas
/// as the ExecContext Charge* methods, and flushes the delta into the shared
/// context under one lock per morsel instead of one per charge. Fault I/O
/// multipliers are evaluated at the phase-start clock so every morsel's cost
/// is independent of worker timing.
class WorkerCharge {
 public:
  WorkerCharge(ExecContext* ctx, double phase_start_cost)
      : ctx_(ctx), phase_start_(phase_start_cost) {}

  void ChargeSeqPages(int64_t pages, const std::string& table) {
    local_.AddSeqPages(ctx_->cost_model(), pages,
                       ctx_->IoMultiplierAt(table, phase_start_, pages));
  }
  void ChargeRowCpu(int64_t rows) {
    local_.AddRowCpu(ctx_->cost_model(), rows);
  }
  void ChargeHashOps(int64_t ops) {
    local_.AddHashOps(ctx_->cost_model(), ops);
  }
  void ChargePredicateEvals(int64_t evals) {
    local_.AddPredicateEvals(ctx_->cost_model(), evals);
  }
  /// Raw clock charge (fault-retry backoff).
  void AddCost(double units) { local_.cost_units += units; }
  void CountRevocation() { ++local_.memory_revocations; }

  double cost() const { return local_.cost_units; }

  /// Merges the accumulated delta into the shared context (one lock
  /// acquisition; applies scheduled events and the budget check) and resets
  /// the local accumulator.
  void Flush() {
    ctx_->MergeWorkerCounters(local_);
    local_ = ExecCounters{};
  }

 private:
  ExecContext* ctx_;
  double phase_start_;
  ExecCounters local_;
};

}  // namespace rqp

#endif  // RQP_EXEC_PARALLEL_H_
