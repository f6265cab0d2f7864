#ifndef RQP_EXEC_SHARED_SCAN_H_
#define RQP_EXEC_SHARED_SCAN_H_

#include <optional>
#include <vector>

#include "exec/context.h"
#include "expr/pred_program.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace rqp {

/// Shared (cooperative) table scan — §3.1 "shared & coordinated scans" and
/// the QPipe / Crescando entries of the reading list: any number of
/// concurrent single-table queries attach to one scan cursor; the table is
/// read once per pass and every attached query's predicate is evaluated
/// against each row. The sequential I/O is paid once instead of once per
/// query, which makes per-query response time nearly independent of
/// concurrency — Crescando's "predictable performance for unpredictable
/// workloads".
///
/// This implementation serves COUNT(*)-style aggregation queries (the
/// experiments' workhorse); each attached query gets its predicate's
/// matching-row count and, optionally, the matching row ids.
class SharedScan {
 public:
  explicit SharedScan(const Table* table) : table_(table) {}

  /// Attaches a count query. Returns the query's id within this scan.
  /// `collect_rows` additionally materializes matching row ids.
  StatusOr<int> Attach(PredicatePtr predicate, bool collect_rows = false);

  /// Runs one pass over the table, answering every attached query.
  /// Charges `ctx` one sequential scan plus one predicate evaluation per
  /// (row, query) pair.
  Status Execute(ExecContext* ctx);

  int num_attached() const { return static_cast<int>(queries_.size()); }
  /// Matching-row count of query `id` (valid after Execute).
  int64_t count(int id) const { return queries_[static_cast<size_t>(id)].count; }
  const std::vector<int64_t>& row_ids(int id) const {
    return queries_[static_cast<size_t>(id)].rows;
  }

  /// Convenience baseline: the cost of answering the same queries with
  /// independent scans (one full scan each) — for the sharing experiments.
  static double IndependentScansCost(const Table& table, int num_queries,
                                     const CostModel& cm);

 private:
  struct Attached {
    PredicateProgram program;
    bool collect_rows = false;
    int64_t count = 0;
    std::vector<int64_t> rows;
  };

  const Table* table_;
  std::vector<Attached> queries_;
};

}  // namespace rqp

#endif  // RQP_EXEC_SHARED_SCAN_H_
