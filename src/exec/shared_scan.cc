#include "exec/shared_scan.h"

#include <algorithm>

namespace rqp {

StatusOr<int> SharedScan::Attach(PredicatePtr predicate, bool collect_rows) {
  auto program = PredicateProgram::Compile(predicate, *table_);
  if (!program.ok()) return program.status();
  Attached attached{std::move(program.value()), collect_rows, 0, {}};
  queries_.push_back(std::move(attached));
  return static_cast<int>(queries_.size()) - 1;
}

Status SharedScan::Execute(ExecContext* ctx) {
  for (auto& q : queries_) {
    q.count = 0;
    q.rows.clear();
  }
  // One sequential pass, shared by every attached query.
  ctx->ChargeSeqPages(table_->num_pages());
  ctx->ChargeRowCpu(table_->num_rows());
  const int64_t n = table_->num_rows();
  const auto num_queries = static_cast<int64_t>(queries_.size());
  std::vector<const int64_t*> cols(table_->schema().num_columns());
  SelectionVector sel;
  const auto batch = static_cast<int64_t>(kBatchRows);
  for (int64_t begin = 0; begin < n; begin += batch) {
    const int64_t chunk = std::min(batch, n - begin);
    // One eval per (row, query) pair, charged one call each: the clock sums
    // unit charges, and one bulk charge would round differently. Each
    // query then filters the chunk in one pass.
    for (int64_t i = 0; i < chunk * num_queries; ++i) {
      ctx->ChargePredicateEvals(1);
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c] = table_->column(c).data() + begin;
    }
    for (auto& q : queries_) {
      q.program.BuildSelection(cols.data(), /*stride=*/1,
                               static_cast<size_t>(chunk), &sel, ctx->simd());
      q.count += static_cast<int64_t>(sel.size());
      if (q.collect_rows) {
        for (const uint32_t r : sel) q.rows.push_back(begin + r);
      }
    }
  }
  return Status::OK();
}

double SharedScan::IndependentScansCost(const Table& table, int num_queries,
                                        const CostModel& cm) {
  const double per_query =
      static_cast<double>(table.num_pages()) * cm.seq_page_read +
      2.0 * static_cast<double>(table.num_rows()) * cm.row_cpu;
  return per_query * num_queries;
}

}  // namespace rqp
