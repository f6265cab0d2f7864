#ifndef RQP_OPTIMIZER_BUILDER_H_
#define RQP_OPTIMIZER_BUILDER_H_

#include <vector>

#include "exec/operator.h"
#include "exec/parallel.h"
#include "optimizer/plan.h"
#include "storage/table.h"

namespace rqp {

/// Lowers a physical plan to an executable operator tree. Parameter markers
/// remaining in predicates — and parameter-typed index-scan bounds — are
/// bound with `params` here (run time), so a generic plan optimized with
/// magic numbers, or a cached parametric plan, executes with the real
/// values.
///
/// When `parallel` requests DOP > 1, each right-deep table-scan →
/// hash-join* → hash-agg? segment is lowered to its serial operators wrapped
/// in a morsel-driven GatherOp; every other plan shape builds unchanged (the
/// parallel options simply don't apply). A g-join's right child stays serial
/// when the g-join carries an index to probe in its place. Passing nullptr
/// or num_threads <= 1 reproduces the classic single-threaded tree exactly.
StatusOr<OperatorPtr> BuildExecutable(const PlanNode& plan,
                                      const Catalog* catalog,
                                      const std::vector<int64_t>& params = {},
                                      const ParallelOptions* parallel = nullptr);

}  // namespace rqp

#endif  // RQP_OPTIMIZER_BUILDER_H_
