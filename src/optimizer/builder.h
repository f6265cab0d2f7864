#ifndef RQP_OPTIMIZER_BUILDER_H_
#define RQP_OPTIMIZER_BUILDER_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel.h"
#include "optimizer/plan.h"
#include "storage/table.h"

namespace rqp {

/// The qualified slots that some non-leaf node of `plan` reads: both keys of
/// every hash, merge and g-join, an index-NL join's outer key and inner index
/// column, the columns of Filter and nested-loops predicates, Map inputs,
/// Sort keys, group keys and aggregate inputs. Scan filters are unqualified
/// and compile against the whole table, so they add nothing. std::nullopt
/// unless the root is an aggregate: any other root returns every column.
std::optional<std::set<std::string>> PlanReadSet(const PlanNode& plan);

/// Lowers a physical plan to an executable operator tree. Parameter markers
/// remaining in predicates — and parameter-typed index-scan bounds — are
/// bound with `params` here (run time), so a generic plan optimized with
/// magic numbers, or a cached parametric plan, executes with the real
/// values.
///
/// Column pruning: under an aggregate root, every TableScanOp, IndexScanOp
/// and IndexNLJoinOp inner fetch emits only the columns of its table that
/// PlanReadSet(plan) names (in table order, never fewer than one). A g-join's
/// indexed right child and materialized sources keep every column. No charge
/// depends on row width, so plans, the cost clock, every counter and the
/// output are the same as without pruning.
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
