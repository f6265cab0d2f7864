#include "optimizer/builder.h"

#include <optional>

#include "exec/filter_ops.h"
#include "exec/join_ops.h"
#include "exec/parallel_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"

namespace rqp {
namespace {

PredicatePtr Bind(const PredicatePtr& p, const std::vector<int64_t>& params) {
  if (p == nullptr) return nullptr;
  if (!HasParams(p)) return p;
  return BindParams(p, params);
}

/// The plan shape GatherOp executes: an optional hash aggregation over a
/// right-deep hash-join chain whose probe spine bottoms out in a table scan
/// (children[0] is always the probe side). Anything else — index scans,
/// filters, checks, other join algorithms — keeps the serial lowering.
struct ParallelSegment {
  const PlanNode* agg = nullptr;
  const PlanNode* scan = nullptr;
};

bool MatchParallelSegment(const PlanNode& plan, ParallelSegment* seg) {
  const PlanNode* cur = &plan;
  if (cur->op == PlanOp::kHashAgg) {
    seg->agg = cur;
    cur = cur->children[0].get();
  }
  while (cur->op == PlanOp::kHashJoin) cur = cur->children[0].get();
  if (cur->op != PlanOp::kTableScan) return false;
  seg->scan = cur;
  return true;
}

/// Lowers `plan`. A non-null `segment_joins` means `plan` lies on the probe
/// spine of a matched parallel segment: it is lowered exactly as at DOP 1
/// and its HashJoinOps are recorded bottom-up for GatherOp. Build sides are
/// lowered on their own and may form segments of their own.
StatusOr<OperatorPtr> Lower(const PlanNode& plan, const Catalog* catalog,
                            const std::vector<int64_t>& params,
                            const ParallelOptions* parallel,
                            std::vector<HashJoinOp*>* segment_joins) {
  auto build_child = [&](size_t i) -> StatusOr<OperatorPtr> {
    return Lower(*plan.children[i], catalog, params, parallel, segment_joins);
  };

  if (segment_joins == nullptr && parallel != nullptr &&
      parallel->num_threads > 1 && parallel->pool != nullptr) {
    ParallelSegment seg;
    if (MatchParallelSegment(plan, &seg)) {
      auto table = catalog->GetTable(seg.scan->table);
      if (!table.ok()) return table.status();
      std::vector<HashJoinOp*> joins;
      auto serial = Lower(plan, catalog, params, parallel, &joins);
      if (!serial.ok()) return serial.status();
      std::optional<GatherOp::AggStage> agg;
      if (seg.agg != nullptr) {
        agg = GatherOp::AggStage{seg.agg->group_by, seg.agg->aggregates};
      }
      OperatorPtr op = std::make_unique<GatherOp>(
          std::move(serial.value()), std::move(joins), table.value(),
          Bind(seg.scan->predicate, params), seg.scan->id, std::move(agg),
          *parallel);
      op->set_plan_node_id(plan.id);
      return op;
    }
  }

  OperatorPtr op;
  switch (plan.op) {
    case PlanOp::kTableScan: {
      auto table = catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      op = std::make_unique<TableScanOp>(table.value(),
                                         Bind(plan.predicate, params));
      break;
    }
    case PlanOp::kIndexScan: {
      auto table = catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      const SortedIndex* index =
          catalog->FindIndex(plan.table, plan.index_column);
      if (index == nullptr) {
        return Status::NotFound("no index on " + plan.table + "." +
                                plan.index_column);
      }
      int64_t lo = plan.index_lo, hi = plan.index_hi;
      if (plan.index_lo_param >= 0) {
        if (static_cast<size_t>(plan.index_lo_param) >= params.size()) {
          return Status::InvalidArgument("missing index bound parameter");
        }
        lo = params[static_cast<size_t>(plan.index_lo_param)];
      }
      if (plan.index_hi_param >= 0) {
        if (static_cast<size_t>(plan.index_hi_param) >= params.size()) {
          return Status::InvalidArgument("missing index bound parameter");
        }
        hi = params[static_cast<size_t>(plan.index_hi_param)];
      }
      op = std::make_unique<IndexScanOp>(table.value(), index, lo, hi,
                                         Bind(plan.predicate, params));
      break;
    }
    case PlanOp::kMaterializedSource: {
      op = std::make_unique<VectorSourceOp>(plan.materialized,
                                            plan.materialized_slots);
      break;
    }
    case PlanOp::kFilter: {
      auto child = build_child(0);
      if (!child.ok()) return child.status();
      op = std::make_unique<FilterOp>(std::move(child.value()),
                                      Bind(plan.predicate, params));
      break;
    }
    case PlanOp::kHashJoin: {
      auto probe = build_child(0);
      if (!probe.ok()) return probe.status();
      auto build = Lower(*plan.children[1], catalog, params, parallel,
                         /*segment_joins=*/nullptr);
      if (!build.ok()) return build.status();
      auto join = std::make_unique<HashJoinOp>(std::move(probe.value()),
                                               std::move(build.value()),
                                               plan.left_key, plan.right_key);
      if (segment_joins != nullptr) segment_joins->push_back(join.get());
      op = std::move(join);
      break;
    }
    case PlanOp::kMergeJoin: {
      auto left = build_child(0);
      if (!left.ok()) return left.status();
      auto right = build_child(1);
      if (!right.ok()) return right.status();
      op = std::make_unique<MergeJoinOp>(std::move(left.value()),
                                         std::move(right.value()),
                                         plan.left_key, plan.right_key);
      break;
    }
    case PlanOp::kIndexNLJoin: {
      auto outer = build_child(0);
      if (!outer.ok()) return outer.status();
      auto table = catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      const SortedIndex* index =
          catalog->FindIndex(plan.table, plan.index_column);
      if (index == nullptr) {
        return Status::NotFound("no index on " + plan.table + "." +
                                plan.index_column);
      }
      op = std::make_unique<IndexNLJoinOp>(std::move(outer.value()),
                                           table.value(), index,
                                           plan.left_key);
      break;
    }
    case PlanOp::kNestedLoopsJoin: {
      auto left = build_child(0);
      if (!left.ok()) return left.status();
      auto right = build_child(1);
      if (!right.ok()) return right.status();
      op = std::make_unique<NestedLoopsJoinOp>(std::move(left.value()),
                                               std::move(right.value()),
                                               Bind(plan.predicate, params));
      break;
    }
    case PlanOp::kGJoin: {
      auto left = build_child(0);
      if (!left.ok()) return left.status();
      // plan.table names a plain base-table right child with an index on
      // the key. That child stays a serial TableScanOp at every DOP, so the
      // index strategy can stand in for it.
      const bool indexed = !plan.table.empty();
      auto right = Lower(*plan.children[1], catalog, params,
                         indexed ? nullptr : parallel, segment_joins);
      if (!right.ok()) return right.status();
      op = std::make_unique<GJoinOp>(
          std::move(left.value()), std::move(right.value()), plan.left_key,
          plan.right_key,
          indexed ? catalog->FindIndex(plan.table, plan.index_column)
                  : nullptr);
      break;
    }
    case PlanOp::kMap: {
      auto child = build_child(0);
      if (!child.ok()) return child.status();
      op = std::make_unique<MapOp>(std::move(child.value()), plan.derived);
      break;
    }
    case PlanOp::kSort: {
      auto child = build_child(0);
      if (!child.ok()) return child.status();
      op = std::make_unique<SortOp>(std::move(child.value()), plan.sort_key);
      break;
    }
    case PlanOp::kHashAgg: {
      auto child = build_child(0);
      if (!child.ok()) return child.status();
      op = std::make_unique<HashAggOp>(std::move(child.value()),
                                       plan.group_by, plan.aggregates);
      break;
    }
    case PlanOp::kCheck: {
      auto child = build_child(0);
      if (!child.ok()) return child.status();
      op = std::make_unique<CheckOp>(std::move(child.value()),
                                     static_cast<int64_t>(plan.est_rows),
                                     plan.check_lo, plan.check_hi);
      break;
    }
  }
  op->set_plan_node_id(plan.id);
  return op;
}

}  // namespace

StatusOr<OperatorPtr> BuildExecutable(const PlanNode& plan,
                                      const Catalog* catalog,
                                      const std::vector<int64_t>& params,
                                      const ParallelOptions* parallel) {
  return Lower(plan, catalog, params, parallel, /*segment_joins=*/nullptr);
}

}  // namespace rqp
