#include "optimizer/builder.h"

#include <optional>
#include <string>

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

/// True when `plan` has the shape GatherOp executes: an optional hash
/// aggregation over a right-deep hash-join chain whose probe spine bottoms
/// out in a table scan (children[0] is always the probe side). Anything
/// else — index scans, filters, checks, other join algorithms — keeps the
/// serial lowering.
bool IsParallelSegment(const PlanNode& plan) {
  const PlanNode* cur = &plan;
  if (cur->op == PlanOp::kHashAgg) cur = cur->children[0].get();
  while (cur->op == PlanOp::kHashJoin) cur = cur->children[0].get();
  return cur->op == PlanOp::kTableScan;
}

/// What every node of one plan is lowered with.
struct Lowering {
  const Catalog* catalog;
  const std::vector<int64_t>& params;
  const ParallelOptions* parallel;
  /// The plan's read set; null lowers every scan with all its columns.
  const std::set<std::string>* read;
};

/// The operators of a matched parallel segment's probe spine, which
/// GatherOp drives: its HashJoinOps bottom-up and the scan under them.
struct SpineOps {
  std::vector<HashJoinOp*> joins;
  const TableScanOp* scan = nullptr;
};

/// The columns of `table` that `read` names, in table order and never fewer
/// than one (the first column stands in when none is read). Empty — every
/// column — when `read` is null.
std::vector<std::string> PrunedColumns(const Table& table,
                                       const std::set<std::string>* read) {
  std::vector<std::string> columns;
  if (read == nullptr || table.schema().num_columns() == 0) return columns;
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const std::string& name = table.schema().column(c).name;
    if (read->count(table.name() + "." + name) > 0) columns.push_back(name);
  }
  if (columns.empty()) columns.push_back(table.schema().column(0).name);
  return columns;
}

void CollectReads(const PlanNode& plan, std::set<std::string>* read) {
  const auto add = [read](const std::vector<std::string>& slots) {
    read->insert(slots.begin(), slots.end());
  };
  switch (plan.op) {
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin:
    case PlanOp::kGJoin:
      read->insert(plan.left_key);
      read->insert(plan.right_key);
      break;
    case PlanOp::kIndexNLJoin:
      read->insert(plan.left_key);
      read->insert(plan.table + "." + plan.index_column);
      break;
    case PlanOp::kFilter:
    case PlanOp::kNestedLoopsJoin:
      add(ReferencedColumns(plan.predicate));
      break;
    case PlanOp::kMap:
      for (const auto& d : plan.derived) add(ExprReferencedColumns(d.expr));
      break;
    case PlanOp::kSort:
      read->insert(plan.sort_key);
      break;
    case PlanOp::kHashAgg:
      add(plan.group_by);
      for (const auto& a : plan.aggregates) {
        if (a.fn != AggFn::kCount) read->insert(a.slot);
      }
      break;
    case PlanOp::kTableScan:  // filters are unqualified, over the whole table
    case PlanOp::kIndexScan:
    case PlanOp::kMaterializedSource:
    case PlanOp::kCheck:
      break;
  }
  for (const auto& c : plan.children) CollectReads(*c, read);
}

/// Lowers `plan`. A non-null `spine` means `plan` lies on the probe spine of
/// a matched parallel segment: it is lowered exactly as at DOP 1 and its
/// HashJoinOps (bottom-up) and driving scan are recorded for GatherOp. Build
/// sides are lowered on their own and may form segments of their own.
StatusOr<OperatorPtr> Lower(const PlanNode& plan, const Lowering& env,
                            SpineOps* spine) {
  const std::vector<int64_t>& params = env.params;
  auto build_child = [&](size_t i) -> StatusOr<OperatorPtr> {
    return Lower(*plan.children[i], env, spine);
  };

  if (spine == nullptr && env.parallel != nullptr &&
      env.parallel->num_threads > 1 && env.parallel->pool != nullptr &&
      IsParallelSegment(plan)) {
    SpineOps ops;
    auto serial = Lower(plan, env, &ops);
    if (!serial.ok()) return serial.status();
    std::optional<GatherOp::AggStage> agg;
    if (plan.op == PlanOp::kHashAgg) {
      agg = GatherOp::AggStage{plan.group_by, plan.aggregates};
    }
    OperatorPtr op = std::make_unique<GatherOp>(
        std::move(serial.value()), std::move(ops.joins), ops.scan,
        std::move(agg), *env.parallel);
    op->set_plan_node_id(plan.id);
    return op;
  }

  OperatorPtr op;
  switch (plan.op) {
    case PlanOp::kTableScan: {
      auto table = env.catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      auto scan = std::make_unique<TableScanOp>(
          table.value(), Bind(plan.predicate, params),
          PrunedColumns(*table.value(), env.read));
      if (spine != nullptr) spine->scan = scan.get();
      op = std::move(scan);
      break;
    }
    case PlanOp::kIndexScan: {
      auto table = env.catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      const SortedIndex* index =
          env.catalog->FindIndex(plan.table, plan.index_column);
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
      op = std::make_unique<IndexScanOp>(
          table.value(), index, lo, hi, Bind(plan.predicate, params),
          PrunedColumns(*table.value(), env.read));
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
      auto build = Lower(*plan.children[1], env, /*spine=*/nullptr);
      if (!build.ok()) return build.status();
      auto join = std::make_unique<HashJoinOp>(std::move(probe.value()),
                                               std::move(build.value()),
                                               plan.left_key, plan.right_key);
      if (spine != nullptr) spine->joins.push_back(join.get());
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
      auto table = env.catalog->GetTable(plan.table);
      if (!table.ok()) return table.status();
      const SortedIndex* index =
          env.catalog->FindIndex(plan.table, plan.index_column);
      if (index == nullptr) {
        return Status::NotFound("no index on " + plan.table + "." +
                                plan.index_column);
      }
      op = std::make_unique<IndexNLJoinOp>(
          std::move(outer.value()), table.value(), index, plan.left_key,
          PrunedColumns(*table.value(), env.read));
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
      // the key. That child stays a serial, unpruned TableScanOp at every
      // DOP (TableScanOp::ScansWholeTable), so the index strategy can stand
      // in for it.
      const bool indexed = !plan.table.empty();
      const Lowering whole{env.catalog, params, nullptr, nullptr};
      auto right = Lower(*plan.children[1], indexed ? whole : env, spine);
      if (!right.ok()) return right.status();
      op = std::make_unique<GJoinOp>(
          std::move(left.value()), std::move(right.value()), plan.left_key,
          plan.right_key,
          indexed ? env.catalog->FindIndex(plan.table, plan.index_column)
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

std::optional<std::set<std::string>> PlanReadSet(const PlanNode& plan) {
  if (plan.op != PlanOp::kHashAgg) return std::nullopt;
  std::set<std::string> read;
  CollectReads(plan, &read);
  return read;
}

StatusOr<OperatorPtr> BuildExecutable(const PlanNode& plan,
                                      const Catalog* catalog,
                                      const std::vector<int64_t>& params,
                                      const ParallelOptions* parallel) {
  const auto read = PlanReadSet(plan);
  const Lowering env{catalog, params, parallel,
                     read.has_value() ? &*read : nullptr};
  return Lower(plan, env, /*spine=*/nullptr);
}

}  // namespace rqp
