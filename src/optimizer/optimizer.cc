#include "optimizer/optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "expr/rewriter.h"

namespace rqp {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool ExtractSargableRange(const PredicatePtr& pred, const std::string& column,
                          int64_t* lo, int64_t* hi, PredicatePtr* residual,
                          bool normalize) {
  if (pred == nullptr) return false;
  PredicatePtr norm = normalize ? Normalize(pred) : pred;
  // After normalization a conjunction has per-column canonical leaves, so a
  // single pass over (possibly one) conjuncts suffices.
  std::vector<PredicatePtr> conjuncts;
  if (const auto* a = std::get_if<Conjunction>(&norm->node)) {
    conjuncts = a->children;
  } else {
    conjuncts = {norm};
  }
  bool found = false;
  int64_t range_lo = std::numeric_limits<int64_t>::min();
  int64_t range_hi = std::numeric_limits<int64_t>::max();
  std::vector<PredicatePtr> rest;
  for (const auto& c : conjuncts) {
    bool consumed = false;
    if (const auto* cmp = std::get_if<Comparison>(&c->node)) {
      if (cmp->column == column && cmp->param_index < 0) {
        switch (cmp->op) {
          case CmpOp::kEq:
            range_lo = std::max(range_lo, cmp->value);
            range_hi = std::min(range_hi, cmp->value);
            consumed = found = true;
            break;
          case CmpOp::kLe:
            range_hi = std::min(range_hi, cmp->value);
            consumed = found = true;
            break;
          case CmpOp::kGe:
            range_lo = std::max(range_lo, cmp->value);
            consumed = found = true;
            break;
          default:
            break;  // != stays residual; </> eliminated by normalization
        }
      }
    } else if (const auto* bt = std::get_if<Between>(&c->node)) {
      if (bt->column == column) {
        range_lo = std::max(range_lo, bt->lo);
        range_hi = std::min(range_hi, bt->hi);
        consumed = found = true;
      }
    }
    if (!consumed) rest.push_back(c);
  }
  if (!found) return false;
  *lo = range_lo;
  *hi = range_hi;
  if (rest.empty()) {
    *residual = nullptr;
  } else if (rest.size() == 1) {
    *residual = rest[0];
  } else {
    *residual = MakeAnd(std::move(rest));
  }
  return true;
}

bool ExtractParamRange(const PredicatePtr& pred, const std::string& column,
                       int* lo_param, int* hi_param, PredicatePtr* residual) {
  if (pred == nullptr) return false;
  std::vector<PredicatePtr> conjuncts;
  if (const auto* a = std::get_if<Conjunction>(&pred->node)) {
    conjuncts = a->children;
  } else {
    conjuncts = {pred};
  }
  *lo_param = -1;
  *hi_param = -1;
  std::vector<PredicatePtr> rest;
  for (const auto& c : conjuncts) {
    bool consumed = false;
    if (const auto* cmp = std::get_if<Comparison>(&c->node)) {
      if (cmp->column == column && cmp->param_index >= 0) {
        if (cmp->op == CmpOp::kGe && *lo_param < 0) {
          *lo_param = cmp->param_index;
          consumed = true;
        } else if (cmp->op == CmpOp::kLe && *hi_param < 0) {
          *hi_param = cmp->param_index;
          consumed = true;
        }
      }
    }
    if (!consumed) rest.push_back(c);
  }
  if (*lo_param < 0 || *hi_param < 0) return false;
  if (rest.empty()) {
    *residual = nullptr;
  } else if (rest.size() == 1) {
    *residual = rest[0];
  } else {
    *residual = MakeAnd(std::move(rest));
  }
  return true;
}

struct Optimizer::Unit {
  bool is_materialized = false;
  std::string table;        // base unit
  PredicatePtr predicate;   // base unit
  const MaterializedLeaf* leaf = nullptr;
  std::vector<std::string> covered;  // tables covered by this unit
};

PlanNodePtr Optimizer::MakeLeafPlan(const Unit& unit,
                                    std::vector<PlanNodePtr>* sink) const {
  int ids = 0;  // leaf-internal; reassigned by the caller
  if (unit.is_materialized) {
    auto node = NewPlanNode(PlanOp::kMaterializedSource, &ids);
    node->materialized = unit.leaf->batches;
    node->materialized_slots = unit.leaf->slots;
    node->materialized_rows = unit.leaf->rows;
    node->covered_tables = unit.leaf->covered_tables;
    coster_.Cost(node.get());
    return node;
  }
  auto scan = NewPlanNode(PlanOp::kTableScan, &ids);
  scan->table = unit.table;
  scan->predicate = unit.predicate;
  coster_.Cost(scan.get());
  if (sink != nullptr) sink->push_back(scan->Clone());
  PlanNodePtr best = std::move(scan);

  if (options_.consider_index_scan && unit.predicate != nullptr) {
    for (const auto& col : catalog_->IndexedColumns(unit.table)) {
      int64_t lo, hi;
      PredicatePtr residual;
      if (ExtractSargableRange(unit.predicate, col, &lo, &hi, &residual,
                               options_.normalize_for_sargable)) {
        auto iscan = NewPlanNode(PlanOp::kIndexScan, &ids);
        iscan->table = unit.table;
        iscan->index_column = col;
        iscan->index_lo = lo;
        iscan->index_hi = hi;
        iscan->predicate = residual;
        coster_.Cost(iscan.get());
        if (sink != nullptr) sink->push_back(iscan->Clone());
        if (iscan->est_cost < best->est_cost) best = std::move(iscan);
        continue;
      }
      // Late binding: parameter-typed bounds resolved at build time.
      int lo_param, hi_param;
      if (HasParams(unit.predicate) &&
          ExtractParamRange(unit.predicate, col, &lo_param, &hi_param,
                            &residual)) {
        auto iscan = NewPlanNode(PlanOp::kIndexScan, &ids);
        iscan->table = unit.table;
        iscan->index_column = col;
        iscan->index_lo_param = lo_param;
        iscan->index_hi_param = hi_param;
        iscan->predicate = residual;
        coster_.Cost(iscan.get());
        if (sink != nullptr) sink->push_back(iscan->Clone());
        if (iscan->est_cost < best->est_cost) best = std::move(iscan);
      }
    }
  }
  return best;
}

double Optimizer::JoinMethodCost(JoinMethod method, double left_rows,
                                 double right_rows, double jsel,
                                 double right_cost) const {
  const CostModel& cm = options_.cost.exec;
  const double mem = static_cast<double>(options_.cost.memory_pages);
  const double out = left_rows * right_rows * jsel;
  auto pages = [](double rows) {
    return std::max(1.0, std::ceil(rows / kRowsPerPage));
  };
  auto hash_spill = [&](double build_pages, double probe_pages) {
    if (build_pages <= mem) return 0.0;
    return (1.0 - mem / build_pages) * (build_pages + probe_pages) *
           (cm.spill_page_write + cm.spill_page_read);
  };
  auto sort_cost = [&](double n) {
    return std::max(1.0, n) * std::log2(std::max(1.0, n) + 1.0) *
           cm.compare_op;
  };
  switch (method) {
    case JoinMethod::kHashBuildRight:
      return right_cost +
             (left_rows + right_rows * cm.hash_build_factor) * cm.hash_op +
             hash_spill(pages(right_rows), pages(left_rows)) +
             out * cm.row_cpu;
    case JoinMethod::kHashBuildLeft:
      return right_cost +
             (left_rows * cm.hash_build_factor + right_rows) * cm.hash_op +
             hash_spill(pages(left_rows), pages(right_rows)) +
             out * cm.row_cpu;
    case JoinMethod::kSortMerge:
      return right_cost + sort_cost(left_rows) + sort_cost(right_rows) +
             (left_rows + right_rows) * cm.compare_op + out * cm.row_cpu;
    case JoinMethod::kIndexNLRight:
      return left_rows * cm.index_descend +
             out * (cm.random_page_read + cm.row_cpu);
  }
  return 0.0;
}

JoinMethod Optimizer::BestJoinMethod(double left_rows, double right_rows,
                                     double jsel, bool index_nl_available,
                                     double right_cost) const {
  JoinMethod best = JoinMethod::kHashBuildRight;
  double best_cost = JoinMethodCost(best, left_rows, right_rows, jsel,
                                    right_cost);
  auto consider = [&](JoinMethod m) {
    const double c = JoinMethodCost(m, left_rows, right_rows, jsel,
                                    right_cost);
    if (c < best_cost) {
      best_cost = c;
      best = m;
    }
  };
  consider(JoinMethod::kHashBuildLeft);
  if (options_.consider_sort_merge) consider(JoinMethod::kSortMerge);
  if (options_.consider_index_nl && index_nl_available) {
    consider(JoinMethod::kIndexNLRight);
  }
  return best;
}

std::pair<int64_t, int64_t> Optimizer::ValidityRange(
    JoinMethod chosen, double left_rows, double right_rows, double jsel,
    bool index_nl_available, double right_cost, double slack) const {
  // The chosen method stays valid at cardinality l while its marginal cost
  // is within `slack` of the best applicable method's.
  auto still_valid = [&](double l) {
    const JoinMethod best =
        BestJoinMethod(l, right_rows, jsel, index_nl_available, right_cost);
    if (best == chosen) return true;
    const double best_cost =
        JoinMethodCost(best, l, right_rows, jsel, right_cost);
    const double chosen_cost =
        JoinMethodCost(chosen, l, right_rows, jsel, right_cost);
    return chosen_cost <= slack * best_cost;
  };
  const double kMaxMult = 65536.0;
  double hi_mult = kMaxMult;
  for (double m = std::sqrt(2.0); m <= kMaxMult; m *= std::sqrt(2.0)) {
    if (!still_valid(left_rows * m)) {
      hi_mult = m / std::sqrt(2.0);
      break;
    }
  }
  double lo_mult = 1.0 / kMaxMult;
  for (double m = std::sqrt(2.0); m <= kMaxMult; m *= std::sqrt(2.0)) {
    if (!still_valid(left_rows / m)) {
      lo_mult = std::sqrt(2.0) / m;
      break;
    }
  }
  const double lo = std::max(0.0, left_rows * lo_mult);
  const double hi = std::min(static_cast<double>(
                                 std::numeric_limits<int64_t>::max() / 2),
                             left_rows * hi_mult);
  return {static_cast<int64_t>(std::floor(lo)),
          static_cast<int64_t>(std::ceil(hi))};
}

PlanNodePtr Optimizer::MakeJoinPlan(const PlanNode& left,
                                    const PlanNode& right,
                                    const std::vector<const JoinEdge*>& edges,
                                    const std::vector<Unit>& units,
                                    int64_t* plans_considered,
                                    int* id_counter,
                                    std::vector<PlanNodePtr>* sink) const {
  (void)units;
  if (edges.empty()) return nullptr;
  // The first edge is the physical join key; any further crossing edges
  // (cyclic join graphs) are applied as residual column-to-column filters
  // above the join.
  const JoinEdge& edge = *edges[0];

  // Orient the edge: which slot belongs to the left plan?
  const auto left_tables = left.BaseTables();
  const bool edge_left_in_left =
      std::find(left_tables.begin(), left_tables.end(), edge.left_table) !=
      left_tables.end();
  const std::string left_key =
      edge_left_in_left ? edge.LeftSlot() : edge.RightSlot();
  const std::string right_key =
      edge_left_in_left ? edge.RightSlot() : edge.LeftSlot();
  std::string rt, rc;
  SplitSlot(right_key, &rt, &rc);

  std::vector<PlanNodePtr> candidates;

  // Index nested loops: right must be a plain scan of a base table with an
  // index on the join column.
  const bool right_is_base_scan =
      right.op == PlanOp::kTableScan && right.table == rt;
  const SortedIndex* inner_index = catalog_->FindIndex(rt, rc);
  const bool inlj_available = right_is_base_scan && inner_index != nullptr;

  if (options_.use_gjoin) {
    auto gj = NewPlanNode(PlanOp::kGJoin, id_counter);
    gj->left_key = left_key;
    gj->right_key = right_key;
    if (inlj_available && right.predicate == nullptr) {
      gj->table = rt;          // enables the g-join index strategy
      gj->index_column = rc;
    }
    gj->children.push_back(left.Clone());
    gj->children.push_back(right.Clone());
    candidates.push_back(std::move(gj));
  } else {
    {
      auto hj = NewPlanNode(PlanOp::kHashJoin, id_counter);
      hj->left_key = left_key;
      hj->right_key = right_key;
      hj->children.push_back(left.Clone());
      hj->children.push_back(right.Clone());
      candidates.push_back(std::move(hj));
    }
    if (options_.consider_sort_merge) {
      auto sl = NewPlanNode(PlanOp::kSort, id_counter);
      sl->sort_key = left_key;
      sl->children.push_back(left.Clone());
      auto sr = NewPlanNode(PlanOp::kSort, id_counter);
      sr->sort_key = right_key;
      sr->children.push_back(right.Clone());
      auto mj = NewPlanNode(PlanOp::kMergeJoin, id_counter);
      mj->left_key = left_key;
      mj->right_key = right_key;
      mj->children.push_back(std::move(sl));
      mj->children.push_back(std::move(sr));
      candidates.push_back(std::move(mj));
    }
    if (options_.consider_index_nl && inlj_available) {
      auto inlj = NewPlanNode(PlanOp::kIndexNLJoin, id_counter);
      inlj->left_key = left_key;
      inlj->table = rt;
      inlj->index_column = rc;
      inlj->children.push_back(left.Clone());
      PlanNodePtr top = std::move(inlj);
      if (right.predicate != nullptr) {
        // INLJ probes the raw table; the inner's local predicate becomes a
        // residual filter over qualified names.
        auto filter = NewPlanNode(PlanOp::kFilter, id_counter);
        filter->predicate = QualifyColumns(right.predicate, rt);
        filter->children.push_back(std::move(top));
        top = std::move(filter);
      }
      candidates.push_back(std::move(top));
    }
  }

  // Extra crossing edges (cyclic join graphs) become a residual
  // column-comparison filter above whichever join shape is emitted.
  auto wrap_residual = [&](PlanNodePtr p) -> PlanNodePtr {
    if (edges.size() <= 1) return p;
    std::vector<PredicatePtr> residuals;
    for (size_t e = 1; e < edges.size(); ++e) {
      residuals.push_back(MakeColCmp(edges[e]->LeftSlot(), CmpOp::kEq,
                                     edges[e]->RightSlot()));
    }
    auto filter = NewPlanNode(PlanOp::kFilter, id_counter);
    filter->predicate = residuals.size() == 1 ? residuals[0]
                                              : MakeAnd(std::move(residuals));
    filter->children.push_back(std::move(p));
    coster_.Cost(filter.get());
    return filter;
  };

  PlanNodePtr best;
  for (auto& cand : candidates) {
    coster_.Cost(cand.get());
    ++*plans_considered;
    if (sink != nullptr) sink->push_back(wrap_residual(cand->Clone()));
    if (!best || cand->est_cost < best->est_cost) best = std::move(cand);
  }
  if (best) best = wrap_residual(std::move(best));
  return best;
}

void Optimizer::InsertChecks(PlanNode* node, int* next_check_id) const {
  auto is_join = [](PlanOp op) {
    return op == PlanOp::kHashJoin || op == PlanOp::kMergeJoin ||
           op == PlanOp::kIndexNLJoin || op == PlanOp::kNestedLoopsJoin ||
           op == PlanOp::kGJoin;
  };
  auto is_uncertain = [&](const PlanNode& child) {
    // A CHECK pays off only where the estimate is genuinely at risk: a
    // multi-column predicate (independence-assumption exposure) or a join
    // below (compounded estimates). Single-column range estimates come
    // straight from a histogram and are not worth a pipeline breaker —
    // POP's own placement heuristic.
    auto risky_pred = [](const PredicatePtr& p) {
      return p != nullptr && ReferencedColumns(p).size() >= 2;
    };
    if (risky_pred(child.predicate)) return true;
    for (const auto& c : child.children) {
      if (risky_pred(c->predicate) || is_join(c->op)) return true;
    }
    return is_join(child.op);
  };

  for (auto& child : node->children) {
    InsertChecks(child.get(), next_check_id);
  }
  if (!is_join(node->op)) return;
  // Cross products have no alternative join method to switch to.
  if (node->op == PlanOp::kNestedLoopsJoin) return;

  for (size_t i = 0; i < node->children.size(); ++i) {
    PlanNodePtr& child = node->children[i];
    if (child->op == PlanOp::kCheck) continue;
    if (!is_uncertain(*child)) continue;

    int64_t lo = 0, hi = std::numeric_limits<int64_t>::max();
    if (options_.check_factor > 1.0) {
      lo = static_cast<int64_t>(child->est_rows / options_.check_factor);
      hi = static_cast<int64_t>(child->est_rows * options_.check_factor) + 1;
    } else {
      // Sensitivity probing: find where the parent's method choice flips.
      const double this_rows = child->est_rows;
      double other_rows = 1.0;
      double other_cost = 0.0;
      if (node->children.size() == 2) {
        other_rows = node->children[1 - i]->est_rows;
        other_cost = node->children[1 - i]->est_cost;
      } else if (node->op == PlanOp::kIndexNLJoin) {
        // The INLJ inner is not consumed; alternatives would pay a scan.
        other_rows = card_->TableRows(node->table);
        other_cost = std::ceil(other_rows / kRowsPerPage) *
                         options_.cost.exec.seq_page_read +
                     other_rows * options_.cost.exec.row_cpu;
      }
      double jsel = 0.01;
      if (node->op == PlanOp::kIndexNLJoin) {
        jsel = card_->JoinSelectivity(node->left_key,
                                      node->table + "." + node->index_column);
      } else if (!node->left_key.empty() && !node->right_key.empty()) {
        jsel = card_->JoinSelectivity(node->left_key, node->right_key);
      }
      const bool inlj_avail = node->op == PlanOp::kIndexNLJoin;
      // The method the plan actually committed to, seen from the checked
      // child's seat (left = checked side).
      JoinMethod chosen_method = JoinMethod::kHashBuildRight;
      switch (node->op) {
        case PlanOp::kIndexNLJoin:
          chosen_method = JoinMethod::kIndexNLRight;
          break;
        case PlanOp::kHashJoin:
          chosen_method = i == 0 ? JoinMethod::kHashBuildRight
                                 : JoinMethod::kHashBuildLeft;
          break;
        case PlanOp::kMergeJoin:
          chosen_method = JoinMethod::kSortMerge;
          break;
        case PlanOp::kGJoin:
          chosen_method = this_rows <= other_rows
                              ? JoinMethod::kHashBuildLeft
                              : JoinMethod::kHashBuildRight;
          break;
        default:
          break;
      }
      auto range = ValidityRange(chosen_method, std::max(1.0, this_rows),
                                 other_rows, jsel, inlj_avail, other_cost);
      // Safety margin: a flip just past the boundary saves little; only
      // re-optimize when the better plan is clearly better.
      lo = range.first / 2;
      hi = range.second < std::numeric_limits<int64_t>::max() / 4
               ? range.second * 2
               : range.second;
    }

    auto check = std::make_unique<PlanNode>();
    check->op = PlanOp::kCheck;
    check->id = (*next_check_id)++;
    check->check_lo = lo;
    check->check_hi = hi;
    check->est_rows = child->est_rows;
    check->children.push_back(std::move(child));
    node->children[i] = std::move(check);
  }
}

StatusOr<OptimizationResult> Optimizer::Optimize(
    const QuerySpec& spec,
    const std::vector<MaterializedLeaf>& materialized) const {
  OptimizationResult result;
  int id_counter = 0;

  // 1. Bind parameters (or keep markers for generic-plan optimization).
  auto bind = [&](const PredicatePtr& p) -> PredicatePtr {
    if (p == nullptr) return nullptr;
    if (options_.bind_params_at_optimization && !spec.params.empty()) {
      return BindParams(p, spec.params);
    }
    return p;
  };

  // 2. Build enumeration units.
  std::vector<Unit> units;
  std::map<std::string, int> unit_of_table;
  std::set<std::string> covered;
  for (const auto& leaf : materialized) {
    Unit u;
    u.is_materialized = true;
    u.leaf = &leaf;
    u.covered = leaf.covered_tables;
    for (const auto& t : leaf.covered_tables) {
      covered.insert(t);
      unit_of_table[t] = static_cast<int>(units.size());
    }
    units.push_back(std::move(u));
  }
  for (const auto& ref : spec.tables) {
    if (covered.count(ref.table) != 0) continue;
    if (!catalog_->GetTable(ref.table).ok()) {
      return Status::NotFound("unknown table '" + ref.table + "'");
    }
    Unit u;
    u.table = ref.table;
    u.predicate = bind(ref.predicate);
    u.covered = {ref.table};
    unit_of_table[ref.table] = static_cast<int>(units.size());
    units.push_back(std::move(u));
  }
  const size_t m = units.size();
  if (m == 0) return Status::InvalidArgument("query references no tables");
  if (m > 20) return Status::Unimplemented("more than 20 join units");

  // 3. Resolve edges to unit pairs; detect cycles/duplicates (unsupported).
  struct UnitEdge { int a, b; const JoinEdge* edge; };
  std::vector<UnitEdge> uedges;
  for (const auto& e : spec.joins) {
    auto ia = unit_of_table.find(e.left_table);
    auto ib = unit_of_table.find(e.right_table);
    if (ia == unit_of_table.end() || ib == unit_of_table.end()) {
      return Status::InvalidArgument("join references unknown table");
    }
    if (ia->second == ib->second) continue;  // already joined (materialized)
    uedges.push_back({ia->second, ib->second, &e});
  }

  // Robust selection re-costs candidates with selectivity overrides pinned
  // per perturbation point; materialized leaves already have exact
  // cardinalities, so re-optimization rounds fall back to nominal choice.
  const bool robust_on =
      RobustSelectionEnabled(options_.robust_selection.enabled) &&
      materialized.empty();
  std::vector<PlanNodePtr> robust_sink;
  std::vector<PlanNodePtr>* top_sink = robust_on ? &robust_sink : nullptr;

  // 4. Leaf plans.
  std::vector<PlanNodePtr> leaf_plans;
  leaf_plans.reserve(m);
  for (const auto& u : units) {
    // For single-table queries the leaf alternatives are the candidate set.
    leaf_plans.push_back(MakeLeafPlan(u, m == 1 ? top_sink : nullptr));
    ++result.plans_considered;
  }
  // Reassign leaf ids to be unique across the plan.
  std::function<void(PlanNode*)> renumber = [&](PlanNode* n) {
    n->id = id_counter++;
    for (auto& c : n->children) renumber(c.get());
  };
  for (auto& lp : leaf_plans) renumber(lp.get());

  // Edge lookup between unit sets.
  auto crossing_edges = [&](uint32_t s1, uint32_t s2) {
    std::vector<const JoinEdge*> out;
    for (const auto& ue : uedges) {
      const uint32_t ba = 1u << ue.a, bb = 1u << ue.b;
      if (((s1 & ba) && (s2 & bb)) || ((s1 & bb) && (s2 & ba))) {
        out.push_back(ue.edge);
      }
    }
    return out;
  };

  PlanNodePtr joined;
  bool budget_hit = false;

  if (m == 1) {
    joined = std::move(leaf_plans[0]);
  } else if (static_cast<int>(m) <= options_.max_dp_tables) {
    // DPsize over connected subsets.
    std::vector<PlanNodePtr> dp(1u << m);
    for (size_t i = 0; i < m; ++i) dp[1u << i] = std::move(leaf_plans[i]);
    for (uint32_t mask = 1; mask < (1u << m); ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // singleton
      PlanNodePtr best;
      for (uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        const uint32_t rest = mask ^ sub;
        if (!dp[sub] || !dp[rest]) continue;
        auto edges = crossing_edges(sub, rest);
        if (edges.empty()) continue;
        if (options_.enumeration_budget > 0 &&
            result.plans_considered >= options_.enumeration_budget) {
          budget_hit = true;
          break;
        }
        PlanNodePtr cand = MakeJoinPlan(*dp[sub], *dp[rest], edges, units,
                                        &result.plans_considered, &id_counter,
                                        mask == (1u << m) - 1 ? top_sink
                                                              : nullptr);
        if (cand && (!best || cand->est_cost < best->est_cost)) {
          best = std::move(cand);
        }
      }
      if (budget_hit) break;
      if (best) dp[mask] = std::move(best);
    }
    if (!budget_hit && dp[(1u << m) - 1]) {
      joined = std::move(dp[(1u << m) - 1]);
    } else if (!budget_hit) {
      // Disconnected graph: fold remaining components with cross joins.
      std::vector<PlanNodePtr> components;
      uint32_t remaining = (1u << m) - 1;
      // Collect maximal connected masks greedily.
      for (uint32_t mask = (1u << m) - 1; mask > 0; --mask) {
        if ((mask & remaining) != mask) continue;
        if (dp[mask]) {
          components.push_back(std::move(dp[mask]));
          remaining &= ~mask;
          if (remaining == 0) break;
          mask = (1u << m) - 1;
        }
      }
      if (remaining != 0) {
        return Status::Internal("join enumeration failed to cover all units");
      }
      joined = std::move(components[0]);
      for (size_t i = 1; i < components.size(); ++i) {
        auto cross = NewPlanNode(PlanOp::kNestedLoopsJoin, &id_counter);
        cross->children.push_back(std::move(joined));
        cross->children.push_back(std::move(components[i]));
        joined = std::move(cross);
      }
      coster_.Cost(joined.get());
    }
  }

  if (!joined) {
    // Greedy fallback (too many tables, or enumeration budget exhausted).
    result.used_greedy = true;
    struct Entry { uint32_t mask; PlanNodePtr plan; };
    std::vector<Entry> entries;
    for (size_t i = 0; i < m; ++i) {
      if (leaf_plans[i] == nullptr) {
        // DP may have consumed leaves before the budget hit; rebuild.
        leaf_plans[i] = MakeLeafPlan(units[i]);
        renumber(leaf_plans[i].get());
      }
      entries.push_back({1u << i, std::move(leaf_plans[i])});
    }
    while (entries.size() > 1) {
      double best_cost = kInf;
      size_t bi = 0, bj = 1;
      PlanNodePtr best;
      for (size_t i = 0; i < entries.size(); ++i) {
        for (size_t j = 0; j < entries.size(); ++j) {
          if (i == j) continue;
          auto edges = crossing_edges(entries[i].mask, entries[j].mask);
          if (edges.empty()) continue;
          PlanNodePtr cand =
              MakeJoinPlan(*entries[i].plan, *entries[j].plan, edges, units,
                           &result.plans_considered, &id_counter,
                           entries.size() == 2 ? top_sink : nullptr);
          if (cand && cand->est_cost < best_cost) {
            best_cost = cand->est_cost;
            best = std::move(cand);
            bi = i;
            bj = j;
          }
        }
      }
      if (!best) {
        // No connected pair: cross join the two smallest entries.
        std::sort(entries.begin(), entries.end(),
                  [](const Entry& a, const Entry& b) {
                    return a.plan->est_rows < b.plan->est_rows;
                  });
        auto cross = NewPlanNode(PlanOp::kNestedLoopsJoin, &id_counter);
        cross->children.push_back(std::move(entries[0].plan));
        cross->children.push_back(std::move(entries[1].plan));
        coster_.Cost(cross.get());
        best = std::move(cross);
        bi = 0;
        bj = 1;
      }
      const uint32_t merged = entries[bi].mask | entries[bj].mask;
      if (bi > bj) std::swap(bi, bj);
      entries.erase(entries.begin() + static_cast<long>(bj));
      entries.erase(entries.begin() + static_cast<long>(bi));
      entries.push_back({merged, std::move(best)});
    }
    joined = std::move(entries[0].plan);
  }

  // 5. Derived columns (expression-VM Map above the join tree), then
  // aggregation: Map's output slots are visible to group_by/aggregates.
  PlanNodePtr root = std::move(joined);
  if (!spec.derived.empty()) {
    auto map = NewPlanNode(PlanOp::kMap, &id_counter);
    map->derived = spec.derived;
    map->children.push_back(std::move(root));
    root = std::move(map);
  }
  if (!spec.aggregates.empty() || !spec.group_by.empty()) {
    auto agg = NewPlanNode(PlanOp::kHashAgg, &id_counter);
    agg->group_by = spec.group_by;
    agg->aggregates = spec.aggregates;
    agg->children.push_back(std::move(root));
    root = std::move(agg);
  }

  // 5b. Penalty-aware robust selection (PARQO): score the surfaced
  // candidates over deterministic perturbations of the selectivity error
  // bands and replace the nominal winner with the flattest-surface plan.
  if (robust_on) {
    auto with_agg = [&](PlanNodePtr p) -> PlanNodePtr {
      if (!spec.derived.empty()) {
        int mids = 0;
        auto map = NewPlanNode(PlanOp::kMap, &mids);
        map->derived = spec.derived;
        map->children.push_back(std::move(p));
        p = std::move(map);
      }
      if (spec.aggregates.empty() && spec.group_by.empty()) return p;
      int ids = 0;
      auto agg = NewPlanNode(PlanOp::kHashAgg, &ids);
      agg->group_by = spec.group_by;
      agg->aggregates = spec.aggregates;
      agg->children.push_back(std::move(p));
      return agg;
    };
    // Candidate set: the nominal winner plus every surfaced alternative,
    // deduplicated by structural signature, cheapest-first, top-K.
    std::vector<PlanNodePtr> collected;
    collected.push_back(root->Clone());
    for (auto& alt : robust_sink) {
      collected.push_back(with_agg(std::move(alt)));
    }
    std::set<std::string> seen;
    std::vector<PlanNodePtr> candidates;
    for (auto& cand : collected) {
      int ids = 0;
      std::function<void(PlanNode*)> renum = [&](PlanNode* n) {
        n->id = ids++;
        for (auto& c : n->children) renum(c.get());
      };
      renum(cand.get());
      coster_.Cost(cand.get());
      if (seen.insert(cand->Explain(false)).second) {
        candidates.push_back(std::move(cand));
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const PlanNodePtr& a, const PlanNodePtr& b) {
                if (a->est_cost != b->est_cost) {
                  return a->est_cost < b->est_cost;
                }
                return a->Explain(false) < b->Explain(false);
              });
    const size_t top_k =
        static_cast<size_t>(std::max(1, options_.robust_selection.top_k));
    if (candidates.size() > top_k) candidates.resize(top_k);

    // Error-band dimensions from each uncertain estimate's pedigree.
    std::vector<PerturbDimension> dims;
    for (const auto& u : units) {
      if (u.is_materialized || u.predicate == nullptr) continue;
      const SelEstimate e = card_->ScanEstimate(u.table, u.predicate);
      PerturbDimension d;
      d.kind = PerturbDimension::Kind::kScan;
      d.table = u.table;
      d.center = e.value;
      d.sigma = BandSigma(e, card_->options().sigma_per_term);
      dims.push_back(std::move(d));
    }
    for (const auto& ue : uedges) {
      const SelEstimate e =
          card_->JoinEstimate(ue.edge->LeftSlot(), ue.edge->RightSlot());
      PerturbDimension d;
      d.kind = PerturbDimension::Kind::kJoin;
      d.left_slot = ue.edge->LeftSlot();
      d.right_slot = ue.edge->RightSlot();
      d.center = e.value;
      d.sigma = BandSigma(e, card_->options().sigma_per_term);
      dims.push_back(std::move(d));
    }

    RobustSelection sel =
        SelectRobustPlan(candidates, dims, *card_, options_.cost,
                         options_.robust_selection);
    if (sel.chosen >= 0) {
      result.robust_used = true;
      result.hedged = sel.hedged;
      result.candidate_signatures.reserve(candidates.size());
      for (const auto& cand : candidates) {
        result.candidate_signatures.push_back(cand->Explain(false));
      }
      if (sel.hedged && sel.runner_up >= 0) {
        result.fallback_plan =
            candidates[static_cast<size_t>(sel.runner_up)]->Clone();
        coster_.Cost(result.fallback_plan.get());
      }
      root = std::move(candidates[static_cast<size_t>(sel.chosen)]);
      result.robust_report = std::move(sel);
    }
  }

  // 6. POP checkpoints. A hedged robust winner arms CHECKs even when POP is
  // off — the probes are what trigger the switch to the fallback.
  if (options_.add_pop_checks || result.hedged) {
    int next_check_id = 1 << 20;  // distinct from optimizer-assigned ids
    InsertChecks(root.get(), &next_check_id);
  }

  coster_.Cost(root.get());
  result.plan = std::move(root);
  return result;
}

}  // namespace rqp
