#ifndef RQP_OPTIMIZER_OPTIMIZER_H_
#define RQP_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/cost.h"
#include "optimizer/plan.h"
#include "optimizer/robust_select.h"
#include "storage/table.h"

namespace rqp {

/// One base-table reference with an optional local (unqualified) predicate.
struct TableRef {
  std::string table;
  PredicatePtr predicate;  ///< may be null
};

/// Equi-join edge between two base tables.
struct JoinEdge {
  std::string left_table, left_column;
  std::string right_table, right_column;

  std::string LeftSlot() const { return left_table + "." + left_column; }
  std::string RightSlot() const { return right_table + "." + right_column; }
};

/// A select-project-join-aggregate query. The engine's logical input — a
/// deliberately SQL-free spec (queries in the experiments are generated
/// programmatically).
struct QuerySpec {
  std::vector<TableRef> tables;
  std::vector<JoinEdge> joins;
  /// Derived columns computed above the join tree (expression-VM Map node);
  /// their names become slots visible to group_by/aggregates.
  std::vector<DerivedColumn> derived;
  std::vector<std::string> group_by;  ///< qualified slots
  std::vector<AggSpec> aggregates;    ///< empty = no aggregation node
  std::vector<int64_t> params;        ///< parameter bindings (may be empty)
};

/// Intermediate result carried over from a POP checkpoint into
/// re-optimization: plays the role of a base relation covering a set of
/// already-joined tables, with exactly known cardinality.
struct MaterializedLeaf {
  std::vector<std::string> covered_tables;
  std::vector<std::string> slots;
  int64_t rows = 0;
  std::shared_ptr<std::vector<RowBatch>> batches;
};

/// Join algorithms the validity-range prober reasons about.
enum class JoinMethod { kHashBuildRight, kHashBuildLeft, kSortMerge,
                        kIndexNLRight };

struct OptimizerOptions {
  CostParams cost;
  bool consider_index_scan = true;
  bool consider_sort_merge = true;
  bool consider_index_nl = true;
  /// Robust execution: emit a single GJoin for every join instead of
  /// choosing among the three traditional algorithms (E15).
  bool use_gjoin = false;
  /// POP: insert CHECK operators with validity ranges above join inputs.
  bool add_pop_checks = false;
  /// 0 = derive validity ranges by sensitivity probing; > 1 = fixed factor
  /// [est/f, est*f].
  double check_factor = 0.0;
  /// Bind parameter markers before optimizing (true) or optimize a generic
  /// plan with magic-number selectivities (false; the late-binding hazard).
  bool bind_params_at_optimization = true;
  /// DP is used up to this many leaves; greedy join ordering beyond.
  int max_dp_tables = 12;
  /// Heuristic optimizer termination (E20): abort DP and fall back to
  /// greedy once this many candidate plans have been costed (0 = no limit).
  int64_t enumeration_budget = 0;
  /// Normalize predicates before sargable-range extraction so equivalent
  /// formulations get the same access path. Off = the fragile syntactic
  /// matching that the §5.1 equivalence benchmark exposes.
  bool normalize_for_sargable = true;
  /// Penalty-aware robust plan selection (PARQO; DESIGN.md §12): retain
  /// top-K enumeration candidates, re-cost them over deterministic
  /// perturbations of the selectivity error bands, choose by expected
  /// penalty, and hedge with the runner-up when no candidate is flat.
  RobustSelectionOptions robust_selection;
};

struct OptimizationResult {
  PlanNodePtr plan;
  int64_t plans_considered = 0;
  bool used_greedy = false;
  /// Robust selection (OptimizerOptions::robust_selection / $RQP_ROBUST_PLAN):
  bool robust_used = false;  ///< the plan was chosen by penalty scoring
  bool hedged = false;       ///< steep surface: CHECKs armed + fallback set
  /// Runner-up candidate pre-computed as the mid-query fallback: when a
  /// hedged winner's CHECK fires (or the guardrails trip), the engine
  /// switches to this already-scored plan instead of re-optimizing.
  PlanNodePtr fallback_plan;
  /// Per-candidate penalty scores, parallel to `candidate_signatures`
  /// (diagnostics and the penalty-table benches).
  RobustSelection robust_report;
  std::vector<std::string> candidate_signatures;
};

/// Cost-based optimizer: access-path selection, DP (DPsize) join
/// enumeration with a greedy fallback, join-method choice, optional POP
/// checkpoints, optional robust (percentile) cardinalities via the
/// CardinalityModel, and re-optimization from materialized intermediates.
class Optimizer {
 public:
  Optimizer(const Catalog* catalog, const CardinalityModel* card,
            OptimizerOptions options)
      : catalog_(catalog), card_(card), options_(std::move(options)),
        coster_(card_, options_.cost) {}

  /// Optimizes `spec`. `materialized` (if any) replace their covered tables
  /// as ready-made leaves (the POP re-optimization entry point).
  StatusOr<OptimizationResult> Optimize(
      const QuerySpec& spec,
      const std::vector<MaterializedLeaf>& materialized = {}) const;

  /// Marginal-cost winner among the applicable join methods for inputs of
  /// the given cardinalities (used by validity-range probing and tests).
  /// `right_cost` is the cost of *producing* the right input — paid by
  /// hash/merge joins but avoided entirely by index nested loops, which
  /// probes the persistent index instead.
  JoinMethod BestJoinMethod(double left_rows, double right_rows, double jsel,
                            bool index_nl_available,
                            double right_cost = 0.0) const;

  /// Marginal cost of one join method at the given input sizes.
  double JoinMethodCost(JoinMethod method, double left_rows,
                        double right_rows, double jsel,
                        double right_cost = 0.0) const;

  /// Validity range (on the left child's cardinality) within which
  /// `chosen` — the method the plan actually uses — stays within `slack`
  /// of the best method's marginal cost. Near-optimal is good enough:
  /// re-optimizing over a hair's-width tie would thrash. Probes
  /// multipliers in steps of sqrt(2) out to 2^16.
  std::pair<int64_t, int64_t> ValidityRange(JoinMethod chosen,
                                            double left_rows,
                                            double right_rows, double jsel,
                                            bool index_nl_available,
                                            double right_cost = 0.0,
                                            double slack = 1.3) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  struct Unit;  // enumeration leaf (base table or materialized intermediate)

  /// `sink` (when non-null) additionally receives every costed alternative,
  /// not just the winner — the robust selector's candidate feed.
  PlanNodePtr MakeLeafPlan(const Unit& unit,
                           std::vector<PlanNodePtr>* sink = nullptr) const;
  /// Best join of `left` and `right` given the connecting edges (the first
  /// is the physical join key; extra edges — cyclic join graphs — become a
  /// residual column-comparison filter above the join); returns null when
  /// no edge connects (caller falls back to NLJ cross product).
  PlanNodePtr MakeJoinPlan(const PlanNode& left, const PlanNode& right,
                           const std::vector<const JoinEdge*>& edges,
                           const std::vector<Unit>& units,
                           int64_t* plans_considered, int* id_counter,
                           std::vector<PlanNodePtr>* sink = nullptr) const;
  /// Wraps each uncertain join input in a CHECK node, numbering the CHECKs
  /// from `*next_check_id` (one counter per Optimize call, so ids repeat
  /// across optimizations of the same query).
  void InsertChecks(PlanNode* node, int* next_check_id) const;

  const Catalog* catalog_;
  const CardinalityModel* card_;
  OptimizerOptions options_;
  PlanCoster coster_;
};

/// Extracts a sargable range on `column` from a (normalized) conjunction:
/// returns true and fills lo/hi/residual when the predicate constrains
/// `column` to one contiguous range. `residual` is the remainder (may be
/// null when the range was the whole predicate).
/// With `normalize` false the extraction is purely syntactic (only literal
/// Between/Eq/Ge/Le conjuncts are recognized) — the fragile behavior the
/// equivalence-robustness experiment measures.
bool ExtractSargableRange(const PredicatePtr& pred, const std::string& column,
                          int64_t* lo, int64_t* hi, PredicatePtr* residual,
                          bool normalize = true);

/// Late-binding variant: recognizes the parameterized pattern
/// `column >= ?i AND column <= ?j` (both bounds must be parameters) and
/// returns the parameter indexes; the rest of the conjunction becomes the
/// residual. Enables index plans whose bounds are resolved at run time.
bool ExtractParamRange(const PredicatePtr& pred, const std::string& column,
                       int* lo_param, int* hi_param, PredicatePtr* residual);

}  // namespace rqp

#endif  // RQP_OPTIMIZER_OPTIMIZER_H_
