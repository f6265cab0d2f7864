#ifndef RQP_METRICS_PLAN_SPACE_H_
#define RQP_METRICS_PLAN_SPACE_H_

#include <string>
#include <vector>

#include "engine/engine.h"

namespace rqp {

/// One explored plan together with its measured execution cost.
struct PlanSample {
  std::string signature;  ///< structural Explain(false)
  std::string explain;    ///< Explain(true) of the plan as costed
  double est_cost = 0;
  double measured_cost = 0;
  int64_t output_rows = 0;
  /// Sum over this plan's operators of |est − actual| / actual — the
  /// Metric1 body; summed across samples it approximates Metric2.
  double op_error_sum = 0;
};

struct PlanSpaceOptions {
  /// Extra cardinality percentiles to optimize at (0.5 always included).
  std::vector<double> extra_percentiles = {0.9};
};

/// Approximates the optimizer's enumerated plan space by optimizing `spec`
/// under every combination of repertoire toggles (index scans, sort-merge,
/// index NL) and the requested percentiles, deduplicating structurally
/// identical plans and *executing* each one. The minimum measured cost over
/// the samples is the paper's RunTimeOpt; the engine's own choice is
/// RunTimeBest (Metric3), and the per-environment minimum is the "ideal
/// plan" of the end-to-end robustness benchmark.
StatusOr<std::vector<PlanSample>> SamplePlanSpace(
    Engine* engine, const QuerySpec& spec,
    const PlanSpaceOptions& options = PlanSpaceOptions());

/// Minimum measured cost over samples (RunTimeOpt); 0 if empty.
double BestMeasuredCost(const std::vector<PlanSample>& samples);

}  // namespace rqp

#endif  // RQP_METRICS_PLAN_SPACE_H_
