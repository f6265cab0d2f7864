#include "optimizer/robust_select.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/env.h"
#include "util/rng.h"

namespace rqp {

bool RobustSelectionEnabled(int enabled) {
  if (enabled >= 0) return enabled != 0;
  return EnvFlag("RQP_ROBUST_PLAN", /*if_unset=*/false);
}

double BandSigma(const SelEstimate& e, double sigma_per_term) {
  const int terms = e.independence_terms + 2 * e.guessed_terms;
  if (terms <= 0) return 0.0;
  return sigma_per_term * std::sqrt(static_cast<double>(terms));
}

std::vector<std::vector<double>> MakePerturbationPoints(
    const std::vector<PerturbDimension>& dims,
    const RobustSelectionOptions& options) {
  const int samples = std::max(1, options.samples);
  std::vector<std::vector<double>> points;
  points.reserve(static_cast<size_t>(samples));
  Rng rng(options.seed);
  for (int s = 0; s < samples; ++s) {
    std::vector<double> p(dims.size());
    for (size_t d = 0; d < dims.size(); ++d) {
      // One draw per (sample, dimension) regardless of sigma keeps the
      // stream aligned when bands widen or collapse between queries.
      const double z = rng.Gaussian(0.0, 1.0);
      if (s == 0 || dims[d].sigma <= 0.0) {
        p[d] = dims[d].center;
      } else {
        p[d] = dims[d].center * std::exp(z * dims[d].sigma);
      }
      p[d] = std::clamp(p[d], options.min_selectivity, 1.0);
    }
    points.push_back(std::move(p));
  }
  return points;
}

RobustSelection SelectRobustPlan(const std::vector<PlanNodePtr>& candidates,
                                 const std::vector<PerturbDimension>& dims,
                                 const CardinalityModel& model,
                                 const CostParams& cost_params,
                                 const RobustSelectionOptions& options) {
  RobustSelection sel;
  const size_t n = candidates.size();
  sel.scores.resize(n);
  if (n == 0) return sel;
  for (const auto& d : dims) {
    if (d.sigma > 0.0) ++sel.dimensions;
  }

  const auto points = MakePerturbationPoints(dims, options);
  sel.samples = static_cast<int>(points.size());

  // Cost matrix: every candidate at every perturbation point, each point a
  // model copy with the point's selectivities pinned as overrides (scan
  // overrides bypass the percentile shift, so the surface is sampled in
  // true-selectivity space, not shifted space).
  std::vector<std::vector<double>> cost(
      n, std::vector<double>(points.size(), 0.0));
  for (size_t s = 0; s < points.size(); ++s) {
    CardinalityModel point_model = model;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (dims[d].kind == PerturbDimension::Kind::kScan) {
        point_model.SetScanSelectivityOverride(dims[d].table, points[s][d]);
      } else {
        point_model.SetJoinSelectivityOverride(dims[d].left_slot,
                                               dims[d].right_slot,
                                               points[s][d]);
      }
    }
    PlanCoster coster(&point_model, cost_params);
    for (size_t i = 0; i < n; ++i) {
      PlanNodePtr clone = candidates[i]->Clone();
      coster.Cost(clone.get());
      cost[i][s] = clone->est_cost;
    }
  }

  for (size_t s = 0; s < points.size(); ++s) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) best = std::min(best, cost[i][s]);
    for (size_t i = 0; i < n; ++i) {
      const double pen = cost[i][s] - best;
      sel.scores[i].expected_penalty += pen;
      sel.scores[i].worst_penalty = std::max(sel.scores[i].worst_penalty, pen);
      sel.scores[i].worst_cost = std::max(sel.scores[i].worst_cost,
                                          cost[i][s]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    sel.scores[i].expected_penalty /= static_cast<double>(points.size());
    sel.scores[i].nominal_cost = cost[i][0];
  }

  // Worst-case cap: the minimax worst cost anchors the cap, so at least one
  // candidate always survives.
  if (options.worst_case_cap > 0.0) {
    double min_worst = std::numeric_limits<double>::infinity();
    for (const auto& sc : sel.scores) min_worst = std::min(min_worst,
                                                           sc.worst_cost);
    for (auto& sc : sel.scores) {
      sc.capped = sc.worst_cost > options.worst_case_cap * min_worst;
    }
  }

  auto score_of = [&](size_t i) {
    return sel.scores[i].expected_penalty +
           options.nominal_tradeoff * sel.scores[i].nominal_cost;
  };
  for (size_t i = 0; i < n; ++i) {
    if (sel.scores[i].capped) continue;
    if (sel.chosen < 0 ||
        score_of(i) < score_of(static_cast<size_t>(sel.chosen))) {
      sel.chosen = static_cast<int>(i);
    }
  }

  // Runner-up: the remaining candidate with the flattest worst case — the
  // plan the engine switches to when the winner's CHECK fires mid-query.
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == sel.chosen || sel.scores[i].capped) continue;
    if (sel.runner_up < 0 ||
        sel.scores[i].worst_penalty <
            sel.scores[static_cast<size_t>(sel.runner_up)].worst_penalty) {
      sel.runner_up = static_cast<int>(i);
    }
  }

  if (sel.chosen >= 0 && sel.runner_up >= 0) {
    const auto& win = sel.scores[static_cast<size_t>(sel.chosen)];
    sel.hedged =
        options.hedge_threshold <= 0.0 ||
        win.worst_penalty >
            options.hedge_threshold * std::max(win.nominal_cost, 1e-12);
  }
  return sel;
}

}  // namespace rqp
