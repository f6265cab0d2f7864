#include "metrics/plan_space.h"

#include <algorithm>
#include <set>

#include "optimizer/builder.h"
#include "metrics/robustness.h"

namespace rqp {
namespace {

void CollectCards(const PlanNode& plan, const std::map<int, int64_t>& actuals,
                  std::vector<QueryResult::NodeCard>* out) {
  auto it = actuals.find(plan.id);
  if (it != actuals.end()) {
    out->push_back({plan.id, plan.est_rows, it->second});
  }
  for (const auto& c : plan.children) CollectCards(*c, actuals, out);
}

}  // namespace

StatusOr<std::vector<PlanSample>> SamplePlanSpace(
    Engine* engine, const QuerySpec& spec, const PlanSpaceOptions& options) {
  std::vector<PlanSample> samples;
  std::set<std::string> seen;

  std::vector<double> percentiles = {0.5};
  for (double p : options.extra_percentiles) {
    if (p != 0.5) percentiles.push_back(p);
  }

  // Planning-time cost perturbations that coax the optimizer into the
  // corners of its plan space (execution is always measured under the
  // engine's true cost model). Index 0 is the unperturbed model.
  std::vector<CostModel> perturbations;
  {
    const CostModel base = engine->options().cost_model;
    perturbations.push_back(base);
    CostModel no_hash = base;
    no_hash.hash_op *= 1e4;  // forces merge / index joins
    perturbations.push_back(no_hash);
    CostModel cheap_random = base;
    cheap_random.random_page_read *= 1e-3;  // favors index paths
    cheap_random.index_descend *= 1e-3;
    perturbations.push_back(cheap_random);
    CostModel dear_scan = base;
    dear_scan.seq_page_read *= 1e3;  // punishes full scans
    perturbations.push_back(dear_scan);
    CostModel no_sort = base;
    no_sort.compare_op *= 1e4;  // bans sort-merge
    perturbations.push_back(no_sort);
  }

  for (double percentile : percentiles) {
    for (int mask = 0; mask < 8; ++mask) {
      for (size_t perturb = 0; perturb < perturbations.size(); ++perturb) {
        CardinalityOptions card_opts = engine->options().cardinality;
        card_opts.percentile = percentile;
        CardinalityModel model(
            engine->stats(), card_opts, nullptr,
            card_opts.estimator.use_feedback ? engine->feedback() : nullptr);

        OptimizerOptions opts = engine->options().optimizer;
        opts.consider_index_scan = (mask & 1) != 0;
        opts.consider_sort_merge = (mask & 2) != 0;
        opts.consider_index_nl = (mask & 4) != 0;
        // The traditional repertoire, even for an engine that runs g-join.
        opts.use_gjoin = false;
        opts.add_pop_checks = false;
        opts.cost.memory_pages = engine->memory()->capacity();
        opts.cost.exec = perturbations[perturb];

        Optimizer optimizer(engine->catalog(), &model, opts);
        auto result = optimizer.Optimize(spec);
        if (!result.ok()) return result.status();

        const std::string signature = result->plan->Explain(false);
        if (!seen.insert(signature).second) continue;

        // Re-cost under the true model so est_cost is comparable across
        // samples regardless of the perturbation that surfaced the plan.
        if (perturb != 0) {
          CostParams true_params;
          true_params.exec = engine->options().cost_model;
          true_params.memory_pages = engine->memory()->capacity();
          PlanCoster true_coster(&model, true_params);
          true_coster.Cost(result->plan.get());
        }

        auto op = BuildExecutable(*result->plan, engine->catalog(),
                                  spec.params);
        if (!op.ok()) return op.status();
        ExecContext ctx(engine->memory());
        ctx.set_cost_model(engine->options().cost_model);
        ctx.set_simd(engine->simd_level());
        auto rows = DrainOperator(op.value().get(), &ctx, nullptr);
        if (!rows.ok()) return rows.status();

        PlanSample sample;
        sample.signature = signature;
        sample.explain = result->plan->Explain();
        sample.est_cost = result->plan->est_cost;
        sample.measured_cost = ctx.cost();
        sample.output_rows = *rows;
        std::vector<QueryResult::NodeCard> cards;
        CollectCards(*result->plan, ctx.actual_cardinalities(), &cards);
        sample.op_error_sum = CardinalityErrorSum(cards);
        samples.push_back(std::move(sample));
      }
    }
  }
  return samples;
}

double BestMeasuredCost(const std::vector<PlanSample>& samples) {
  double best = 0;
  for (const auto& s : samples) {
    if (best == 0 || s.measured_cost < best) best = s.measured_cost;
  }
  return best;
}

}  // namespace rqp
