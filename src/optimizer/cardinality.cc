#include "optimizer/cardinality.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/env.h"

namespace rqp {

CardinalityOptions ResolveCardinalityOptions(CardinalityOptions options) {
  if (options.percentile <= 0.0) {
    options.percentile = EnvDouble("RQP_PLAN_PERCENTILE", 0.5);
  }
  if (options.percentile <= 0.0 || options.percentile >= 1.0) {
    options.percentile = 0.5;
  }
  if (options.sigma_per_term < 0.0) {
    options.sigma_per_term = EnvDouble("RQP_SIGMA_PER_TERM", 0.8);
  }
  if (options.sigma_per_term < 0.0) options.sigma_per_term = 0.8;
  return options;
}

double InverseNormalCdf(double p) {
  assert(p > 0.0 && p < 1.0);
  // Acklam's approximation; absolute error < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

bool SplitSlot(const std::string& slot, std::string* table,
               std::string* column) {
  const size_t dot = slot.find('.');
  if (dot == std::string::npos) return false;
  *table = slot.substr(0, dot);
  *column = slot.substr(dot + 1);
  return true;
}

double CardinalityModel::TableRows(const std::string& table) const {
  const TableStats* ts = stats_->Find(table);
  if (ts == nullptr) return 1000.0;  // magic default for unknown tables
  return std::max<double>(1.0, static_cast<double>(ts->row_count()));
}

SelectivityEstimator CardinalityModel::MakeEstimator(
    const std::string& table) const {
  const TableStats* ts = stats_->Find(table);
  const CorrelationInfo* corr = nullptr;
  if (correlations_ != nullptr) {
    auto it = correlations_->find(table);
    if (it != correlations_->end()) corr = it->second;
  }
  return SelectivityEstimator(table, ts, options_.estimator, corr, feedback_,
                              st_store_);
}

double CardinalityModel::Shift(const SelEstimate& e) const {
  if (options_.percentile == 0.5) return e.value;
  const int terms = e.independence_terms + 2 * e.guessed_terms;
  if (terms == 0) return e.value;
  const double z = InverseNormalCdf(options_.percentile);
  const double sigma = options_.sigma_per_term * std::sqrt(
      static_cast<double>(terms));
  return std::min(1.0, e.value * std::exp(z * sigma));
}

double CardinalityModel::ScanSelectivity(const std::string& table,
                                         const PredicatePtr& pred) const {
  return Shift(ScanEstimate(table, pred));
}

SelEstimate CardinalityModel::ScanEstimate(const std::string& table,
                                           const PredicatePtr& pred) const {
  auto it = scan_override_.find(table);
  if (it != scan_override_.end()) return {it->second, 0, 0};
  if (pred == nullptr) return {1.0, 0, 0};
  PredicatePtr effective = pred;
  if (!peek_params_.empty() && HasParams(pred)) {
    effective = BindParams(pred, peek_params_);  // bind peeking
  }
  SelectivityEstimator est = MakeEstimator(table);
  return est.EstimateWithPedigree(effective);
}

double CardinalityModel::QualifiedSelectivity(const PredicatePtr& pred) const {
  if (pred == nullptr) return 1.0;
  return std::visit(
      [&](const auto& n) -> double {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, Conjunction>) {
          double s = 1.0;
          for (const auto& c : n.children) s *= QualifiedSelectivity(c);
          return s;
        } else if constexpr (std::is_same_v<T, Disjunction>) {
          double s = 1.0;
          for (const auto& c : n.children) s *= 1.0 - QualifiedSelectivity(c);
          return 1.0 - s;
        } else if constexpr (std::is_same_v<T, Negation>) {
          return 1.0 - QualifiedSelectivity(n.child);
        } else if constexpr (std::is_same_v<T, ConstPred>) {
          return n.value ? 1.0 : 0.0;
        } else if constexpr (std::is_same_v<T, ColumnCmp>) {
          // Residual join predicate (possibly across tables): equality uses
          // the 1/max(ndv) join rule; inequalities the magic 1/3.
          if (n.op == CmpOp::kEq) {
            return JoinSelectivity(n.left_column, n.right_column);
          }
          if (n.op == CmpOp::kNe) {
            return 1.0 - JoinSelectivity(n.left_column, n.right_column);
          }
          return options_.estimator.default_range_selectivity;
        } else {
          // Leaf: dispatch to the owning table's estimator with the column
          // name unqualified.
          std::string table, column;
          std::string leaf_col;
          if constexpr (std::is_same_v<T, Comparison>) leaf_col = n.column;
          else if constexpr (std::is_same_v<T, Between>) leaf_col = n.column;
          else leaf_col = n.column;
          if (!SplitSlot(leaf_col, &table, &column)) {
            return options_.estimator.default_range_selectivity;
          }
          T leaf = n;
          leaf.column = column;
          auto unqualified =
              std::make_shared<Predicate>(Predicate{std::move(leaf)});
          SelectivityEstimator est = MakeEstimator(table);
          return Shift(est.EstimateWithPedigree(unqualified));
        }
      },
      pred->node);
}

double CardinalityModel::DistinctValues(const std::string& table,
                                        const std::string& column) const {
  const TableStats* ts = stats_->Find(table);
  if (ts == nullptr || !ts->HasColumn(column)) return 100.0;
  return std::max<double>(1.0,
                          static_cast<double>(ts->column(column).num_distinct));
}

double CardinalityModel::JoinSelectivity(const std::string& left_slot,
                                         const std::string& right_slot) const {
  return Shift(JoinEstimate(left_slot, right_slot));
}

SelEstimate CardinalityModel::JoinEstimate(const std::string& left_slot,
                                           const std::string& right_slot)
    const {
  auto ov = join_override_.find(JoinKey(left_slot, right_slot));
  if (ov != join_override_.end()) return {ov->second, 0, 0};
  std::string lt, lc, rt, rc;
  double ndv = 100.0;
  bool stats_backed = false;
  bool key_join = false;
  if (SplitSlot(left_slot, &lt, &lc) && SplitSlot(right_slot, &rt, &rc)) {
    ndv = std::max(DistinctValues(lt, lc), DistinctValues(rt, rc));
    auto unique_key = [&](const std::string& t, const std::string& c) {
      const TableStats* ts = stats_->Find(t);
      if (ts == nullptr || !ts->HasColumn(c) || ts->row_count() <= 0) {
        return false;
      }
      return static_cast<double>(ts->column(c).num_distinct) >=
             0.99 * static_cast<double>(ts->row_count());
    };
    auto has = [&](const std::string& t, const std::string& c) {
      const TableStats* ts = stats_->Find(t);
      return ts != nullptr && ts->HasColumn(c);
    };
    stats_backed = has(lt, lc) || has(rt, rc);
    key_join = unique_key(lt, lc) || unique_key(rt, rc);
  }
  // Pedigree: 1/max(ndv) assumes containment + uniform key frequencies.
  // When one side is a unique key (ndv ≈ rows) the containment estimate is
  // well-grounded — a PK–FK join carries no independence term; a general
  // (many-to-many) join carries one. Without distinct-count stats the
  // 100.0 default is a magic-number guess on top.
  return {1.0 / std::max(1.0, ndv), key_join && stats_backed ? 0 : 1,
          stats_backed ? 0 : 1};
}

}  // namespace rqp
