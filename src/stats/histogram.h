#ifndef RQP_STATS_HISTOGRAM_H_
#define RQP_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace rqp {

/// Equi-depth histogram over int64 values with per-bucket distinct counts.
/// This is the optimizer's primary statistic; estimation errors in the
/// experiments arise from bucket granularity, sampling, staleness, and the
/// independence assumption — exactly the causes the paper catalogs.
class Histogram {
 public:
  struct Bucket {
    int64_t lo = 0;        ///< inclusive lower bound
    int64_t hi = 0;        ///< inclusive upper bound
    int64_t count = 0;     ///< rows in bucket
    int64_t distinct = 0;  ///< distinct values in bucket
  };

  Histogram() = default;

  /// Builds an equi-depth histogram with (up to) `num_buckets` buckets.
  /// `values` need not be sorted; a sorted copy is made.
  static Histogram Build(const std::vector<int64_t>& values, int num_buckets);
  /// Build over values already in ascending order (no copy, no sort).
  static Histogram BuildSorted(const std::vector<int64_t>& sorted,
                               int num_buckets);

  bool empty() const { return total_count_ == 0; }
  int64_t total_count() const { return total_count_; }
  int64_t min_value() const { return min_; }
  int64_t max_value() const { return max_; }
  const std::vector<Bucket>& buckets() const { return buckets_; }

  /// Estimated fraction of rows with value in [lo, hi] (inclusive).
  double EstimateRangeFraction(int64_t lo, int64_t hi) const;
  /// Estimated fraction of rows with value == v.
  double EstimateEqFraction(int64_t v) const;
  /// Estimated number of distinct values over the whole column.
  int64_t EstimateDistinct() const;

 private:
  std::vector<Bucket> buckets_;
  int64_t total_count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Self-tuning histogram (Aboulnaga & Chaudhuri, SIGMOD'99): starts from a
/// uniform assumption over [lo, hi] and refines bucket frequencies from
/// query feedback (observed actual selectivities), never scanning the data.
class SelfTuningHistogram {
 public:
  /// `total_rows` is the (believed) table cardinality; buckets start with
  /// equal width and equal frequency over [lo, hi].
  SelfTuningHistogram(int64_t lo, int64_t hi, int64_t total_rows,
                      int num_buckets);

  /// Estimated fraction of rows in [lo, hi].
  double EstimateRangeFraction(int64_t lo, int64_t hi) const;

  /// Feedback: a query observed `actual_rows` rows in [lo, hi].
  /// Distributes the error over the overlapping buckets proportionally to
  /// their current frequencies (damped by `learning_rate`).
  void Update(int64_t lo, int64_t hi, int64_t actual_rows,
              double learning_rate = 0.5);

  /// Periodic restructuring: splits the highest-frequency buckets and
  /// merges adjacent buckets with near-equal frequencies, keeping the
  /// bucket count constant.
  void Restructure();

  int num_buckets() const { return static_cast<int>(freq_.size()); }
  int64_t total_rows() const;

 private:
  struct Range { int64_t lo, hi; };
  /// Fraction of bucket b overlapped by [lo, hi], in [0, 1].
  double OverlapFraction(int b, int64_t lo, int64_t hi) const;

  std::vector<int64_t> bounds_;  ///< bucket b covers [bounds_[b], bounds_[b+1])
  std::vector<double> freq_;     ///< rows per bucket
};

}  // namespace rqp

#endif  // RQP_STATS_HISTOGRAM_H_
