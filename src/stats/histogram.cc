#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rqp {

Histogram Histogram::Build(const std::vector<int64_t>& values,
                           int num_buckets) {
  if (values.empty() || num_buckets <= 0) return Histogram();
  std::vector<int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return BuildSorted(sorted, num_buckets);
}

Histogram Histogram::BuildSorted(const std::vector<int64_t>& sorted,
                                 int num_buckets) {
  Histogram h;
  if (sorted.empty() || num_buckets <= 0) return h;
  h.total_count_ = static_cast<int64_t>(sorted.size());
  h.min_ = sorted.front();
  h.max_ = sorted.back();

  const int64_t n = h.total_count_;
  const int64_t target = std::max<int64_t>(1, n / num_buckets);
  size_t i = 0;
  while (i < sorted.size()) {
    Bucket b;
    b.lo = sorted[i];
    size_t end = std::min(sorted.size(), i + static_cast<size_t>(target));
    // Extend the bucket so a single value never straddles buckets.
    while (end < sorted.size() && sorted[end] == sorted[end - 1]) ++end;
    b.hi = sorted[end - 1];
    b.count = static_cast<int64_t>(end - i);
    int64_t distinct = 1;
    for (size_t j = i + 1; j < end; ++j) {
      if (sorted[j] != sorted[j - 1]) ++distinct;
    }
    b.distinct = distinct;
    h.buckets_.push_back(b);
    i = end;
  }
  return h;
}

double Histogram::EstimateRangeFraction(int64_t lo, int64_t hi) const {
  if (empty() || lo > hi) return 0.0;
  if (hi < min_ || lo > max_) return 0.0;
  double rows = 0.0;
  for (const Bucket& b : buckets_) {
    if (b.hi < lo || b.lo > hi) continue;
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    // Uniform-spread assumption within the bucket (inclusive widths).
    const double width = static_cast<double>(b.hi - b.lo) + 1.0;
    const double overlap = static_cast<double>(ohi - olo) + 1.0;
    rows += static_cast<double>(b.count) * (overlap / width);
  }
  return std::min(1.0, rows / static_cast<double>(total_count_));
}

double Histogram::EstimateEqFraction(int64_t v) const {
  if (empty() || v < min_ || v > max_) return 0.0;
  for (const Bucket& b : buckets_) {
    if (v < b.lo || v > b.hi) continue;
    // Uniform-frequency assumption across the bucket's distinct values.
    const double rows =
        static_cast<double>(b.count) / static_cast<double>(b.distinct);
    return rows / static_cast<double>(total_count_);
  }
  return 0.0;
}

int64_t Histogram::EstimateDistinct() const {
  int64_t d = 0;
  for (const Bucket& b : buckets_) d += b.distinct;
  return d;
}

SelfTuningHistogram::SelfTuningHistogram(int64_t lo, int64_t hi,
                                         int64_t total_rows,
                                         int num_buckets) {
  assert(num_buckets > 0 && hi >= lo);
  bounds_.resize(static_cast<size_t>(num_buckets) + 1);
  const double width =
      (static_cast<double>(hi) - static_cast<double>(lo) + 1.0) /
      num_buckets;
  for (int b = 0; b <= num_buckets; ++b) {
    bounds_[static_cast<size_t>(b)] =
        lo + static_cast<int64_t>(std::llround(b * width));
  }
  bounds_.back() = hi + 1;  // exclusive upper end
  freq_.assign(static_cast<size_t>(num_buckets),
               static_cast<double>(total_rows) / num_buckets);
}

int64_t SelfTuningHistogram::total_rows() const {
  double t = 0;
  for (double f : freq_) t += f;
  return static_cast<int64_t>(std::llround(t));
}

double SelfTuningHistogram::OverlapFraction(int b, int64_t lo,
                                            int64_t hi) const {
  const int64_t blo = bounds_[static_cast<size_t>(b)];
  const int64_t bhi = bounds_[static_cast<size_t>(b) + 1] - 1;  // inclusive
  if (bhi < blo) return 0.0;
  const int64_t olo = std::max(lo, blo);
  const int64_t ohi = std::min(hi, bhi);
  if (olo > ohi) return 0.0;
  return (static_cast<double>(ohi - olo) + 1.0) /
         (static_cast<double>(bhi - blo) + 1.0);
}

double SelfTuningHistogram::EstimateRangeFraction(int64_t lo,
                                                  int64_t hi) const {
  if (lo > hi) return 0.0;
  double rows = 0.0, total = 0.0;
  for (size_t b = 0; b < freq_.size(); ++b) {
    total += freq_[b];
    rows += freq_[b] * OverlapFraction(static_cast<int>(b), lo, hi);
  }
  if (total <= 0.0) return 0.0;
  return std::min(1.0, rows / total);
}

void SelfTuningHistogram::Update(int64_t lo, int64_t hi, int64_t actual_rows,
                                 double learning_rate) {
  // Current estimate over the feedback range.
  double est_rows = 0.0;
  std::vector<double> contrib(freq_.size(), 0.0);
  for (size_t b = 0; b < freq_.size(); ++b) {
    contrib[b] = freq_[b] * OverlapFraction(static_cast<int>(b), lo, hi);
    est_rows += contrib[b];
  }
  const double error =
      learning_rate * (static_cast<double>(actual_rows) - est_rows);
  if (est_rows > 0.0) {
    // Distribute proportionally to each bucket's current contribution.
    for (size_t b = 0; b < freq_.size(); ++b) {
      if (contrib[b] <= 0.0) continue;
      const double delta = error * (contrib[b] / est_rows);
      freq_[b] = std::max(0.0, freq_[b] + delta);
    }
  } else {
    // No overlap mass: spread the actual rows evenly over the overlapping
    // buckets so the histogram can escape a zero estimate.
    int overlapping = 0;
    for (size_t b = 0; b < freq_.size(); ++b) {
      if (OverlapFraction(static_cast<int>(b), lo, hi) > 0.0) ++overlapping;
    }
    if (overlapping == 0) return;
    for (size_t b = 0; b < freq_.size(); ++b) {
      if (OverlapFraction(static_cast<int>(b), lo, hi) > 0.0) {
        freq_[b] += error / overlapping;
      }
    }
  }
}

void SelfTuningHistogram::Restructure() {
  if (freq_.size() < 4) return;
  // Merge the pair of adjacent buckets with the most similar frequencies,
  // then split the highest-frequency bucket in half. Repeating this on a
  // schedule migrates resolution toward high-frequency regions.
  size_t merge_at = 0;
  double best_diff = -1.0;
  for (size_t b = 0; b + 1 < freq_.size(); ++b) {
    const double diff = std::abs(freq_[b] - freq_[b + 1]);
    if (best_diff < 0.0 || diff < best_diff) {
      best_diff = diff;
      merge_at = b;
    }
  }
  size_t split_at = 0;
  for (size_t b = 0; b < freq_.size(); ++b) {
    if (freq_[b] > freq_[split_at]) split_at = b;
  }
  // Splitting the bucket we are merging into would be a no-op; skip then.
  if (split_at == merge_at || split_at == merge_at + 1) return;
  const int64_t split_lo = bounds_[split_at];
  const int64_t split_hi = bounds_[split_at + 1];
  if (split_hi - split_lo < 2) return;  // cannot split a unit bucket

  // Merge.
  freq_[merge_at] += freq_[merge_at + 1];
  freq_.erase(freq_.begin() + static_cast<long>(merge_at) + 1);
  bounds_.erase(bounds_.begin() + static_cast<long>(merge_at) + 1);

  // Recompute split index (erase may have shifted it).
  size_t s = split_at > merge_at ? split_at - 1 : split_at;
  const int64_t mid = bounds_[s] + (bounds_[s + 1] - bounds_[s]) / 2;
  bounds_.insert(bounds_.begin() + static_cast<long>(s) + 1, mid);
  const double half = freq_[s] / 2.0;
  freq_[s] = half;
  freq_.insert(freq_.begin() + static_cast<long>(s) + 1, half);
}

}  // namespace rqp
