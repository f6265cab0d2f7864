#include "stats/table_stats.h"

#include <algorithm>
#include <cassert>

namespace rqp {

TableStats TableStats::Analyze(const Table& table,
                               const AnalyzeOptions& options) {
  TableStats stats;
  const int64_t visible_rows = static_cast<int64_t>(
      static_cast<double>(table.num_rows()) * options.stale_fraction);
  stats.row_count_ = visible_rows;
  Rng rng(options.seed);

  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    const auto& col = table.column(c);
    std::vector<int64_t> sample;
    sample.reserve(static_cast<size_t>(
        static_cast<double>(visible_rows) * options.sample_rate) + 1);
    for (int64_t r = 0; r < visible_rows; ++r) {
      if (options.sample_rate >= 1.0 || rng.Bernoulli(options.sample_rate)) {
        sample.push_back(col[static_cast<size_t>(r)]);
      }
    }
    ColumnStats cs;
    if (!sample.empty()) {
      // One sort serves the bounds, the histogram and the distinct count.
      std::sort(sample.begin(), sample.end());
      cs.min = sample.front();
      cs.max = sample.back();
      cs.histogram = Histogram::BuildSorted(sample, options.num_buckets);
      // Distinct-count estimate: exact on the sample, scaled (capped) when
      // sampling. A deliberately simple estimator — its inaccuracy under
      // low sample rates is itself one of the robustness hazards studied.
      size_t distinct = 1;
      for (size_t i = 1; i < sample.size(); ++i) {
        distinct += sample[i] != sample[i - 1];
      }
      double d = static_cast<double>(distinct);
      if (options.sample_rate < 1.0 &&
          d > 0.9 * static_cast<double>(sample.size())) {
        // Nearly-unique in the sample: extrapolate to the full table.
        d = d / options.sample_rate;
      }
      cs.num_distinct = std::min<int64_t>(
          visible_rows, std::max<int64_t>(1, static_cast<int64_t>(d)));
    }
    stats.columns_[table.schema().column(c).name] = std::move(cs);
  }
  return stats;
}

const ColumnStats& TableStats::column(const std::string& name) const {
  auto it = columns_.find(name);
  assert(it != columns_.end());
  return it->second;
}

ColumnStats* TableStats::mutable_column(const std::string& name) {
  auto it = columns_.find(name);
  return it == columns_.end() ? nullptr : &it->second;
}

void TableStats::SetColumn(const std::string& name, ColumnStats stats) {
  columns_[name] = std::move(stats);
}

void StatsCatalog::AnalyzeAll(const Catalog& catalog,
                              const AnalyzeOptions& options) {
  for (const auto& name : catalog.TableNames()) {
    const Table* t = catalog.GetTable(name).value();
    Put(name, TableStats::Analyze(*t, options));
  }
}

}  // namespace rqp
