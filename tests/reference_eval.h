// Independent reference evaluator — the test oracle for engine answers.
//
// ReferenceEval computes a QuerySpec by brute force straight off the
// catalog: EvalOnTable filters, hash equi-joins in spec order, derived
// columns through the CompiledExpr tree walk, and std::map group-by. It
// shares nothing with the optimizer, BuildExecutable, or the operators, so
// an engine answer that matches it is right by construction rather than
// merely consistent with another engine mode.
//
// CheckAgainstReference runs a query through the engine at DOP 1 and 4 and
// requires the oracle's answer: the same status when evaluation fails, else
// the same sorted row multiset.
#ifndef RQP_TESTS_REFERENCE_EVAL_H_
#define RQP_TESTS_REFERENCE_EVAL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "expr/expr.h"
#include "expr/predicate.h"
#include "storage/data_generator.h"

namespace rqp::ref {

using Rows = std::vector<std::vector<int64_t>>;

/// A materialized relation: qualified slot names plus row-major values.
struct Relation {
  std::vector<std::string> slots;
  Rows rows;

  int Find(const std::string& slot) const {
    const auto it = std::find(slots.begin(), slots.end(), slot);
    return it == slots.end() ? -1 : static_cast<int>(it - slots.begin());
  }
};

/// Rows of `ref.table` passing its (parameter-bound) predicate, with every
/// column qualified as "table.column".
inline StatusOr<Relation> ScanTable(const Catalog& catalog, const TableRef& ref,
                                    const std::vector<int64_t>& params) {
  auto table_or = catalog.GetTable(ref.table);
  if (!table_or.ok()) return table_or.status();
  const Table& table = *table_or.value();
  PredicatePtr pred =
      ref.predicate == nullptr ? nullptr : BindParams(ref.predicate, params);
  if (pred != nullptr && HasParams(pred)) {
    return Status::FailedPrecondition(
        "cannot compile predicate with unbound parameter");
  }
  Relation out;
  const size_t ncols = table.schema().num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    out.slots.push_back(ref.table + "." + table.schema().column(c).name);
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (pred != nullptr && !EvalOnTable(pred, table, r)) continue;
    std::vector<int64_t> row(ncols);
    for (size_t c = 0; c < ncols; ++c) row[c] = table.Value(c, r);
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// Joins `right` onto `left` on every spec edge linking the two (hash on
/// the first edge, the others checked per match); no edge is a cross
/// product. Output rows are left ⧺ right.
inline Relation JoinOnto(const Relation& left, const Relation& right,
                         const std::vector<JoinEdge>& joins) {
  std::vector<std::pair<int, int>> keys;  // (left slot, right slot)
  for (const JoinEdge& e : joins) {
    const int ll = left.Find(e.LeftSlot()), lr = left.Find(e.RightSlot());
    const int rl = right.Find(e.LeftSlot()), rr = right.Find(e.RightSlot());
    if (ll >= 0 && rr >= 0) keys.emplace_back(ll, rr);
    if (lr >= 0 && rl >= 0) keys.emplace_back(lr, rl);
  }
  Relation out;
  out.slots = left.slots;
  out.slots.insert(out.slots.end(), right.slots.begin(), right.slots.end());
  std::unordered_multimap<int64_t, size_t> index;
  for (size_t i = 0; i < right.rows.size(); ++i) {
    index.emplace(keys.empty() ? 0 : right.rows[i][keys[0].second], i);
  }
  for (const auto& l : left.rows) {
    const auto [lo, hi] =
        index.equal_range(keys.empty() ? 0 : l[keys[0].first]);
    for (auto it = lo; it != hi; ++it) {
      const auto& r = right.rows[it->second];
      bool match = true;
      for (const auto& [lk, rk] : keys) match = match && l[lk] == r[rk];
      if (!match) continue;
      std::vector<int64_t> row = l;
      row.insert(row.end(), r.begin(), r.end());
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

/// Evaluates `spec` over `catalog`. Fails with the engine's fixed statuses:
/// an unbound parameter, or ExprDivisionByZero when any joined row divides
/// by zero in a derived column.
inline StatusOr<Relation> ReferenceEval(const Catalog& catalog,
                                        const QuerySpec& spec) {
  Relation rel;
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    auto scanned = ScanTable(catalog, spec.tables[t], spec.params);
    if (!scanned.ok()) return scanned.status();
    rel = t == 0 ? std::move(scanned).value()
                 : JoinOnto(rel, scanned.value(), spec.joins);
  }
  for (const DerivedColumn& d : spec.derived) {
    auto expr = CompiledExpr::Compile(d.expr, rel.slots);
    if (!expr.ok()) return expr.status();
    for (auto& row : rel.rows) {
      int64_t v = 0;
      RQP_RETURN_IF_ERROR(expr.value().Eval(row.data(), &v));
      row.push_back(v);
    }
    rel.slots.push_back(d.name);
  }
  if (spec.group_by.empty() && spec.aggregates.empty()) return rel;

  std::vector<int> group_idx, agg_idx;
  for (const auto& g : spec.group_by) group_idx.push_back(rel.Find(g));
  for (const auto& a : spec.aggregates) {
    agg_idx.push_back(a.fn == AggFn::kCount ? -1 : rel.Find(a.slot));
  }
  const auto init = [&spec] {
    std::vector<int64_t> accs;
    for (const auto& a : spec.aggregates) {
      accs.push_back(a.fn == AggFn::kMin   ? std::numeric_limits<int64_t>::max()
                     : a.fn == AggFn::kMax ? std::numeric_limits<int64_t>::min()
                                           : 0);
    }
    return accs;
  };
  std::map<std::vector<int64_t>, std::vector<int64_t>> groups;
  for (const auto& row : rel.rows) {
    std::vector<int64_t> key;
    for (const int g : group_idx) key.push_back(row[static_cast<size_t>(g)]);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second = init();
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      int64_t& acc = it->second[a];
      const int64_t v =
          agg_idx[a] < 0 ? 0 : row[static_cast<size_t>(agg_idx[a])];
      switch (spec.aggregates[a].fn) {
        case AggFn::kCount: ++acc; break;
        case AggFn::kSum: acc += v; break;
        case AggFn::kMin: acc = std::min(acc, v); break;
        case AggFn::kMax: acc = std::max(acc, v); break;
      }
    }
  }
  // A global aggregate over no rows still yields its one initial row.
  if (spec.group_by.empty() && groups.empty()) {
    groups.emplace(std::vector<int64_t>{}, init());
  }
  Relation out;
  out.slots = spec.group_by;
  for (const auto& a : spec.aggregates) out.slots.push_back(a.output_name);
  for (const auto& [key, accs] : groups) {
    std::vector<int64_t> row = key;
    row.insert(row.end(), accs.begin(), accs.end());
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// The engine's result rows, sorted.
inline Rows SortedRows(const QueryResult& r) {
  Rows rows;
  for (const auto& b : r.rows) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      rows.emplace_back(b.row(i), b.row(i) + b.num_cols());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The oracle's rows with columns reordered to `slots`, sorted.
inline Rows SortedRows(const Relation& rel,
                       const std::vector<std::string>& slots) {
  std::vector<size_t> from;
  for (const auto& s : slots) {
    const int i = rel.Find(s);
    EXPECT_GE(i, 0) << "engine slot " << s << " unknown to the oracle";
    from.push_back(i < 0 ? 0 : static_cast<size_t>(i));
  }
  Rows rows;
  for (const auto& row : rel.rows) {
    std::vector<int64_t> out;
    for (const size_t f : from) out.push_back(row[f]);
    rows.push_back(std::move(out));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `q` through a fresh engine over `catalog` at DOP 1 and 4 and
/// requires the oracle's answer, with the oracle's columns permuted to the
/// engine's QueryResult::output_slots. With the result cache on, a second
/// Run must replay the same rows from the cache.
inline void CheckAgainstReference(Catalog* catalog, const QuerySpec& q,
                                  EngineOptions options = EngineOptions()) {
  const auto want = ReferenceEval(*catalog, q);
  for (const int dop : {1, 4}) {
    SCOPED_TRACE("dop " + std::to_string(dop));
    options.num_threads = dop;
    Engine engine(catalog, options);
    engine.AnalyzeAll();
    auto got = engine.Run(q, /*keep_rows=*/true);
    if (!want.ok()) {
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const Rows expected = SortedRows(want.value(), got->output_slots);
    EXPECT_EQ(got->output_rows, static_cast<int64_t>(expected.size()));
    EXPECT_EQ(SortedRows(*got), expected);
    if (engine.result_cache_enabled()) {
      auto replay = engine.Run(q, /*keep_rows=*/true);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_TRUE(replay->result_cache_hit);
      EXPECT_EQ(replay->output_slots, got->output_slots);
      EXPECT_EQ(SortedRows(*replay), expected);
    }
  }
}

/// Shared engine-level fixture: a 20k-row, 3-dimension star schema plus a
/// per-process spill directory namer.
struct StarFixture : ::testing::Test {
  Catalog catalog;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 20000;
    spec.dim_rows = 500;
    spec.num_dimensions = 3;
    BuildStarSchema(&catalog, spec);
  }

  static std::string SpillDir(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("rqp-reference-test-" + std::to_string(getpid()) + "-" + tag))
        .string();
  }
};

}  // namespace rqp::ref

#endif  // RQP_TESTS_REFERENCE_EVAL_H_
