// E30 — Late-materialized columnar batches with scalar vs SIMD kernels.
// Five workloads — unfiltered scan→projection, a 10% scan-filter, an
// unfiltered join-probe, scan→join→agg, and a join on sparse build keys
// (the hashed probe kernel) — each run on the one execution path (column
// views plus VM programs) over the same 1M-row fact table, timed twice:
// with the scalar kernel twins ($RQP_SIMD=0) and with the
// runtime-dispatched SIMD kernels. The timed runs drain the pipeline
// without keeping result rows. A separate identity pass runs both kernel
// levels with rows kept, and the bench aborts on any checksum/row-count/
// cost divergence, so the speedup table can only be produced by
// byte-identical executions.
//
// Wall-clock numbers are host-dependent; `--deterministic` suppresses them
// and prints only the invariant columns (output rows, checksum, cost,
// transpose/materialization diagnostics), which is what the CI
// run-twice-diff smoke checks. Without the flag the bench also writes
// BENCH_columnar.json for EXPERIMENTS.md.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "expr/expr.h"
#include "workload/workloads.h"

namespace rqp {
namespace {

constexpr int64_t kFactRows = 1000000;
constexpr int64_t kDimRows = 1000;
constexpr int kReps = 3;

/// FNV-1a over the flattened output value stream — the bench-level
/// byte-identity witness.
uint64_t Checksum(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.output_rows);
  for (const auto& b : r.rows) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      const int64_t* row = b.row(i);
      for (size_t c = 0; c < b.num_cols(); ++c) mix(row[c]);
    }
  }
  return h;
}

QuerySpec ScanProjectQuery() {
  // Unfiltered scan with two derived columns: the expression VM runs
  // stride-free over the raw column vectors.
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.derived = {
      {"m3", MakeArith(MakeArith(MakeColExpr("fact.measure"), ArithOp::kMul,
                                 MakeConstExpr(3)),
                       ArithOp::kAdd, MakeColExpr("fact.fk0"))},
      {"delta", MakeArith(MakeColExpr("fact.measure"), ArithOp::kSub,
                          MakeColExpr("fact.fk0"))}};
  return q;
}

QuerySpec ScanFilterQuery() {
  // 10% selectivity BETWEEN: the SIMD compare+compact kernel's home turf.
  QuerySpec q;
  q.tables.push_back({"fact", MakeBetween("measure", 0, 999)});
  return q;
}

QuerySpec JoinProbeQuery() {
  // Unfiltered 1-dimension star join: every probe row survives. The fused
  // columnar probe gathers only the key column and carries the payload as
  // (batch, row-id) references.
  return workload::StarQuery(1, {kDimRows * 10});
}

QuerySpec SparseJoinQuery() {
  // fact.measure = dim0.attr, attr = 10·id: the build keys span ~10x the
  // build rows, so the probe runs the hashed kernel and its whole-batch hash
  // mix — the star joins above take the dense-key kernel, which skips it.
  QuerySpec q;
  q.tables = {{"fact", nullptr}, {"dim0", nullptr}};
  q.joins = {{"fact", "measure", "dim0", "attr"}};
  return q;
}

QuerySpec JoinAggQuery() {
  QuerySpec q = workload::StarQuery(1, {kDimRows * 10});
  q.group_by = {"dim0.band"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "sum_m"}};
  return q;
}

/// EngineOptions::simd values: 0 = scalar kernel twins, 1 = runtime
/// dispatch (AVX2 where the host has it).
constexpr int kSimdLevels[] = {0, 1};

Engine MakeEngine(Catalog* catalog, int simd) {
  EngineOptions options;
  options.num_threads = 1;  // single-threaded: isolate the per-row hot path
  options.simd = simd;
  return Engine(catalog, options);
}

struct IdentityResult {
  uint64_t checksum = 0;
  int64_t output_rows = 0;
  double cost = 0;
  int64_t transposes_elided = 0;
  int64_t rows_materialized = 0;
};

/// Runs both kernel levels once with rows kept and aborts unless they agree
/// on checksum, row count, and the deterministic cost clock.
IdentityResult CheckIdentity(Catalog* catalog, const char* name,
                             const QuerySpec& q) {
  IdentityResult ref;
  bool first = true;
  for (const int simd : kSimdLevels) {
    Engine engine = MakeEngine(catalog, simd);
    engine.AnalyzeAll();
    auto r = bench::ValueOrDie(engine.Run(q, /*keep_rows=*/true), name);
    const uint64_t checksum = Checksum(r);
    if (first) {
      ref.checksum = checksum;
      ref.output_rows = r.output_rows;
      ref.cost = r.cost;
      ref.transposes_elided = r.counters.transposes_elided;
      ref.rows_materialized = r.counters.rows_materialized;
      first = false;
    } else if (checksum != ref.checksum || r.output_rows != ref.output_rows ||
               std::abs(r.cost - ref.cost) >
                   1e-9 * (1.0 + std::abs(ref.cost))) {
      std::fprintf(stderr,
                   "FATAL: %s diverged at simd=%d (checksum %016" PRIx64
                   " vs %016" PRIx64 ", rows %lld vs %lld, cost %f vs %f)\n",
                   name, simd, checksum, ref.checksum,
                   static_cast<long long>(r.output_rows),
                   static_cast<long long>(ref.output_rows), r.cost, ref.cost);
      std::abort();
    }
  }
  return ref;
}

/// Best-of-kReps wall time draining the pipeline without keeping rows.
double TimeLevel(Catalog* catalog, int simd, const QuerySpec& q,
                 const char* what) {
  Engine engine = MakeEngine(catalog, simd);
  engine.AnalyzeAll();
  double best_ms = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    bench::ValueOrDie(engine.Run(q, /*keep_rows=*/false), what);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

struct JsonRow {
  const char* workload;
  double scalar_rows_per_sec;
  double simd_rows_per_sec;
  double speedup;  ///< SIMD kernels vs scalar kernel twins
  int64_t output_rows;
  int64_t transposes_elided;
  int64_t rows_materialized;
};

void RunWorkload(Catalog* catalog, const char* name, const QuerySpec& q,
                 bool deterministic, TablePrinter* t,
                 std::vector<JsonRow>* json) {
  const IdentityResult id = CheckIdentity(catalog, name, q);
  const double scalar_ms = TimeLevel(catalog, 0, q, name);
  const double simd_ms = TimeLevel(catalog, 1, q, name);
  const double scalar_rate = kFactRows / scalar_ms / 1e3;  // Mrows/s
  const double simd_rate = kFactRows / simd_ms / 1e3;
  const double speedup = simd_rate / scalar_rate;
  char checksum_hex[24];
  std::snprintf(checksum_hex, sizeof(checksum_hex), "%016" PRIx64,
                id.checksum);
  t->AddRow({name, deterministic ? "-" : TablePrinter::Num(scalar_rate, 1),
             deterministic ? "-" : TablePrinter::Num(simd_rate, 1),
             deterministic ? "-" : TablePrinter::Num(speedup, 2) + "x",
             TablePrinter::Int(id.output_rows),
             TablePrinter::Int(id.transposes_elided),
             TablePrinter::Int(id.rows_materialized), checksum_hex});
  json->push_back({name, scalar_rate * 1e6, simd_rate * 1e6, speedup,
                   id.output_rows, id.transposes_elided,
                   id.rows_materialized});
}

void WriteJson(const std::vector<JsonRow>& rows) {
  FILE* f = std::fopen("BENCH_columnar.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write BENCH_columnar.json\n");
    std::abort();
  }
  std::fprintf(f, "{\n  \"experiment\": \"E30\",\n  \"fact_rows\": %lld,\n"
               "  \"reps\": %d,\n  \"results\": [\n",
               static_cast<long long>(kFactRows), kReps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", "
                 "\"scalar_rows_per_sec\": %.0f, "
                 "\"simd_rows_per_sec\": %.0f, \"speedup\": %.2f, "
                 "\"output_rows\": %lld, \"transposes_elided\": %lld, "
                 "\"rows_materialized\": %lld}%s\n",
                 r.workload, r.scalar_rows_per_sec, r.simd_rows_per_sec,
                 r.speedup,
                 static_cast<long long>(r.output_rows),
                 static_cast<long long>(r.transposes_elided),
                 static_cast<long long>(r.rows_materialized),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_columnar.json\n");
}

void Run(bool deterministic) {
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = kFactRows;
  spec.dim_rows = kDimRows;
  // Wide fact (fk0..fk3, measure, corr, corr2), single-dimension probe: the
  // late-materialization payoff grows with the payload width the row path
  // must transpose and the columnar path merely references.
  spec.num_dimensions = 4;
  BuildStarSchema(&catalog, spec);

  bench::Banner("E30",
                "Late-materialized columnar batches: SIMD vs scalar kernels "
                "(byte-identical)",
                "Abadi et al. SIGMOD'06 late materialization; Boncz et al. "
                "CIDR'05 vectorized execution; Dagstuhl 10381 robust "
                "execution (identical answers under engine variation)");

  std::printf("fact=%lld rows, best of %d reps per kernel level; identity "
              "pass runs both\nlevels (checksum+cost abort on any "
              "divergence)\n\n",
              static_cast<long long>(kFactRows), kReps);
  TablePrinter t({"workload", "scalar Mrows/s", "simd Mrows/s", "speedup",
                  "output rows", "elided", "materialized", "checksum"});
  std::vector<JsonRow> json;
  RunWorkload(&catalog, "scan-project", ScanProjectQuery(), deterministic, &t,
              &json);
  RunWorkload(&catalog, "scan-filter", ScanFilterQuery(), deterministic, &t,
              &json);
  RunWorkload(&catalog, "join-probe", JoinProbeQuery(), deterministic, &t,
              &json);
  RunWorkload(&catalog, "join-agg", JoinAggQuery(), deterministic, &t, &json);
  RunWorkload(&catalog, "join-sparse", SparseJoinQuery(), deterministic, &t,
              &json);
  t.Print();
  std::printf("\nidentical checksums and cost at both kernel levels: SIMD "
              "moves only the\nwall clock, never a byte of the answer.\n");
  if (!deterministic) WriteJson(json);
}

}  // namespace
}  // namespace rqp

int main(int argc, char** argv) {
  const bool deterministic =
      argc > 1 && std::strcmp(argv[1], "--deterministic") == 0;
  rqp::Run(deterministic);
  return 0;
}
