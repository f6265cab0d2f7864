// olap-star: one client, closed loop, DOP 2, unbounded memory, caches off,
// over a 4-dimension star with a 1M-row fact table and no indexes, so
// every query scans its base tables in full. Nearly all wall time is spent
// in exec, expr and the parallel executor; the optimizer and caches are
// bypassed. Answers are checked against a DOP-1 engine.

#include "expr/expr.h"
#include "storage/data_generator.h"
#include "workload/workloads.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kFactRows = 1000000;
constexpr int64_t kDimRows = 1000;
constexpr int kDims = 4;
constexpr int kCycles = 10;  // the pool holds kCycles * 10 queries
constexpr int kWarmUp = 10;
constexpr int64_t kMinRequests = 1000;

struct World {
  rqp::Catalog catalog;
  std::unique_ptr<rqp::Engine> engine;
};

rqp::EngineOptions Options(int num_threads) {
  rqp::EngineOptions o;
  o.num_threads = num_threads;
  o.use_result_cache = 0;
  return o;
}

int64_t BaseRows(const rqp::QuerySpec& q) {
  int64_t rows = 0;
  for (const auto& t : q.tables) {
    rows += t.table == "fact" ? kFactRows : kDimRows;
  }
  return rows;
}

/// The seeded mix. Every cycle of ten requests runs two scan-filters, a
/// scan with derived columns, a RandomStarQuery count over two dimensions,
/// five 1-dimension join-aggregates and a 3-dimension star group-by. These
/// shares put the median inside the join-aggregate band and the 99th
/// percentile inside the star band, each a dense part of the cost
/// distribution rather than a gap between query types. Parameters are
/// stratified (see Stratified), so every seed draws different queries with
/// the same cost mix.
std::vector<PoolQuery> MakePool(uint64_t seed) {
  rqp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const int n = kCycles;
  const auto filter_lo = Stratified(&rng, 2 * n, 0, 9900);
  const auto filter_fk1 = Stratified(&rng, 2 * n, 500, kDimRows - 1);
  const auto project_fk = Stratified(&rng, n, 0, kDimRows - 10);
  const auto join_attr = Stratified(&rng, 5 * n, 600, 800);
  std::vector<std::vector<int64_t>> star_attr;
  for (int d = 1; d < kDims; ++d) {
    star_attr.push_back(Stratified(&rng, n, 600, 700));
  }

  std::vector<PoolQuery> pool;
  for (int i = 0; i < n; ++i) {
    for (int k = 2 * i; k < 2 * i + 2; ++k) {
      rqp::QuerySpec filter;
      filter.tables.push_back(
          {"fact",
           rqp::MakeAnd({rqp::MakeBetween("measure", filter_lo[k],
                                          filter_lo[k] + 99),
                         rqp::MakeBetween("fk1", 0, filter_fk1[k])})});
      pool.push_back({filter});
    }
    rqp::QuerySpec project;
    project.tables.push_back(
        {"fact", rqp::MakeBetween("fk2", project_fk[i], project_fk[i] + 9)});
    project.derived = {
        {"m3",
         rqp::MakeArith(rqp::MakeArith(rqp::MakeColExpr("fact.measure"),
                                       rqp::ArithOp::kMul,
                                       rqp::MakeConstExpr(3)),
                        rqp::ArithOp::kAdd, rqp::MakeColExpr("fact.fk0"))},
        {"delta", rqp::MakeArith(rqp::MakeColExpr("fact.measure"),
                                 rqp::ArithOp::kSub,
                                 rqp::MakeColExpr("fact.fk3"))}};
    pool.push_back({project});

    // Redrawn until it joins exactly two dimensions.
    rqp::QuerySpec count;
    do {
      count = rqp::workload::RandomStarQuery(&rng, kDims, kDimRows, 0.7, 0.05,
                                             0.8);
    } while (count.tables.size() != 3);
    count.aggregates = {{rqp::AggFn::kCount, "", "cnt"}};
    pool.push_back({count});

    for (int k = 5 * i; k < 5 * i + 5; ++k) {
      rqp::QuerySpec join_agg =
          rqp::workload::StarQuery(1, {join_attr[k] * 10});
      join_agg.group_by = {"dim0.band"};
      join_agg.aggregates = {{rqp::AggFn::kCount, "", "cnt"},
                             {rqp::AggFn::kSum, "fact.measure", "sum_m"}};
      pool.push_back({join_agg});
    }
    std::vector<int64_t> attr_hi = {-1};
    for (const auto& attr : star_attr) attr_hi.push_back(attr[i] * 10);
    rqp::QuerySpec star = rqp::workload::StarQuery(kDims, attr_hi);
    star.group_by = {"dim1.band", "dim2.band"};
    star.aggregates = {{rqp::AggFn::kCount, "", "cnt"},
                       {rqp::AggFn::kSum, "fact.measure", "sum_m"},
                       {rqp::AggFn::kMax, "dim3.attr", "max_a"}};
    pool.push_back({star});
  }
  for (PoolQuery& q : pool) q.base_rows = BaseRows(q.spec);
  return pool;
}

}  // namespace

void RunOlapStar(const Config& cfg, Recorder* rec) {
  const std::vector<PoolQuery> pool = MakePool(cfg.seed);
  auto world = TimedSetup<World>(
      rec,
      [&] {
        auto w = std::make_unique<World>();
        rqp::StarSchemaSpec spec;
        spec.fact_rows = kFactRows;
        spec.dim_rows = kDimRows;
        spec.num_dimensions = kDims;
        spec.add_correlated_columns = false;
        spec.seed = cfg.seed;
        rqp::BuildStarSchema(&w->catalog, spec);
        return w;
      },
      [](World* w) {
        w->engine = std::make_unique<rqp::Engine>(&w->catalog, Options(2));
        w->engine->AnalyzeAll();
      },
      [&](World* w) { WarmUp(w->engine.get(), pool, kWarmUp); });

  const std::vector<Answer> answers =
      RunClosedLoop(world->engine.get(), pool, cfg, kMinRequests, rec);
  rqp::Engine reference(&world->catalog, Options(1));
  *reference.stats() = *world->engine->stats();
  CheckAnswers(&reference, pool, answers, rec);
}

}  // namespace perfbench
