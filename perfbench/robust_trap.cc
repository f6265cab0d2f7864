// robust-trap: the scenario of the paper's Figures 1-3. One client, closed
// loop, DOP 1, over a 3-dimension star (400k fact rows, 20k-row
// dimensions, indexed keys). 30% of the queries carry the redundant-
// predicate trap that wrecks the optimizer's fact-side estimate. POP,
// robust plan selection and guardrails are on, LEO feedback is off, and
// the memory grant is small enough that joins and aggregates spill. Answers
// are checked against a plain engine with unbounded memory.

#include "storage/data_generator.h"
#include "workload/workloads.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int64_t kFactRows = 400000;
constexpr int64_t kDimRows = 20000;
constexpr int kDims = 3;
constexpr int kPoolSize = 400;
constexpr double kTrapFraction = 0.30;
constexpr double kJoinProbability = 0.7;
constexpr int64_t kMemoryPages = 1024;
constexpr int kWarmUp = 10;
constexpr int64_t kMinRequests = 1000;

struct World {
  rqp::Catalog catalog;
  std::unique_ptr<rqp::Engine> engine;
};

rqp::EngineOptions RobustOptions(const std::string& spill_dir) {
  rqp::EngineOptions o;
  o.num_threads = 1;
  o.use_result_cache = 0;
  o.use_pop = true;
  o.collect_feedback = false;
  o.optimizer.robust_selection.enabled = 1;
  o.guardrails.enabled = true;
  o.guardrails.fuse_factor = 64;
  o.memory_pages = kMemoryPages;
  o.spill_dir = spill_dir;
  return o;
}

rqp::EngineOptions PlainOptions(const std::string& spill_dir) {
  rqp::EngineOptions o;
  o.num_threads = 1;
  o.use_result_cache = 0;
  o.optimizer.robust_selection.enabled = 0;
  o.spill_dir = spill_dir;
  return o;
}

/// Dimension patterns (bit d set: dimension d joined) for `n` plain
/// queries, each pattern allocated in proportion to its probability when
/// every dimension is joined with probability kJoinProbability, in shuffled
/// order.
std::vector<int> PatternMix(rqp::Rng* rng, int n) {
  const int patterns = 1 << kDims;
  std::vector<double> share(patterns);
  std::vector<int> count(patterns);
  int assigned = 0;
  for (int m = 0; m < patterns; ++m) {
    double p = 1;
    for (int d = 0; d < kDims; ++d) {
      p *= (m >> d) & 1 ? kJoinProbability : 1 - kJoinProbability;
    }
    share[m] = p * n;
    count[m] = static_cast<int>(share[m]);
    assigned += count[m];
  }
  while (assigned < n) {  // largest remainders first
    int best = 0;
    for (int m = 1; m < patterns; ++m) {
      if (share[m] - count[m] > share[best] - count[best]) best = m;
    }
    ++count[best];
    ++assigned;
  }
  std::vector<int> out;
  for (int m = 0; m < patterns; ++m) out.insert(out.end(), count[m], m);
  for (int i = n - 1; i > 0; --i) std::swap(out[i], out[rng->Uniform(0, i)]);
  return out;
}

/// The query family of workload::PopWorkload, over its parameter ranges:
/// trap queries (TrapStarQuery: a redundant fk0/corr/corr2 range,
/// dimension 0 unfiltered, the others filtered) and plain random star
/// queries (StarQuery: each dimension joined with probability 0.7 at a
/// selectivity in [0.02, 0.6]). The parameters are stratified and the
/// plain queries' dimension patterns allocated by probability, so every
/// seed draws different queries with the same cost mix; traps sit at
/// fixed positions, exactly 30% of the pool. Each query aggregates its
/// star join by fact.fk1, so the answer is checkable and the aggregate
/// spills under the small grant.
std::vector<PoolQuery> MakePool(uint64_t seed) {
  rqp::Rng rng(seed * 0x9e3779b97f4a7c15ull + 23);
  const int traps = static_cast<int>(kPoolSize * kTrapFraction);
  const int plain = kPoolSize - traps;
  const auto fk0_hi = Stratified(&rng, traps, kDimRows / 20, kDimRows / 10);
  std::vector<std::vector<int64_t>> trap_attr, plain_attr;
  for (int d = 0; d < kDims; ++d) {
    trap_attr.push_back(Stratified(&rng, traps, 2, kDimRows));
    plain_attr.push_back(
        Stratified(&rng, plain, kDimRows * 2 / 100, kDimRows * 60 / 100));
  }
  const std::vector<int> patterns = PatternMix(&rng, plain);

  std::vector<PoolQuery> pool;
  int t = 0, p = 0;
  for (int i = 0; i < kPoolSize; ++i) {
    // Query i is a trap when the running trap quota steps up at i.
    const bool trap = static_cast<int>((i + 1) * kTrapFraction) >
                      static_cast<int>(i * kTrapFraction);
    std::vector<int64_t> attr_hi(kDims, -1);
    PoolQuery q;
    if (trap) {
      attr_hi[0] = kDimRows * 10;
      for (int d = 1; d < kDims; ++d) attr_hi[d] = trap_attr[d][t] * 10;
      q.spec = rqp::workload::TrapStarQuery(kDims, fk0_hi[t], attr_hi);
      ++t;
    } else {
      for (int d = 0; d < kDims; ++d) {
        if ((patterns[p] >> d) & 1) attr_hi[d] = plain_attr[d][p] * 10;
      }
      if (patterns[p] == 0) attr_hi[0] = kDimRows * 10 / 4;  // one join
      q.spec = rqp::workload::StarQuery(kDims, attr_hi);
      ++p;
    }
    q.spec.group_by = {"fact.fk1"};
    q.spec.aggregates = {{rqp::AggFn::kCount, "", "cnt"},
                         {rqp::AggFn::kSum, "fact.measure", "sum_m"}};
    pool.push_back(std::move(q));
  }
  return pool;
}

}  // namespace

void RunRobustTrap(const Config& cfg, Recorder* rec) {
  const std::vector<PoolQuery> pool = MakePool(cfg.seed);
  auto world = TimedSetup<World>(
      rec,
      [&] {
        auto w = std::make_unique<World>();
        rqp::StarSchemaSpec spec;
        spec.fact_rows = kFactRows;
        spec.dim_rows = kDimRows;
        spec.num_dimensions = kDims;
        spec.seed = cfg.seed;
        rqp::BuildStarSchema(&w->catalog, spec);
        for (int d = 0; d < kDims; ++d) {
          w->catalog.BuildIndex("dim" + std::to_string(d), "id").value();
        }
        w->catalog.BuildIndex("fact", "fk0").value();
        return w;
      },
      [&](World* w) {
        w->engine = std::make_unique<rqp::Engine>(&w->catalog,
                                                  RobustOptions(cfg.spill_dir));
        w->engine->AnalyzeAll();
      },
      [&](World* w) { WarmUp(w->engine.get(), pool, kWarmUp); });

  const std::vector<Answer> answers =
      RunClosedLoop(world->engine.get(), pool, cfg, kMinRequests, rec);
  rqp::Engine reference(&world->catalog, PlainOptions(cfg.spill_dir));
  *reference.stats() = *world->engine->stats();
  CheckAnswers(&reference, pool, answers, rec);
}

}  // namespace perfbench
