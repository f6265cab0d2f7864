// Plan-cache concurrency: sessions on different threads look up, insert,
// and invalidate concurrently. Phase 1 proves no lost updates (every
// session finds its own freshly-inserted plans); phase 2 hammers a shared
// key set with eviction mixed in. A third test runs one POP query from
// several sessions at once and checks each run's CHECK node ids. Runs
// under the `parallel` ctest label — the TSan CI job is the real referee
// here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "optimizer/cost.h"
#include "storage/data_generator.h"

namespace rqp {
namespace {

struct PlanCacheConcurrencyFixture : ::testing::Test {
  Catalog catalog;
  std::unique_ptr<Engine> engine;

  void SetUp() override {
    StarSchemaSpec spec;
    spec.fact_rows = 20000;
    spec.dim_rows = 500;
    spec.num_dimensions = 1;
    BuildStarSchema(&catalog, spec);
    engine = std::make_unique<Engine>(&catalog);
    engine->AnalyzeAll();
  }

  // A distinct optimized plan (and cache key) per (thread, slot).
  QuerySpec SpecFor(int thread_id, int slot) const {
    QuerySpec q;
    q.tables.push_back(
        {"fact", MakeBetween("fk0", 0, 10 + thread_id * 50 + slot)});
    return q;
  }
};

TEST_F(PlanCacheConcurrencyFixture, NoLostUpdatesUnderConcurrentSessions) {
  constexpr int kThreads = 4;
  constexpr int kSlots = 8;
  constexpr int kIters = 500;

  const CardinalityModel model = engine->MakeCardinalityModel();
  const PlanCoster coster(&model, CostParams());

  // Pre-optimize every plan serially; the threads only exercise the cache.
  std::vector<std::vector<PlanNodePtr>> plans(kThreads);
  std::vector<std::vector<std::string>> keys(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < kSlots; ++s) {
      const QuerySpec q = SpecFor(t, s);
      auto plan = engine->Plan(q);
      ASSERT_TRUE(plan.ok());
      plans[t].push_back(std::move(plan.value()));
      keys[t].push_back(PlanCache::Key(q));
    }
  }

  PlanCache cache;
  std::vector<int> found(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int s = i % kSlots;
        cache.Put(keys[t][s], *plans[t][s]);
        // Own keys are private to this thread and capacity is ample, so
        // the immediate re-lookup must verify and hit: a miss here is a
        // lost update.
        auto hit = cache.LookupVerified(keys[t][s], coster);
        if (hit != nullptr && hit->est_cost == plans[t][s]->est_cost) {
          ++found[t];
        }
        // Also read a sibling thread's key; any outcome but a torn plan
        // is legal (it may not have been inserted yet).
        auto other =
            cache.LookupVerified(keys[(t + 1) % kThreads][s], coster);
        if (other != nullptr) {
          EXPECT_EQ(other->est_cost,
                    plans[(t + 1) % kThreads][s]->est_cost);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(found[t], kIters) << "thread " << t << " lost updates";
  }
  EXPECT_EQ(cache.size(), static_cast<size_t>(kThreads * kSlots));
  EXPECT_EQ(cache.verification_failures(), 0);
  EXPECT_GE(cache.hits(), static_cast<int64_t>(kThreads) * kIters);
}

TEST_F(PlanCacheConcurrencyFixture, SharedKeysWithEvictionStayCoherent) {
  constexpr int kThreads = 4;
  constexpr int kIters = 400;

  const CardinalityModel model = engine->MakeCardinalityModel();
  const PlanCoster coster(&model, CostParams());

  // One shared key set; a tiny capacity forces constant eviction churn.
  std::vector<PlanNodePtr> plans;
  std::vector<std::string> keys;
  for (int s = 0; s < 8; ++s) {
    const QuerySpec q = SpecFor(0, s);
    auto plan = engine->Plan(q);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan.value()));
    keys.push_back(PlanCache::Key(q));
  }
  PlanCache::Options options;
  options.max_entries = 3;
  PlanCache cache(options);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t s = static_cast<size_t>((i * 7 + t) % 8);
        switch ((i + t) % 3) {
          case 0:
            cache.Put(keys[s], *plans[s]);
            break;
          case 1: {
            // Every successful lookup must return a coherent clone.
            auto hit = cache.LookupVerified(keys[s], coster);
            if (hit != nullptr) {
              EXPECT_EQ(hit->est_cost, plans[s]->est_cost);
            }
            break;
          }
          default:
            cache.Clear();  // invalidation racing inserts and lookups
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), options.max_entries);
}

// POP plants CHECK nodes numbered per optimization: sessions running the
// same query on one engine concurrently must each number them as a serial
// run does, without sharing a counter.
TEST(PopConcurrencyTest, ConcurrentRunsReportTheSerialNodeCards) {
  Catalog catalog;
  StarSchemaSpec spec;
  spec.fact_rows = 20000;
  spec.dim_rows = 500;
  spec.num_dimensions = 2;
  BuildStarSchema(&catalog, spec);
  EngineOptions options;
  options.use_pop = true;
  Engine engine(&catalog, options);
  engine.AnalyzeAll();
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  for (int d = 0; d < 2; ++d) {
    const std::string dim = "dim" + std::to_string(d);
    q.tables.push_back({dim, MakeBetween("attr", 0, 500)});
    q.joins.push_back({"fact", "fk" + std::to_string(d), dim, "id"});
  }
  using Cards = std::vector<std::tuple<int, double, int64_t>>;
  auto run = [&] {
    Cards cards;
    auto result = engine.Run(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return cards;
    for (const auto& nc : result->node_cards) {
      cards.emplace_back(nc.node_id, nc.estimated, nc.actual);
    }
    return cards;
  };
  const Cards serial = run();
  ASSERT_TRUE(std::any_of(serial.begin(), serial.end(), [](const auto& nc) {
    return std::get<0>(nc) >= (1 << 20);
  })) << "no CHECK node";

  constexpr int kThreads = 4;
  constexpr int kRuns = 10;
  std::vector<std::vector<Cards>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRuns; ++i) got[t].push_back(run());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (const Cards& cards : got[t]) {
      EXPECT_EQ(cards, serial) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace rqp
