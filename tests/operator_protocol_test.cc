// The operator protocol, kind by kind: Operator's non-virtual Open and Next
// keep every operator's row count, actual cardinality and cardinality fuse,
// so each of the 17 operator kinds must report, on every Open/drain/Close
// pass, exactly the rows that pass emitted, and a zero-row fuse on its node
// must stop the drain at that node.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/filter_ops.h"
#include "exec/join_ops.h"
#include "exec/parallel_ops.h"
#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "exec/thread_pool.h"
#include "shard/exchange.h"
#include "storage/data_generator.h"

namespace rqp {
namespace {

constexpr int kNodeId = 7;

/// One operator kind: a factory for a fresh tree whose root is the kind,
/// over the fixture's tables. `channel` is the exchange kinds' sink.
struct Kind {
  std::string name;
  std::function<OperatorPtr(ExchangeChannel* channel)> make;
  bool emits = true;  ///< false for the pure sink (BroadcastExchangeOp)
  /// Broker capacity; 0 over-commits every grant (degrades GatherOp).
  int64_t memory_pages = 1 << 20;
  bool parallel = false;  ///< runs a parallel phase (an undegraded GatherOp)
};

class OperatorProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // t(k, v): k = 0..2999, v = k % 100; u(id): 0..99, so t.v = u.id
    // matches every t row exactly once.
    t_ = std::make_unique<Table>(
        "t", Schema({{"k", LogicalType::kInt64, 0, nullptr},
                     {"v", LogicalType::kInt64, 0, nullptr}}));
    std::vector<int64_t> v;
    for (int64_t k = 0; k < 3000; ++k) v.push_back(k % 100);
    t_->SetColumnData(0, gen::Sequential(3000));
    t_->SetColumnData(1, v);
    u_ = std::make_unique<Table>(
        "u", Schema({{"id", LogicalType::kInt64, 0, nullptr}}));
    u_->SetColumnData(0, gen::Sequential(100));
    t_index_ = std::make_unique<SortedIndex>("t.k", 0);
    t_index_->Build(*t_);
    u_index_ = std::make_unique<SortedIndex>("u.id", 0);
    u_index_->Build(*u_);
    replay_ = std::make_shared<std::vector<RowBatch>>();
    TableScanOp scan(t_.get());
    ExecContext ctx;
    ASSERT_TRUE(DrainOperator(&scan, &ctx, replay_.get()).ok());
  }

  OperatorPtr ScanT(PredicatePtr filter = nullptr) const {
    return std::make_unique<TableScanOp>(t_.get(), std::move(filter));
  }
  OperatorPtr ScanU() const { return std::make_unique<TableScanOp>(u_.get()); }

  /// scan(t) ⋈ scan(u) on t.v = u.id under a GatherOp; `serial_id` is the
  /// serial root's plan node id, which the builder makes the GatherOp's.
  OperatorPtr Gather(int serial_id) {
    auto scan = std::make_unique<TableScanOp>(t_.get());
    const TableScanOp* s = scan.get();
    auto join =
        std::make_unique<HashJoinOp>(std::move(scan), ScanU(), "t.v", "u.id");
    join->set_plan_node_id(serial_id);
    HashJoinOp* j = join.get();
    ParallelOptions par;
    par.num_threads = 2;
    par.morsel_rows = 512;
    par.pool = &pool_;
    return std::make_unique<GatherOp>(std::move(join),
                                      std::vector<HashJoinOp*>{j}, s,
                                      std::nullopt, par);
  }

  std::vector<Kind> Kinds() {
    return {
        {"TableScan", [this](ExchangeChannel*) {
           return ScanT(MakeCmp("k", CmpOp::kLt, 2500));
         }},
        {"IndexScan", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<IndexScanOp>(t_.get(), t_index_.get(), 100,
                                                1999);
         }},
        {"VectorSource", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<VectorSourceOp>(
               replay_, std::vector<std::string>{"t.k", "t.v"});
         }},
        {"Filter", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<FilterOp>(ScanT(),
                                             MakeCmp("t.k", CmpOp::kGe, 100));
         }},
        {"Map", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<MapOp>(
               ScanT(), std::vector<DerivedColumn>{
                            {"w", MakeArith(MakeColExpr("t.k"), ArithOp::kAdd,
                                            MakeConstExpr(1))}});
         }},
        {"AdaptiveFilter", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<AdaptiveFilterOp>(
               ScanT(),
               std::vector<PredicatePtr>{MakeCmp("t.k", CmpOp::kLt, 2000),
                                         MakeCmp("t.v", CmpOp::kNe, 3)},
               AdaptiveFilterOp::Options{});
         }},
        {"HashJoin", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<HashJoinOp>(ScanT(), ScanU(), "t.v",
                                               "u.id");
         }},
        {"MergeJoin", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<MergeJoinOp>(
               std::make_unique<SortOp>(ScanT(), "t.v"),
               std::make_unique<SortOp>(ScanU(), "u.id"), "t.v", "u.id");
         }},
        {"NestedLoopsJoin", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<NestedLoopsJoinOp>(
               ScanT(MakeCmp("k", CmpOp::kLt, 300)), ScanU(),
               MakeColCmp("t.v", CmpOp::kEq, "u.id"));
         }},
        {"IndexNLJoin", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<IndexNLJoinOp>(ScanT(), u_.get(),
                                                  u_index_.get(), "t.v");
         }},
        {"GJoin", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<GJoinOp>(ScanT(), ScanU(), "t.v", "u.id");
         }},
        {"Sort", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<SortOp>(ScanT(), "t.v");
         }},
        {"HashAgg", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<HashAggOp>(
               ScanT(), std::vector<std::string>{"t.v"},
               std::vector<AggSpec>{{AggFn::kCount, "", "cnt"}});
         }},
        {"Check", [this](ExchangeChannel*) -> OperatorPtr {
           return std::make_unique<CheckOp>(
               ScanT(), 3000, 0, std::numeric_limits<int64_t>::max());
         }},
        {"Gather", [this](ExchangeChannel*) { return Gather(-1); },
         /*emits=*/true, /*memory_pages=*/1 << 20, /*parallel=*/true},
        // Degraded: every grant over-commits, so GatherOp drains its serial
        // tree, whose root has the GatherOp's node id and counts each batch
        // first; Next's second count of it is a no-op.
        {"Gather(degraded)",
         [this](ExchangeChannel*) { return Gather(kNodeId); },
         /*emits=*/true, /*memory_pages=*/0, /*parallel=*/false},
        {"ShuffleExchange", [this](ExchangeChannel* channel) -> OperatorPtr {
           // Even keys stay home on shard 0; odd ones are staged for shard 1.
           return std::make_unique<ShuffleExchangeOp>(
               ScanT(), 0, 0,
               [](int64_t key) { return static_cast<int>(key % 2); }, channel);
         }},
        {"BroadcastExchange", [this](ExchangeChannel* channel) -> OperatorPtr {
           return std::make_unique<BroadcastExchangeOp>(ScanU(), channel);
         },
         /*emits=*/false},
    };
  }

  std::unique_ptr<Table> t_, u_;
  std::unique_ptr<SortedIndex> t_index_, u_index_;
  std::shared_ptr<std::vector<RowBatch>> replay_;
  ThreadPool pool_{2};
};

TEST_F(OperatorProtocolTest, EveryKindCountsEachPassFromZero) {
  for (const Kind& kind : Kinds()) {
    SCOPED_TRACE(kind.name);
    MemoryBroker broker(kind.memory_pages);
    ExecContext ctx(&broker);
    ExchangeBuffers buffers(2, 2);
    ExchangeChannel channel(&buffers, &ctx, /*queue_pages=*/1 << 20);
    OperatorPtr op = kind.make(&channel);
    op->set_plan_node_id(kNodeId);
    std::vector<int64_t> emitted;
    // Pass 1 drains rows through Next; pass 2 is a count-only drain, which
    // takes a scan root's views through NextColumnar.
    for (const bool keep_rows : {true, false}) {
      // Each pass must publish its own actual, not leave the last one.
      ctx.actual_cardinalities().clear();
      std::vector<RowBatch> rows;
      auto drained = DrainOperator(op.get(), &ctx, keep_rows ? &rows : nullptr);
      ASSERT_TRUE(drained.ok()) << drained.status().ToString();
      emitted.push_back(drained.value());
      EXPECT_EQ(op->rows_produced(), drained.value());
      ASSERT_EQ(ctx.actual_cardinalities().count(kNodeId), 1u);
      EXPECT_EQ(ctx.actual_cardinalities().at(kNodeId), drained.value());
    }
    EXPECT_EQ(emitted[1], emitted[0]);
    EXPECT_EQ(ctx.counters().parallel_phases > 0, kind.parallel);
    if (kind.emits) {
      EXPECT_GT(emitted[0], 0);
    } else {
      EXPECT_EQ(emitted[0], 0);
    }
  }
}

TEST_F(OperatorProtocolTest, EveryEmittingKindTripsItsOwnFuse) {
  for (const Kind& kind : Kinds()) {
    if (!kind.emits) continue;
    SCOPED_TRACE(kind.name);
    MemoryBroker broker(kind.memory_pages);
    ExecContext ctx(&broker);
    ExchangeBuffers buffers(2, 2);
    ExchangeChannel channel(&buffers, &ctx, /*queue_pages=*/1 << 20);
    OperatorPtr op = kind.make(&channel);
    op->set_plan_node_id(kNodeId);
    ctx.ArmFuse(kNodeId, /*estimated_rows=*/1, /*limit_rows=*/0);
    auto drained = DrainOperator(op.get(), &ctx, nullptr);
    ASSERT_FALSE(drained.ok());
    EXPECT_EQ(drained.status().code(), StatusCode::kResourceExhausted);
    ASSERT_TRUE(ctx.has_trip());
    EXPECT_EQ(ctx.trip()->kind,
              ExecContext::GuardrailTrip::Kind::kCardinalityFuse);
    EXPECT_EQ(ctx.trip()->plan_node_id, kNodeId);
    EXPECT_GT(ctx.trip()->actual_rows, 0);
  }
}

}  // namespace
}  // namespace rqp
