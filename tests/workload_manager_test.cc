#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "server/simulator.h"

namespace rqp {
namespace {

/// A single-tenant job: no deadline, no memory estimate.
SimJob Job(std::string name, double arrival, double cost, int slots,
           int priority) {
  SimJob j;
  j.name = std::move(name);
  j.arrival = arrival;
  j.cost = cost;
  j.requested_slots = slots;
  j.priority = priority;
  return j;
}

TEST(WorkloadManagerTest, SingleJobRunsAtFullSpeed) {
  SimOptions opts;
  opts.capacity_slots = 4;
  auto out = SimulateSchedule({Job("q1", 0.0, 100.0, 4, 0)}, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].start, 0.0);
  EXPECT_NEAR(out[0].finish, 25.0, 1e-6);  // 100 work / 4 slots
}

TEST(WorkloadManagerTest, ProcessorSharingSlowsConcurrentJobs) {
  SimOptions opts;
  opts.capacity_slots = 1;
  opts.max_mpl = 2;
  // Two identical jobs arriving together share the slot: each sees 2x time.
  auto out = SimulateSchedule(
      {Job("a", 0.0, 10.0, 1, 0), Job("b", 0.0, 10.0, 1, 0)}, opts);
  EXPECT_NEAR(out[0].finish, 20.0, 1e-6);
  EXPECT_NEAR(out[1].finish, 20.0, 1e-6);
}

TEST(WorkloadManagerTest, MplQueuesExcessJobs) {
  SimOptions opts;
  opts.capacity_slots = 1;
  opts.max_mpl = 1;
  auto out = SimulateSchedule(
      {Job("a", 0.0, 10.0, 1, 0), Job("b", 0.0, 10.0, 1, 0)}, opts);
  // Serial execution: a finishes at 10, b at 20 — b waited.
  EXPECT_NEAR(out[0].finish, 10.0, 1e-6);
  EXPECT_NEAR(out[1].start, 10.0, 1e-6);
  EXPECT_NEAR(out[1].finish, 20.0, 1e-6);
}

TEST(WorkloadManagerTest, PrioritySchedulingJumpsQueue) {
  SimOptions opts;
  opts.capacity_slots = 1;
  opts.max_mpl = 1;
  opts.priority_scheduling = true;
  // Long job occupies the slot; low arrives before high but high runs first.
  auto out = SimulateSchedule({Job("long", 0.0, 10.0, 1, 0),
                               Job("low", 1.0, 5.0, 1, 0),
                               Job("high", 2.0, 5.0, 1, 9)},
                              opts);
  EXPECT_NEAR(out[2].start, 10.0, 1e-6);  // high admitted first
  EXPECT_NEAR(out[1].start, 15.0, 1e-6);  // low waits for high
}

TEST(WorkloadManagerTest, FifoWithoutPriorities) {
  SimOptions opts;
  opts.capacity_slots = 1;
  opts.max_mpl = 1;
  auto out = SimulateSchedule({Job("long", 0.0, 10.0, 1, 0),
                               Job("low", 1.0, 5.0, 1, 0),
                               Job("high", 2.0, 5.0, 1, 9)},
                              opts);
  EXPECT_NEAR(out[1].start, 10.0, 1e-6);  // FIFO: low first
  EXPECT_NEAR(out[2].start, 15.0, 1e-6);
}

TEST(WorkloadManagerTest, GreedyParallelJobStealsSlots) {
  // FPT scenario: Qi runs with 2 slots; Qm arrives requesting 6 of 4 slots
  // and squeezes Qi's share down.
  SimOptions opts;
  opts.capacity_slots = 4;
  opts.max_mpl = 4;
  auto alone = SimulateSchedule({Job("qi", 0.0, 40.0, 2, 0)}, opts);
  EXPECT_NEAR(alone[0].finish, 20.0, 1e-6);  // 40 / 2 slots

  auto contended = SimulateSchedule(
      {Job("qi", 0.0, 40.0, 2, 0), Job("qm", 0.0, 120.0, 6, 0)}, opts);
  // Shares: qi 4*(2/8)=1, qm 4*(6/8)=3 until one finishes.
  EXPECT_GT(contended[0].finish, alone[0].finish * 1.5);
}

TEST(WorkloadManagerTest, PriorityWeightedSharingProtectsShortJobs) {
  // A short high-priority transaction runs alongside a long scan.
  SimOptions fair;
  fair.capacity_slots = 4;
  auto unweighted = SimulateSchedule(
      {Job("txn", 0.0, 4.0, 1, 5), Job("scan", 0.0, 400.0, 4, 0)}, fair);
  SimOptions weighted = fair;
  weighted.priority_weighted_sharing = true;
  auto protected_run = SimulateSchedule(
      {Job("txn", 0.0, 4.0, 1, 5), Job("scan", 0.0, 400.0, 4, 0)}, weighted);
  // Weighted: txn weight 6 vs scan 4 -> txn gets its full requested slot.
  EXPECT_LT(protected_run[0].response_time(),
            unweighted[0].response_time() * 0.85);
  // The scan barely notices (it keeps nearly all remaining capacity).
  EXPECT_LT(protected_run[1].response_time(),
            unweighted[1].response_time() * 1.4);
}

TEST(WorkloadManagerTest, LateArrivalsIdleGap) {
  SimOptions opts;
  opts.capacity_slots = 1;
  auto out = SimulateSchedule({Job("a", 100.0, 10.0, 1, 0)}, opts);
  EXPECT_NEAR(out[0].start, 100.0, 1e-6);
  EXPECT_NEAR(out[0].finish, 110.0, 1e-6);
}

TEST(WorkloadManagerTest, EmptyWorkload) {
  EXPECT_TRUE(SimulateSchedule({}, SimOptions()).empty());
}

}  // namespace
}  // namespace rqp
