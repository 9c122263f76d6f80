#include "common/run_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/io_env.h"

namespace ocdd {
namespace {

TEST(StopReasonTest, NamesAreStable) {
  // The JSON schema and CLI depend on these exact strings.
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kCheckBudget), "check_budget");
  EXPECT_STREQ(StopReasonName(StopReason::kMemoryBudget), "memory_budget");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kFaultInjected), "fault_injected");
  EXPECT_STREQ(StopReasonName(StopReason::kLevelCap), "level_cap");
}

TEST(RunContextTest, FreshContextDoesNotStop) {
  RunContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_FALSE(ctx.stop_requested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
}

TEST(RunContextTest, CheckBudgetLatches) {
  RunContext ctx;
  ctx.set_check_budget(3);
  EXPECT_FALSE(ctx.CountCheck(1));
  EXPECT_FALSE(ctx.CountCheck(1));
  EXPECT_TRUE(ctx.CountCheck(1));  // 3rd check spends the budget
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCheckBudget);
  EXPECT_EQ(ctx.checks(), 3u);
  EXPECT_TRUE(ctx.ShouldStop());
}

TEST(RunContextTest, BatchedCountCheck) {
  RunContext ctx;
  ctx.set_check_budget(10);
  EXPECT_FALSE(ctx.CountCheck(9));
  EXPECT_TRUE(ctx.CountCheck(5));  // overshoot still stops
  EXPECT_EQ(ctx.checks(), 14u);
}

TEST(RunContextTest, ZeroBudgetIsUnlimited) {
  RunContext ctx;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(ctx.CountCheck(1));
}

TEST(RunContextTest, DeadlineStops) {
  RunContext ctx;
  ctx.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
}

TEST(RunContextTest, TimeLimitZeroDisarms) {
  RunContext ctx;
  ctx.set_time_limit_seconds(-1.0);
  EXPECT_FALSE(ctx.ShouldStop());
}

TEST(RunContextTest, MemoryChargeAndRelease) {
  RunContext ctx;
  ctx.set_memory_budget(100);
  EXPECT_TRUE(ctx.ChargeMemory(60));
  EXPECT_EQ(ctx.memory_used(), 60u);
  EXPECT_FALSE(ctx.ChargeMemory(50));  // would hit 110 > 100
  EXPECT_EQ(ctx.memory_used(), 60u);   // failed charge is undone
  EXPECT_EQ(ctx.stop_reason(), StopReason::kMemoryBudget);
  ctx.ReleaseMemory(60);
  EXPECT_EQ(ctx.memory_used(), 0u);
  EXPECT_EQ(ctx.peak_memory(), 60u);  // peak survives the release
}

TEST(RunContextTest, CancelIsObservedAsCancelled) {
  RunContext ctx;
  ctx.Cancel();
  EXPECT_TRUE(ctx.stop_requested());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

TEST(RunContextTest, FirstReasonWins) {
  RunContext ctx;
  ctx.RequestStop(StopReason::kDeadline);
  ctx.Cancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
  ctx.RequestStop(StopReason::kMemoryBudget);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
}

TEST(RunContextTest, ResetClearsStateButKeepsBudgets) {
  RunContext ctx;
  ctx.set_check_budget(2);
  ctx.Cancel();
  EXPECT_TRUE(ctx.CountCheck(2));
  ctx.Reset();
  EXPECT_FALSE(ctx.stop_requested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
  EXPECT_EQ(ctx.checks(), 0u);
  // The budget survived Reset: spending it again stops again.
  EXPECT_TRUE(ctx.CountCheck(2));
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCheckBudget);
}

TEST(RunContextTest, RequestStopReturnsWhetherItLatched) {
  RunContext ctx;
  // kNone is a no-op and never counts as latching.
  EXPECT_FALSE(ctx.RequestStop(StopReason::kNone));
  EXPECT_TRUE(ctx.RequestStop(StopReason::kDeadline));
  // Every later reason loses, including a repeat of the winner.
  EXPECT_FALSE(ctx.RequestStop(StopReason::kMemoryBudget));
  EXPECT_FALSE(ctx.RequestStop(StopReason::kDeadline));
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadline);
}

TEST(RunContextTest, ConcurrentRequestStopLatchesExactlyOne) {
  // The precedence contract under contention: with N racing reasons, exactly
  // one call wins and the surfaced reason is that winner's.
  for (int round = 0; round < 50; ++round) {
    RunContext ctx;
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    const StopReason reasons[] = {StopReason::kDeadline,
                                  StopReason::kCheckBudget,
                                  StopReason::kMemoryBudget,
                                  StopReason::kCancelled};
    std::atomic<StopReason> winning_reason{StopReason::kNone};
    for (StopReason r : reasons) {
      threads.emplace_back([&ctx, &winners, &winning_reason, r] {
        if (ctx.RequestStop(r)) {
          winners.fetch_add(1);
          winning_reason.store(r);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(ctx.stop_reason(), winning_reason.load());
  }
}

TEST(RunContextTest, CheckpointCadenceDefaultsToAlwaysDue) {
  RunContext ctx;
  // Both dimensions 0: checkpoint at every opportunity.
  EXPECT_TRUE(ctx.CheckpointDue());
  ctx.MarkCheckpointed();
  EXPECT_TRUE(ctx.CheckpointDue());
}

TEST(RunContextTest, CheckpointCadenceByChecks) {
  RunContext ctx;
  ctx.set_checkpoint_cadence(/*every_checks=*/10, /*every_seconds=*/0.0);
  EXPECT_FALSE(ctx.CheckpointDue());
  (void)ctx.CountCheck(9);
  EXPECT_FALSE(ctx.CheckpointDue());
  (void)ctx.CountCheck(1);
  EXPECT_TRUE(ctx.CheckpointDue());
  // MarkCheckpointed re-bases the counter.
  ctx.MarkCheckpointed();
  EXPECT_FALSE(ctx.CheckpointDue());
  (void)ctx.CountCheck(10);
  EXPECT_TRUE(ctx.CheckpointDue());
}

TEST(RunContextTest, CheckpointCadenceByTime) {
  RunContext ctx;
  ctx.set_checkpoint_cadence(/*every_checks=*/0, /*every_seconds=*/0.005);
  EXPECT_FALSE(ctx.CheckpointDue());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(ctx.CheckpointDue());
  ctx.MarkCheckpointed();
  EXPECT_FALSE(ctx.CheckpointDue());
}

TEST(RunContextTest, CancelFromAnotherThread) {
  RunContext ctx;
  std::thread t([&ctx] { ctx.Cancel(); });
  t.join();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
}

/// Run-kind faults are armed on the process-global registry; each test
/// clears it so armings never leak into the next.
class RunContextFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { IoEnv::Get().ClearFaults(); }
};

TEST_F(RunContextFaultTest, NothingArmedIsANoOp) {
  RunContext ctx;
  ctx.AtInjectionPoint("anything");
  EXPECT_FALSE(ctx.stop_requested());
}

TEST_F(RunContextFaultTest, RunKindsMapToStopReasons) {
  ASSERT_TRUE(IoEnv::Get().ArmFaultString("c=cancel,a=alloc,t=throw").ok());
  RunContext cancelled;
  cancelled.AtInjectionPoint("c");
  EXPECT_EQ(cancelled.stop_reason(), StopReason::kFaultInjected);
  RunContext alloc;
  alloc.AtInjectionPoint("a");
  EXPECT_EQ(alloc.stop_reason(), StopReason::kMemoryBudget);
  RunContext thrown;
  EXPECT_THROW(thrown.AtInjectionPoint("t"), FaultInjectedError);
}

TEST_F(RunContextFaultTest, OneShotFiresOnNthHitAndPointsAreCounted) {
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("b.check=throw#2").ok());
  RunContext ctx;
  EXPECT_NO_THROW(ctx.AtInjectionPoint("b.check"));  // hit 1
  EXPECT_NO_THROW(ctx.AtInjectionPoint("a.level"));
  EXPECT_THROW(ctx.AtInjectionPoint("b.check"), FaultInjectedError);
  EXPECT_NO_THROW(ctx.AtInjectionPoint("b.check"));  // one-shot: spent
  EXPECT_EQ(env.SeenSites(),
            (std::vector<std::string>{"a.level", "b.check"}));
  EXPECT_EQ(env.StatsFor("b.check").ops, 3u);
  EXPECT_EQ(env.StatsFor("b.check").faults_fired, 1u);
}

}  // namespace
}  // namespace ocdd
