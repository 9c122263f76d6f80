#include "common/run_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/io_env.h"
#include "common/thread_pool.h"

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

TEST(RunContextTest, ConcurrentCountsSumExactly) {
  RunContext ctx;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < 100'000; ++i) EXPECT_FALSE(ctx.CountCheck(1));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ctx.checks(), 800'000u);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
}

TEST(RunContextTest, ResetZeroesEveryThreadsTally) {
  RunContext ctx;
  auto count_on_threads = [&ctx](std::uint64_t each) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&ctx, each] { (void)ctx.CountCheck(each); });
    }
    for (auto& t : threads) t.join();
  };
  count_on_threads(5);
  (void)ctx.CountCheck(1);
  ASSERT_EQ(ctx.checks(), 21u);
  ctx.Reset();
  EXPECT_EQ(ctx.checks(), 0u);
  count_on_threads(3);
  EXPECT_EQ(ctx.checks(), 12u);
}

TEST(RunContextTest, CountCheckPollsOnlyUnderABudget) {
  RunContext unbudgeted;
  unbudgeted.set_deadline(std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1));
  EXPECT_FALSE(unbudgeted.CountCheck(1));  // counts, polls nothing
  EXPECT_EQ(unbudgeted.stop_reason(), StopReason::kNone);
  EXPECT_TRUE(unbudgeted.ShouldStop());
  EXPECT_EQ(unbudgeted.stop_reason(), StopReason::kDeadline);

  RunContext budgeted;
  budgeted.set_check_budget(3);
  EXPECT_FALSE(budgeted.CountCheck(2));
  EXPECT_TRUE(budgeted.CountCheck(1));  // the check that spends the budget
  EXPECT_EQ(budgeted.stop_reason(), StopReason::kCheckBudget);
  EXPECT_EQ(budgeted.checks(), 3u);
}

TEST(RunContextTest, BudgetCrossedByPoolWorkersLatchesOnce) {
  // Workers poll before each candidate and count its 1 or 3 checks after
  // it, as the lattice walk does. The count that reaches the budget latches
  // it; each other worker may finish the candidate it had started.
  constexpr std::uint64_t kBudget = 1'000;
  constexpr std::uint64_t kLargestCount = 3;
  constexpr std::size_t kWorkers = 4;
  for (int round = 0; round < 20; ++round) {
    RunContext ctx;
    ctx.set_check_budget(kBudget);
    ThreadPool pool(kWorkers);
    std::atomic<std::uint64_t> latched_by_count{0};
    ASSERT_TRUE(pool.ParallelFor(10 * kBudget, [&](std::size_t i) {
                      if (ctx.ShouldStop()) return;
                      if (ctx.CountCheck(i % 2 == 0 ? 1 : kLargestCount)) {
                        latched_by_count.fetch_add(1);
                      }
                    })
                    .ok());
    EXPECT_EQ(ctx.stop_reason(), StopReason::kCheckBudget);
    EXPECT_FALSE(ctx.RequestStop(StopReason::kCheckBudget));
    EXPECT_GE(ctx.checks(), kBudget);
    // The latching count ends below kBudget + kLargestCount; each other
    // worker adds at most one more count.
    EXPECT_LT(ctx.checks(), kBudget + kLargestCount * kWorkers);
    EXPECT_GE(latched_by_count.load(), 1u);
    EXPECT_LE(latched_by_count.load(), kWorkers);
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

TEST(DefaultMemoryBudgetTest, HalfOfTheSmallerOfCgroupLimitAndRam) {
  const std::string meminfo =
      "MemTotal:       16479424 kB\nMemFree:        14565728 kB\n";
  const std::size_t ram = std::size_t{16479424} * 1024;
  // cgroup v2 without a limit: half the RAM.
  EXPECT_EQ(DefaultMemoryBudget("max\n", meminfo), ram / 2);
  // A cgroup limit below the RAM wins.
  EXPECT_EQ(DefaultMemoryBudget("4294967296\n", meminfo),
            std::size_t{2147483648});
  // cgroup v1's "no limit" is a huge byte count: the RAM wins.
  EXPECT_EQ(DefaultMemoryBudget("9223372036854771712\n", meminfo), ram / 2);
  // Either text alone still bounds the run.
  EXPECT_EQ(DefaultMemoryBudget("", meminfo), ram / 2);
  EXPECT_EQ(DefaultMemoryBudget("1000\n", ""), 500u);
  // Neither parses: no budget.
  EXPECT_EQ(DefaultMemoryBudget("max", "MemFree: 12 kB\n"), 0u);
  EXPECT_EQ(DefaultMemoryBudget("garbage", "MemTotal: lots\n"), 0u);
  // A number past size_t saturates instead of wrapping.
  EXPECT_EQ(DefaultMemoryBudget("99999999999999999999999", ""),
            std::numeric_limits<std::size_t>::max() / 2);
}

TEST(DefaultMemoryBudgetTest, LimitFilesFollowTheProcessCgroup) {
  using Files = std::vector<std::string>;
  // cgroup v2 under a systemd slice: own cgroup, then each ancestor.
  EXPECT_EQ(CgroupMemoryLimitFiles("0::/system.slice/ocdd.service\n"),
            (Files{"/sys/fs/cgroup/system.slice/ocdd.service/memory.max",
                   "/sys/fs/cgroup/system.slice/memory.max",
                   "/sys/fs/cgroup/memory.max",
                   "/sys/fs/cgroup/memory/memory.limit_in_bytes"}));
  // cgroup v1 (hybrid): the memory controller's line, also when it shares
  // its hierarchy with other controllers.
  const std::string v1 =
      "9:name=systemd:/\n"
      "4:memory:/process_api/90d5\n"
      "3:cpuset:/jobs\n"
      "0::/\n";
  EXPECT_EQ(CgroupMemoryLimitFiles(v1),
            (Files{"/sys/fs/cgroup/memory.max",
                   "/sys/fs/cgroup/memory/process_api/90d5/"
                   "memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/process_api/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/memory.limit_in_bytes"}));
  EXPECT_EQ(CgroupMemoryLimitFiles("5:cpu,memory:/docker/ab/\n"),
            (Files{"/sys/fs/cgroup/memory.max",
                   "/sys/fs/cgroup/memory/docker/ab/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/docker/memory.limit_in_bytes",
                   "/sys/fs/cgroup/memory/memory.limit_in_bytes"}));
  // A namespaced container, or no readable text: the mount roots only.
  const Files roots{"/sys/fs/cgroup/memory.max",
                    "/sys/fs/cgroup/memory/memory.limit_in_bytes"};
  EXPECT_EQ(CgroupMemoryLimitFiles("0::/\n"), roots);
  EXPECT_EQ(CgroupMemoryLimitFiles(""), roots);
  EXPECT_EQ(CgroupMemoryLimitFiles("garbage\n3:memoryx:/a\n"), roots);
}

}  // namespace
}  // namespace ocdd
