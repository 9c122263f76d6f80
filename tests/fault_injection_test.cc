// Fault-injection matrix over every discovery algorithm: each named
// injection point is struck with every run kind of the fault registry
// (cancel, simulated alloc failure, forced exception) at several hit
// positions, and the partial result must be a sound, well-formed prefix of
// the complete run — never a crash, never an escaped exception, never a
// dependency the complete run would not emit.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "algo/fastod/fastod.h"
#include "algo/fastod/fastod_bid.h"
#include "algo/fd/tane.h"
#include "algo/order/order_discover.h"
#include "algo/ucc/ucc.h"
#include "common/io_env.h"
#include "common/run_context.h"
#include "core/ocd_discover.h"
#include "od/brute_force.h"
#include "test_util.h"

namespace ocdd {
namespace {

using rel::CodedRelation;

/// Every algorithm exercises the same 12×4 relation, built so that each
/// lattice has real structure: A is a key (every OD/FD from A holds), B is a
/// coarsening of A (A ~ B is a valid OCD with ties), C anti-correlates with
/// A (swaps → pruned subtrees), and B/D are non-unique with ties (UCC joins
/// past level 1).
CodedRelation TestTable() {
  return testutil::CodedIntTable({
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},  // A: key, ascending
      {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5},     // B: A/2 — OCD with A
      {6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1},     // C: descending, swaps A
      {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2},     // D: small cyclic domain
  });
}

/// One run of some algorithm under a caller-provided context.
struct Outcome {
  bool completed = false;
  StopReason reason = StopReason::kNone;
  std::vector<std::string> deps;  ///< rendered dependencies, sorted
};

using RunFn = std::function<Outcome(RunContext*)>;

/// Arms `spec` on the process-global registry for one run.
Outcome RunArmed(const std::string& spec, const RunFn& run) {
  IoEnv& env = IoEnv::Get();
  env.ClearFaults();
  EXPECT_TRUE(env.ArmFaultString(spec).ok()) << spec;
  RunContext ctx;
  Outcome out = run(&ctx);  // must not throw or crash
  env.ClearFaults();
  return out;
}

/// Dry-runs `run` to learn the injection surface and the complete output,
/// then strikes every (point, run kind, position) combination through the
/// registry and checks the partial-result contract.
void CheckInjectionMatrix(const std::string& algorithm, const RunFn& run,
                          std::size_t min_points) {
  // `*=cancel@0` matches every point and never fires, so the dry run counts
  // each point's hits.
  IoEnv& env = IoEnv::Get();
  env.ClearFaults();
  ASSERT_TRUE(env.ArmFaultString("*=cancel@0").ok());
  RunContext dry_ctx;
  Outcome complete = run(&dry_ctx);
  std::vector<std::pair<std::string, std::uint64_t>> points;
  for (const std::string& point : env.SeenSites()) {
    points.emplace_back(point, env.StatsFor(point).ops);
  }
  env.ClearFaults();
  ASSERT_TRUE(complete.completed) << algorithm << ": dry run must finish";
  ASSERT_EQ(complete.reason, StopReason::kNone) << algorithm;
  std::sort(complete.deps.begin(), complete.deps.end());
  ASSERT_GE(points.size(), min_points)
      << algorithm << ": too few injection points reached";

  const struct {
    const char* kind;
    StopReason expected;
  } kKinds[] = {
      {"cancel", StopReason::kFaultInjected},
      {"alloc", StopReason::kMemoryBudget},
      {"throw", StopReason::kFaultInjected},
  };

  for (const auto& [point, total] : points) {
    ASSERT_GE(total, 1u) << algorithm << "/" << point;
    // Deterministic spread over the point's lifetime: first, middle, last.
    std::vector<std::uint64_t> positions{1, total / 2 + 1, total};
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    for (const auto& [kind, expected] : kKinds) {
      for (std::uint64_t at : positions) {
        const std::string spec =
            point + "=" + kind + "#" + std::to_string(at);
        SCOPED_TRACE(algorithm + ": " + spec);
        Outcome partial = RunArmed(spec, run);
        EXPECT_FALSE(partial.completed);
        EXPECT_EQ(partial.reason, expected);
        std::sort(partial.deps.begin(), partial.deps.end());
        EXPECT_TRUE(std::includes(complete.deps.begin(), complete.deps.end(),
                                  partial.deps.begin(), partial.deps.end()))
            << "partial result is not a subset of the complete output";
      }
    }
  }
}

Outcome RunOcdDiscover(RunContext* ctx, const CodedRelation& coded,
                       std::size_t num_threads = 1) {
  core::OcdDiscoverOptions opts;
  opts.run_context = ctx;
  opts.num_threads = num_threads;
  core::OcdDiscoverResult r = core::DiscoverOcds(coded, opts);
  Outcome out{r.completed, r.stop_reason, {}};
  for (const auto& ocd : r.ocds) out.deps.push_back("OCD " + ocd.ToString(coded));
  for (const auto& od : r.ods) out.deps.push_back("OD " + od.ToString(coded));
  return out;
}

TEST(FaultInjectionTest, OcdDiscoverMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "ocddiscover",
      [&](RunContext* ctx) { return RunOcdDiscover(ctx, coded); },
      /*min_points=*/3);
}

TEST(FaultInjectionTest, OcdDiscoverParallelSurvivesThrow) {
  CodedRelation coded = TestTable();
  RunContext dry_ctx;
  Outcome complete = RunOcdDiscover(&dry_ctx, coded, /*num_threads=*/2);
  ASSERT_TRUE(complete.completed);
  std::sort(complete.deps.begin(), complete.deps.end());

  for (const char* spec : {"ocd.check=throw#1", "ocd.check=throw#5"}) {
    // The throw happens on a pool worker; the pool contains it, the driver
    // sees the failed Status and unwinds with kFaultInjected.
    Outcome partial = RunArmed(spec, [&](RunContext* ctx) {
      return RunOcdDiscover(ctx, coded, /*num_threads=*/2);
    });
    EXPECT_FALSE(partial.completed);
    EXPECT_EQ(partial.reason, StopReason::kFaultInjected);
    std::sort(partial.deps.begin(), partial.deps.end());
    EXPECT_TRUE(std::includes(complete.deps.begin(), complete.deps.end(),
                              partial.deps.begin(), partial.deps.end()));
  }
}

TEST(FaultInjectionTest, OrderMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "order",
      [&](RunContext* ctx) {
        algo::OrderDiscoverOptions opts;
        opts.run_context = ctx;
        algo::OrderDiscoverResult r =
            algo::DiscoverOrderDependencies(coded, opts);
        Outcome out{r.completed, r.stop_reason, {}};
        for (const auto& od : r.ods) out.deps.push_back(od.ToString(coded));
        return out;
      },
      /*min_points=*/3);
}

TEST(FaultInjectionTest, TaneMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "tane",
      [&](RunContext* ctx) {
        algo::TaneOptions opts;
        opts.run_context = ctx;
        algo::TaneResult r = algo::DiscoverFds(coded, opts);
        Outcome out{r.completed, r.stop_reason, {}};
        for (const auto& fd : r.fds) out.deps.push_back(fd.ToString(coded));
        return out;
      },
      /*min_points=*/3);
}

TEST(FaultInjectionTest, FastodMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "fastod",
      [&](RunContext* ctx) {
        algo::FastodOptions opts;
        opts.run_context = ctx;
        algo::FastodResult r = algo::DiscoverFastod(coded, opts);
        Outcome out{r.completed, r.stop_reason, {}};
        for (const auto& od : r.ods) out.deps.push_back(od.ToString(coded));
        return out;
      },
      /*min_points=*/3);
}

TEST(FaultInjectionTest, FastodBidMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "fastod_bid",
      [&](RunContext* ctx) {
        algo::FastodBidOptions opts;
        opts.run_context = ctx;
        algo::FastodBidResult r = algo::DiscoverFastodBid(coded, opts);
        Outcome out{r.completed, r.stop_reason, {}};
        for (const auto& od : r.ods) out.deps.push_back(od.ToString(coded));
        return out;
      },
      /*min_points=*/3);
}

TEST(FaultInjectionTest, UccMatrix) {
  CodedRelation coded = TestTable();
  CheckInjectionMatrix(
      "ucc",
      [&](RunContext* ctx) {
        algo::UccOptions opts;
        opts.run_context = ctx;
        algo::UccResult r = algo::DiscoverUccs(coded, opts);
        Outcome out{r.completed, r.stop_reason, {}};
        for (const auto& u : r.uccs) out.deps.push_back(u.ToString(coded));
        return out;
      },
      /*min_points=*/3);
}

// ---- soundness of partial results (brute-force ground truth) ----

TEST(FaultInjectionTest, OcdDiscoverPartialIsSound) {
  CodedRelation coded = TestTable();
  for (const char* spec : {"ocd.check=throw#2", "ocd.check=throw#7"}) {
    IoEnv& env = IoEnv::Get();
    ASSERT_TRUE(env.ArmFaultString(spec).ok());
    RunContext ctx;
    core::OcdDiscoverOptions opts;
    opts.run_context = &ctx;
    core::OcdDiscoverResult r = core::DiscoverOcds(coded, opts);
    env.ClearFaults();
    EXPECT_FALSE(r.completed);
    for (const auto& ocd : r.ocds) {
      EXPECT_TRUE(od::BruteForceHoldsOcd(coded, ocd.lhs, ocd.rhs))
          << ocd.ToString(coded);
    }
    for (const auto& o : r.ods) {
      EXPECT_TRUE(od::BruteForceHoldsOd(coded, o.lhs, o.rhs))
          << o.ToString(coded);
    }
  }
}

TEST(FaultInjectionTest, TanePartialIsSound) {
  CodedRelation coded = TestTable();
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("tane.check=cancel#4").ok());
  RunContext ctx;
  algo::TaneOptions opts;
  opts.run_context = &ctx;
  algo::TaneResult r = algo::DiscoverFds(coded, opts);
  env.ClearFaults();
  EXPECT_FALSE(r.completed);
  for (const auto& fd : r.fds) {
    EXPECT_TRUE(od::BruteForceHoldsFd(coded, fd.lhs, fd.rhs))
        << fd.ToString(coded);
  }
}

// ---- budget-driven stops through the shared context ----

TEST(FaultInjectionTest, MemoryBudgetStopsEveryAlgorithm) {
  CodedRelation coded = TestTable();
  // 1 byte cannot hold even one partition/candidate: every algorithm must
  // stop immediately, cleanly, with the memory-budget reason.
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    core::OcdDiscoverOptions o;
    o.run_context = &ctx;
    auto r = core::DiscoverOcds(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::TaneOptions o;
    o.run_context = &ctx;
    auto r = algo::DiscoverFds(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::FastodOptions o;
    o.run_context = &ctx;
    auto r = algo::DiscoverFastod(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::FastodBidOptions o;
    o.run_context = &ctx;
    auto r = algo::DiscoverFastodBid(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::OrderDiscoverOptions o;
    o.run_context = &ctx;
    auto r = algo::DiscoverOrderDependencies(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::UccOptions o;
    o.run_context = &ctx;
    auto r = algo::DiscoverUccs(coded, o);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.stop_reason, StopReason::kMemoryBudget);
  }
}

TEST(FaultInjectionTest, MemoryIsReleasedOnCompletion) {
  CodedRelation coded = TestTable();
  RunContext ctx;
  core::OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  auto r = core::DiscoverOcds(coded, opts);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(ctx.memory_used(), 0u) << "levels must release their charge";
  EXPECT_GT(ctx.peak_memory(), 0u);
}

TEST(FaultInjectionTest, CancelledContextYieldsCancelledResult) {
  CodedRelation coded = TestTable();
  RunContext ctx;
  ctx.Cancel();  // as a signal handler would, before/while the run starts
  core::OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  auto r = core::DiscoverOcds(coded, opts);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.stop_reason, StopReason::kCancelled);
}

}  // namespace
}  // namespace ocdd
