#include "algo/order/order_discover.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/prof.h"
#include "datagen/fixtures.h"
#include "datagen/registry.h"
#include "od/brute_force.h"
#include "test_util.h"

namespace ocdd::algo {
namespace {

using od::AttributeList;
using od::OrderDependency;
using rel::CodedRelation;
using testutil::CodedIntTable;

TEST(OrderDiscoverTest, FindsSimpleOd) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {10, 20, 30}});
  OrderDiscoverResult result = DiscoverOrderDependencies(r);
  std::set<OrderDependency> ods(result.ods.begin(), result.ods.end());
  EXPECT_TRUE(ods.count(OrderDependency{AttributeList{0}, AttributeList{1}}));
  EXPECT_TRUE(ods.count(OrderDependency{AttributeList{1}, AttributeList{0}}));
}

TEST(OrderDiscoverTest, YesDatasetShowsIncompleteness) {
  // The paper's §5.2.1 demonstration: ORDER cannot express AB → B (repeated
  // attributes), so it finds nothing on YES even though A ~ B holds.
  CodedRelation yes = CodedRelation::Encode(datagen::MakeYes());
  OrderDiscoverResult result = DiscoverOrderDependencies(yes);
  EXPECT_TRUE(result.ods.empty());
  EXPECT_TRUE(result.completed);
}

TEST(OrderDiscoverTest, NoDatasetFindsNothing) {
  CodedRelation no = CodedRelation::Encode(datagen::MakeNo());
  OrderDiscoverResult result = DiscoverOrderDependencies(no);
  EXPECT_TRUE(result.ods.empty());
}

TEST(OrderDiscoverTest, SplitRepairedByLhsExtension) {
  // A alone does not order C (split on A=1), but AB does.
  CodedRelation r = CodedIntTable({
      {1, 1, 2},  // A
      {1, 2, 3},  // B
      {5, 6, 7},  // C
  });
  OrderDiscoverResult result = DiscoverOrderDependencies(r);
  std::set<OrderDependency> ods(result.ods.begin(), result.ods.end());
  EXPECT_TRUE(ods.count(
      OrderDependency{AttributeList{0, 1}, AttributeList{2}}));
}

TEST(OrderDiscoverTest, AllEmittedOdsAreValidDisjointAndDupFree) {
  CodedRelation r = testutil::RandomCodedTable(11, 12, 4, 3);
  OrderDiscoverResult result = DiscoverOrderDependencies(r);
  for (const OrderDependency& od : result.ods) {
    EXPECT_TRUE(od::BruteForceHoldsOd(r, od.lhs, od.rhs)) << od.ToString();
    EXPECT_TRUE(od.lhs.DisjointWith(od.rhs));
    EXPECT_EQ(od.lhs, od.lhs.Normalized());
    EXPECT_EQ(od.rhs, od.rhs.Normalized());
  }
}

TEST(OrderDiscoverTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(13, 20, 6, 2);
  OrderDiscoverOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  OrderDiscoverResult result = DiscoverOrderDependencies(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(OrderDiscoverTest, AStopInsideALevelReportsThatLevel) {
  // A budget spent inside level 2 reports level 2 and its n·(n-1)
  // candidates, and builds no part of level 3.
  CodedRelation r = testutil::RandomCodedTable(13, 20, 6, 2);
  OrderDiscoverOptions opts;
  RunContext budget;
  budget.set_check_budget(3);
  opts.run_context = &budget;
  const OrderDiscoverResult result = DiscoverOrderDependencies(r, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCheckBudget);
  EXPECT_EQ(result.stop_state.level, 2u);
  EXPECT_EQ(result.stop_state.frontier_size, 6u * 5u);
  EXPECT_EQ(result.candidates_generated, 6u * 5u);
  EXPECT_EQ(result.levels_completed, 0u);
}

TEST(OrderDiscoverTest, MaxLevelCapsCandidates)  {
  CodedRelation r = testutil::RandomCodedTable(17, 10, 5, 2);
  OrderDiscoverOptions opts;
  opts.max_level = 2;
  OrderDiscoverResult result = DiscoverOrderDependencies(r, opts);
  for (const OrderDependency& od : result.ods) {
    EXPECT_LE(od.lhs.size() + od.rhs.size(), 2u);
  }
}

TEST(OrderDiscoverTest, CappedLastLevelBuildsNoChildren) {
  // FLIGHT_1K's level 3 holds ~460,000 ORDER candidates and level 4 would
  // hold millions; at `max_level = 3` every generated candidate is checked.
  auto data = datagen::MakeDataset("FLIGHT_1K", 200, 42);
  ASSERT_TRUE(data.ok());
  const CodedRelation r = CodedRelation::Encode(*data);
  OrderDiscoverOptions opts;
  opts.max_level = 3;
  const OrderDiscoverResult result = DiscoverOrderDependencies(r, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(result.candidates_generated, result.num_checks);
  EXPECT_EQ(result.stop_state.frontier_size, 0u);
}

TEST(OrderDiscoverTest, ProfileTimesGeneration) {
  // The profile of a run, taken as bench_table6 takes it (reset before,
  // snapshot after), times ORDER's emission and generation.
  CodedRelation r = testutil::RandomCodedTable(17, 10, 5, 2);
  const bool was_enabled = prof::Enabled();
  prof::SetEnabled(true);
  prof::Reset();
  DiscoverOrderDependencies(r);
  std::uint64_t generate_calls = 0;
  for (const prof::PhaseStats& phase : prof::Snapshot().phases) {
    if (std::string(phase.name) == "generate") generate_calls = phase.calls;
  }
  prof::SetEnabled(was_enabled);
  EXPECT_GT(generate_calls, 0u);
}

// Completeness property: every valid disjoint OD from brute force must be
// discovered or derivable from a discovered one (valid OD X → Y implies
// X' → Y for any X' extending X, and is found for the shortest prefix pair).
class OrderCompletenessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OrderCompletenessTest, CoversBruteForceDisjointOds) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 9, 4, 3);
  OrderDiscoverResult result = DiscoverOrderDependencies(r);
  ASSERT_TRUE(result.completed);
  std::set<OrderDependency> found(result.ods.begin(), result.ods.end());

  for (const OrderDependency& truth : od::BruteForceAllOds(r, 2, true)) {
    if (found.count(truth) > 0) continue;
    // Must be derivable: some found X' → Y' with X' a prefix-extension
    // source — concretely, found (X', Y') where X' is a prefix of
    // truth.lhs and Y' == truth.rhs (LHS extensions of valid ODs are
    // implied), or a found OD whose RHS is a prefix of truth.rhs with the
    // same LHS does NOT imply it — so only the LHS rule applies.
    bool derivable = false;
    for (const OrderDependency& od : found) {
      if (truth.rhs == od.rhs && truth.lhs.HasPrefix(od.lhs)) {
        derivable = true;
        break;
      }
    }
    EXPECT_TRUE(derivable) << "ORDER missed: " << truth.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderCompletenessTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ocdd::algo

namespace ocdd::algo {
namespace {

class OrderPartitionBackendTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderPartitionBackendTest, PartitionsBackendMatchesSortBackend) {
  rel::CodedRelation r =
      testutil::RandomCodedTable(GetParam() + 900, 20, 4, 3);
  OrderDiscoverResult fast = DiscoverOrderDependencies(r);
  // A one-byte cache admits no partition: every check sorts.
  OrderDiscoverOptions sort_only;
  sort_only.max_partition_cache_bytes = 1;
  OrderDiscoverResult plain = DiscoverOrderDependencies(r, sort_only);
  EXPECT_EQ(plain.ods, fast.ods);
  EXPECT_EQ(plain.num_checks, fast.num_checks);

  // And under a tiny cache budget (forcing sort fallback mid-run).
  OrderDiscoverOptions tiny;
  tiny.max_partition_cache_bytes = 256;
  OrderDiscoverResult fallback = DiscoverOrderDependencies(r, tiny);
  EXPECT_EQ(plain.ods, fallback.ods);
  EXPECT_EQ(plain.num_checks, fallback.num_checks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderPartitionBackendTest,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(OrderDiscoverTest, EveryDatasetMatchesTheSortPath) {
  for (const datagen::DatasetSpec& spec : datagen::AllDatasets()) {
    Result<rel::Relation> data = datagen::MakeDataset(spec.name, 200, 42);
    ASSERT_TRUE(data.ok()) << spec.name;
    rel::CodedRelation r = rel::CodedRelation::Encode(*data);
    // FLIGHT_1K's 109 columns give level 2 alone 11,772 ordered pairs and
    // level 3 about 460,000, and DBTESMA's ORDER walk passes a million
    // checks by level 6 without end.
    const std::size_t max_level = spec.num_columns > 100           ? 2
                                  : spec.name.rfind("DBTESMA", 0) == 0 ? 4
                                                                       : 0;
    OrderDiscoverOptions sort_only;
    sort_only.max_level = max_level;
    sort_only.max_partition_cache_bytes = 1;
    const OrderDiscoverResult reference =
        DiscoverOrderDependencies(r, sort_only);
    SCOPED_TRACE(spec.name);
    OrderDiscoverOptions opts;
    opts.max_level = max_level;
    const OrderDiscoverResult run = DiscoverOrderDependencies(r, opts);
    EXPECT_EQ(run.completed, reference.completed);
    EXPECT_EQ(run.ods, reference.ods);
    EXPECT_EQ(run.num_checks, reference.num_checks);
    EXPECT_EQ(run.candidates_generated, reference.candidates_generated);
  }
}

}  // namespace
}  // namespace ocdd::algo
