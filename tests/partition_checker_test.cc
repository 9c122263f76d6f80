// The content-addressed partition cache (core/partition_checker.h): lists
// with equal sorted partitions share one stored vector, refinements and
// checks run once per distinct pair of ids, and none of it changes a
// discovery result or a check count.

#include "core/partition_checker.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "common/prof.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using rel::CodedRelation;
using testutil::CodedIntTable;

/// The candidate `x ~ y`, its lists interned in `checker`'s table.
Candidate Cand(PartitionChecker& checker, const AttributeList& x,
               const AttributeList& y) {
  return Candidate{checker.lists().Intern(x), checker.lists().Intern(y)};
}

/// Id of the vector cached for `list`, or `kNoPartId`.
PartId PartOf(PartitionChecker& checker, const AttributeList& list) {
  return checker.lists().part(checker.lists().Intern(list));
}

TEST(PartitionCheckerTest, OrderCompatibleListsShareOneVectorAndOneCharge) {
  // A ~ B: [A,B] and [B,A] order the rows identically, yet neither equals
  // [A] or [B] alone.
  CodedRelation r = CodedIntTable({{1, 1, 2, 2, 3, 3},
                                   {5, 6, 6, 7, 8, 8},
                                   {3, 2, 1, 3, 2, 1}});
  const AttributeList ab{0, 1};
  const AttributeList ba{1, 0};
  const AttributeList c{2};

  RunContext ctx;
  PartitionChecker one(r, ctx, kDefaultPartitionCacheBytes);
  one.Prepare({Cand(one, ab, c)}, nullptr);
  PartitionChecker both(r, ctx, kDefaultPartitionCacheBytes);
  const std::vector<Candidate> level = {Cand(both, ab, c), Cand(both, ba, c)};
  const auto slots = both.Prepare(level, nullptr);

  EXPECT_NE(PartOf(both, ab), kNoPartId);
  EXPECT_EQ(PartOf(both, ab), PartOf(both, ba));
  EXPECT_NE(PartOf(both, ab), PartOf(both, AttributeList{0}));
  EXPECT_NE(PartOf(both, ab), PartOf(both, AttributeList{1}));
  EXPECT_EQ(both.num_partitions(), 4u);  // [A], [B], [A,B] = [B,A], [C]
  // [B,A] adds only its prefix [B]: no vector and no check slot of its own.
  EXPECT_EQ(both.cache_bytes(),
            one.cache_bytes() + ListPartition::ForColumn(r, 1).MemoryBytes());
  EXPECT_EQ(slots[0], slots[1]);
  EXPECT_EQ(ctx.memory_used(),
            one.cache_bytes() + both.cache_bytes() +
                one.lists().charged_bytes() + both.lists().charged_bytes());

  // Both lists answer alike, and each counts as a check of its own.
  const CandidateOutcome x =
      both.CheckOcdAndOds(level[0].x, level[0].y, slots[0]);
  const CandidateOutcome y =
      both.CheckOcdAndOds(level[1].x, level[1].y, slots[1]);
  EXPECT_EQ(x.ocd_valid, y.ocd_valid);
  EXPECT_EQ(x.od_xy, y.od_xy);
  EXPECT_EQ(x.od_yx, y.od_yx);
  EXPECT_EQ(both.num_checks(), x.ocd_valid ? 6u : 2u);
}

TEST(PartitionCheckerTest, NonSplittingRefineAliasesItsParent) {
  // A determines B, so refining [A] by B splits no group.
  CodedRelation r = CodedIntTable({{1, 1, 2, 2}, {6, 6, 5, 5}});
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  checker.Prepare({Cand(checker, AttributeList{0, 1}, AttributeList{1})},
                  nullptr);
  EXPECT_NE(PartOf(checker, AttributeList{0}), kNoPartId);
  EXPECT_EQ(PartOf(checker, AttributeList{0, 1}),
            PartOf(checker, AttributeList{0}));
  EXPECT_EQ(checker.num_partitions(), 2u);  // [A] = [A,B], [B]
}

TEST(PartitionCheckerTest, VectorsThatDifferInOneRankStayApart) {
  // Same rows, width and group count; only the last rank differs.
  CodedRelation r = CodedIntTable({{0, 1, 2, 3, 0}, {0, 1, 2, 3, 1}});
  ASSERT_EQ(ListPartition::ForColumn(r, 0).num_groups(),
            ListPartition::ForColumn(r, 1).num_groups());
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  checker.Prepare({Cand(checker, AttributeList{0}, AttributeList{1})},
                  nullptr);
  EXPECT_NE(PartOf(checker, AttributeList{0}), kNoPartId);
  EXPECT_NE(PartOf(checker, AttributeList{1}), kNoPartId);
  EXPECT_NE(PartOf(checker, AttributeList{0}),
            PartOf(checker, AttributeList{1}));
  EXPECT_EQ(checker.num_partitions(), 2u);
}

TEST(PartitionCheckerTest, CheckSlotsLiveForOneLevel) {
  CodedRelation r = CodedIntTable({{1, 2, 3, 4}, {4, 3, 2, 1}, {1, 1, 2, 2}});
  const AttributeList a{0};
  const AttributeList b{1};
  const AttributeList c{2};
  const std::size_t a_bytes = ListPartition::ForColumn(r, 0).MemoryBytes();
  const std::size_t b_bytes = ListPartition::ForColumn(r, 1).MemoryBytes();
  const std::size_t c_bytes = ListPartition::ForColumn(r, 2).MemoryBytes();
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  const Candidate ab = Cand(checker, a, b);
  const Candidate ac = Cand(checker, a, c);
  checker.Prepare({ab}, nullptr);
  const std::size_t slot_bytes = checker.cache_bytes() - a_bytes - b_bytes;
  ASSERT_GT(slot_bytes, 0u);
  // The next level drops {A,B}'s slot and opens {A,C}'s.
  checker.Prepare({ac}, nullptr);
  EXPECT_EQ(checker.cache_bytes(), a_bytes + b_bytes + c_bytes + slot_bytes);
  // A level that checks {A,C} again keeps its slot beside {A,B}'s new one.
  const auto slots = checker.Prepare({ab, ac}, nullptr);
  EXPECT_EQ(checker.cache_bytes(),
            a_bytes + b_bytes + c_bytes + 2 * slot_bytes);
  EXPECT_EQ(ctx.memory_used(),
            checker.cache_bytes() + checker.lists().charged_bytes());

  // Under a cap one byte short of all three vectors and a slot, the dead
  // {A,B} slot gives way to [C]; the {A,C} slot then does not fit, and its
  // check runs unmemoised.
  PartitionChecker capped(r, ctx, a_bytes + b_bytes + c_bytes + slot_bytes - 1);
  capped.Prepare({Cand(capped, a, b)}, nullptr);
  const Candidate capped_ac = Cand(capped, a, c);
  const auto capped_slots = capped.Prepare({capped_ac}, nullptr);
  EXPECT_NE(PartOf(capped, c), kNoPartId);
  EXPECT_EQ(capped_slots[0], nullptr);
  EXPECT_EQ(capped.cache_bytes(), a_bytes + b_bytes + c_bytes);
  const CandidateOutcome capped_out =
      capped.CheckOcdAndOds(capped_ac.x, capped_ac.y, capped_slots[0]);
  const CandidateOutcome out = checker.CheckOcdAndOds(ac.x, ac.y, slots[1]);
  EXPECT_EQ(capped_out.ocd_valid, out.ocd_valid);
  EXPECT_EQ(capped_out.od_xy, out.od_xy);
  EXPECT_EQ(capped_out.od_yx, out.od_yx);
}

TEST(PartitionCheckerTest, BudgetedRunOnSharedPartitionsMatchesUnbudgeted) {
  // LATTICE's lists share few distinct vectors across many check pairs, so
  // a budget that holds only part of its cache tests that memo slots never
  // keep room that later levels' vectors need.
  Result<rel::Relation> lattice = datagen::MakeDataset("LATTICE", 6000, 42);
  ASSERT_TRUE(lattice.ok());
  CodedRelation r = CodedRelation::Encode(*lattice);
  const OcdDiscoverResult unbudgeted = DiscoverOcds(r);
  ASSERT_TRUE(unbudgeted.completed);
  // Half of this budget caps the cache at 3/4 of its unbudgeted size, and
  // the other half holds the frontier, which peaks near 2 MB at any row
  // count.
  const std::size_t budget = unbudgeted.partition_cache_bytes * 3 / 2;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunContext ctx;
    ctx.set_memory_budget(budget);
    OcdDiscoverOptions opts;
    opts.num_threads = threads;
    opts.run_context = &ctx;
    const OcdDiscoverResult budgeted = DiscoverOcds(r, opts);
    EXPECT_TRUE(budgeted.completed) << StopReasonName(budgeted.stop_reason);
    EXPECT_GT(budgeted.partition_cache_bytes, 0u);
    EXPECT_LE(budgeted.partition_cache_bytes, budget / 2);
    EXPECT_LE(ctx.peak_memory(), budget);
    EXPECT_EQ(budgeted.ocds, unbudgeted.ocds);
    EXPECT_EQ(budgeted.ods, unbudgeted.ods);
    EXPECT_EQ(budgeted.num_checks, unbudgeted.num_checks);
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
}

TEST(PartitionCheckerTest, RefinesOncePerDistinctParentAndColumn) {
  Result<rel::Relation> lattice = datagen::MakeDataset("LATTICE", 400, 42);
  ASSERT_TRUE(lattice.ok());
  CodedRelation r = CodedRelation::Encode(*lattice);
  // Every list of up to three distinct columns, as both sides.
  std::vector<AttributeList> lists;
  const auto n = static_cast<rel::ColumnId>(r.num_columns());
  for (rel::ColumnId a = 0; a < n; ++a) {
    lists.push_back(AttributeList{a});
    for (rel::ColumnId b = 0; b < n; ++b) {
      if (b == a) continue;
      lists.push_back(AttributeList{a, b});
      for (rel::ColumnId c = 0; c < n; ++c) {
        if (c != a && c != b) lists.push_back(AttributeList{a, b, c});
      }
    }
  }
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  std::vector<Candidate> level;
  for (std::size_t i = 0; i + 1 < lists.size(); i += 2) {
    level.push_back(Cand(checker, lists[i], lists[i + 1]));
  }
  level.push_back(Cand(checker, lists.back(), lists.front()));

  const bool was_enabled = prof::Enabled();
  prof::SetEnabled(true);
  prof::Reset();
  checker.Prepare(level, nullptr);
  std::uint64_t refines = 0;
  for (const prof::PhaseStats& phase : prof::Snapshot().phases) {
    if (std::string(phase.name) == "partition.refine") refines = phase.calls;
  }
  prof::SetEnabled(was_enabled);

  std::set<std::pair<PartId, rel::ColumnId>> pairs;
  for (const AttributeList& list : lists) {
    ASSERT_NE(PartOf(checker, list), kNoPartId) << list.ToString();
    if (list.size() < 2) continue;
    AttributeList prefix(std::vector<rel::ColumnId>(list.ids().begin(),
                                                    list.ids().end() - 1));
    pairs.emplace(PartOf(checker, prefix), list[list.size() - 1]);
  }
  EXPECT_EQ(refines, pairs.size());
  EXPECT_LT(pairs.size(), lists.size() - n);  // LATTICE's lists do share
}

TEST(PartitionCheckerTest, EveryDatasetMatchesTheSortPath) {
  for (const datagen::DatasetSpec& spec : datagen::AllDatasets()) {
    Result<rel::Relation> data = datagen::MakeDataset(spec.name, 200, 42);
    ASSERT_TRUE(data.ok()) << spec.name;
    CodedRelation r = CodedRelation::Encode(*data);
    // Every walk runs to its end but FLIGHT_1K's, whose 109 columns give
    // level 3 tens of thousands of candidates and level 4 millions.
    const std::size_t max_level = spec.num_columns > 100 ? 2 : 0;
    OcdDiscoverOptions sort_only;
    sort_only.max_level = max_level;
    sort_only.max_partition_cache_bytes = 1;
    const OcdDiscoverResult reference = DiscoverOcds(r, sort_only);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(spec.name + " threads=" + std::to_string(threads));
      OcdDiscoverOptions opts;
      opts.max_level = max_level;
      opts.num_threads = threads;
      const OcdDiscoverResult run = DiscoverOcds(r, opts);
      EXPECT_EQ(run.completed, reference.completed);
      EXPECT_EQ(run.ocds, reference.ocds);
      EXPECT_EQ(run.ods, reference.ods);
      EXPECT_EQ(run.num_checks, reference.num_checks);
    }
  }
}

}  // namespace
}  // namespace ocdd::core
