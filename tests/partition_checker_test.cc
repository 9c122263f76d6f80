// The content-addressed partition cache (core/partition_checker.h): lists
// with equal sorted partitions share one stored vector, refinements and
// checks run once per distinct pair of ids, the checks read one row per
// distinct tuple, and none of it changes a discovery result or a check
// count.

#include "core/partition_checker.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "algo/order/order_discover.h"
#include "common/prof.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "core/polarized.h"
#include "datagen/random_relation.h"
#include "datagen/registry.h"
#include "od/brute_force.h"
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

/// Rows the checks of a walk over `r` read.
std::size_t CheckedRows(const CodedRelation& r) {
  RunContext ctx;
  return PartitionChecker(r, ctx, kDefaultPartitionCacheBytes).checked_rows();
}

/// `r` with every row repeated `times` times, in a shuffled order.
CodedRelation Repeated(const CodedRelation& r, std::size_t times,
                       std::uint64_t seed) {
  std::vector<std::size_t> rows;
  for (std::size_t t = 0; t < times; ++t) {
    for (std::size_t row = 0; row < r.num_rows(); ++row) rows.push_back(row);
  }
  Rng rng(seed);
  for (std::size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.Uniform(i)]);
  }
  std::vector<rel::CodedColumn> columns;
  for (const rel::CodedColumn& c : r.columns()) {
    rel::CodedColumn& out = columns.emplace_back();
    out.name = c.name;
    out.source_type = c.source_type;
    out.num_distinct = c.num_distinct;
    out.has_nulls = c.has_nulls;
    for (std::size_t row : rows) out.codes.push_back(c.codes[row]);
  }
  return CodedRelation::FromColumns(std::move(columns));
}

void ExpectSameStop(const WalkCounters& a, const WalkCounters& b) {
  EXPECT_EQ(a.num_checks, b.num_checks);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.stop_state.checks, b.stop_state.checks);
  EXPECT_EQ(a.stop_state.level, b.stop_state.level);
  EXPECT_EQ(a.stop_state.frontier_size, b.stop_state.frontier_size);
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
  // HORSE's lists share vectors across many check pairs over several levels,
  // so a budget that holds only part of its cache tests that memo slots
  // never keep room that later levels' vectors need. Its 6000 rows are
  // distinct tuples, so the cache holds full-length vectors.
  Result<rel::Relation> horse = datagen::MakeDataset("HORSE", 6000, 42);
  ASSERT_TRUE(horse.ok());
  CodedRelation r = CodedRelation::Encode(*horse);
  {
    RunContext ctx;
    ASSERT_EQ(PartitionChecker(r, ctx, 0).checked_rows(), r.num_rows());
  }
  const OcdDiscoverResult unbudgeted = DiscoverOcds(r);
  ASSERT_TRUE(unbudgeted.completed);
  // Half of this budget caps the cache at 3/4 of its unbudgeted size, and
  // the other half holds the frontier, which peaks near 0.5 MB at any row
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

  // LATTICE 400 has 66 distinct tuples, so the checker refined a chain of
  // columns to find them when it was built; the reset leaves those out.
  ASSERT_EQ(checker.checked_rows(), 66u);
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

TEST(PartitionCheckerTest, ReadsOneRowPerDistinctTuple) {
  Result<rel::Relation> lattice = datagen::MakeDataset("LATTICE", 20000, 42);
  ASSERT_TRUE(lattice.ok());
  EXPECT_EQ(CheckedRows(CodedRelation::Encode(*lattice)), 66u);
  // LINEITEM's widest column alone has more than m / 2 values.
  Result<rel::Relation> lineitem = datagen::MakeDataset("LINEITEM", 2000, 42);
  ASSERT_TRUE(lineitem.ok());
  EXPECT_EQ(CheckedRows(CodedRelation::Encode(*lineitem)), 2000u);
  // The first row of each tuple, in row order: every column keeps its
  // values, so its codes stay dense.
  CodedRelation r =
      testutil::CodedIntTable({{3, 1, 3, 2, 1, 3}, {5, 4, 5, 6, 4, 5}});
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  EXPECT_EQ(checker.checked_rows(), 3u);
  // Two int32 codes and two 8-bit mirrors per kept row, charged at once.
  EXPECT_EQ(ctx.memory_used(), 3u * 2 * (sizeof(std::int32_t) + 1));
}

TEST(PartitionCheckerTest, RepeatedRowsChangeNoWalk) {
  for (const datagen::DatasetSpec& spec : datagen::AllDatasets()) {
    SCOPED_TRACE(spec.name);
    Result<rel::Relation> data = datagen::MakeDataset(spec.name, 200, 42);
    ASSERT_TRUE(data.ok());
    const CodedRelation r = CodedRelation::Encode(*data);
    const CodedRelation tripled = Repeated(r, 3, 7);
    ASSERT_LE(CheckedRows(tripled), r.num_rows());
    // FLIGHT_1K's 109 columns stop every walk at level 2.
    const std::size_t max_level = spec.num_columns > 100 ? 2 : 0;

    OcdDiscoverOptions ocd;
    ocd.max_level = max_level;
    const OcdDiscoverResult ocd_r = DiscoverOcds(r, ocd);
    const OcdDiscoverResult ocd_t = DiscoverOcds(tripled, ocd);
    EXPECT_EQ(ocd_r.ocds, ocd_t.ocds);
    EXPECT_EQ(ocd_r.ods, ocd_t.ods);
    ExpectSameStop(ocd_r, ocd_t);

    // ORDER's walks over DBTESMA's 30 columns take seconds past level 4.
    algo::OrderDiscoverOptions order;
    order.max_level = max_level;
    if (spec.num_columns == 30) order.max_level = 4;
    const algo::OrderDiscoverResult order_r =
        algo::DiscoverOrderDependencies(r, order);
    const algo::OrderDiscoverResult order_t =
        algo::DiscoverOrderDependencies(tripled, order);
    EXPECT_EQ(order_r.ods, order_t.ods);
    ExpectSameStop(order_r, order_t);

    PolarizedDiscoverOptions polarized;
    if (max_level != 0) polarized.max_level = max_level;
    const PolarizedDiscoverResult polarized_r =
        DiscoverPolarizedOcds(r, polarized);
    const PolarizedDiscoverResult polarized_t =
        DiscoverPolarizedOcds(tripled, polarized);
    EXPECT_EQ(polarized_r.ocds, polarized_t.ocds);
    EXPECT_EQ(polarized_r.ods, polarized_t.ods);
    ExpectSameStop(polarized_r, polarized_t);
  }
}

TEST(PartitionCheckerTest, CompactedChecksMatchBruteForce) {
  // The QA generator's relations, always with a round of duplicate rows;
  // every candidate of up to two columns a side, both check paths.
  datagen::RandomRelationSpec spec;
  spec.duplicate_rows_prob = 1.0;
  Rng rng(2024);
  std::size_t compacted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    const CodedRelation r =
        CodedRelation::Encode(datagen::MakeRandomRelation(rng, spec));
    std::vector<rel::ColumnId> universe;
    for (rel::ColumnId c = 0; c < r.num_columns(); ++c) universe.push_back(c);
    const std::vector<AttributeList> lists = od::EnumerateLists(universe, 2);
    RunContext ctx;
    PartitionChecker cached(r, ctx, kDefaultPartitionCacheBytes);
    PartitionChecker sorting(r, ctx, 1);
    if (cached.checked_rows() == r.num_rows()) continue;
    ++compacted;
    ASSERT_EQ(sorting.checked_rows(), cached.checked_rows());
    std::vector<std::pair<AttributeList, AttributeList>> pairs;
    std::vector<Candidate> level;
    std::vector<Candidate> sort_level;
    for (const AttributeList& x : lists) {
      for (const AttributeList& y : lists) {
        bool disjoint = true;
        for (rel::ColumnId a : x.ids()) disjoint = disjoint && !y.Contains(a);
        if (!disjoint) continue;
        pairs.emplace_back(x, y);
        level.push_back(Cand(cached, x, y));
        sort_level.push_back(Cand(sorting, x, y));
      }
    }
    const auto slots = cached.Prepare(level, nullptr);
    sorting.Prepare(sort_level, nullptr);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& [x, y] = pairs[i];
      SCOPED_TRACE(x.ToString() + " ~ " + y.ToString());
      const bool ocd = od::BruteForceHoldsOcd(r, x, y);
      const bool od_xy = od::BruteForceHoldsOd(r, x, y);
      const bool od_yx = od::BruteForceHoldsOd(r, y, x);
      for (const CandidateOutcome& out :
           {cached.CheckOcdAndOds(level[i].x, level[i].y, slots[i]),
            sorting.CheckOcdAndOds(sort_level[i].x, sort_level[i].y,
                                   nullptr)}) {
        EXPECT_EQ(out.ocd_valid, ocd);
        if (ocd) {
          EXPECT_EQ(out.od_xy, od_xy);
          EXPECT_EQ(out.od_yx, od_yx);
        }
      }
      EXPECT_EQ(cached.CheckOd(level[i].x, level[i].y).valid(), od_xy);
      EXPECT_EQ(sorting.CheckOd(sort_level[i].x, sort_level[i].y).valid(),
                od_xy);
    }
    // The walk's claims hold on the relation with its duplicates.
    const OcdDiscoverResult walk = DiscoverOcds(r);
    for (const od::OrderCompatibility& c : walk.ocds) {
      EXPECT_TRUE(od::BruteForceHoldsOcd(r, c.lhs, c.rhs)) << c.ToString();
    }
    for (const od::OrderDependency& d : walk.ods) {
      EXPECT_TRUE(od::BruteForceHoldsOd(r, d.lhs, d.rhs)) << d.ToString();
    }
  }
  EXPECT_GE(compacted, 50u);
}

TEST(PartitionCheckerTest, DistinctCopyIsChargedToTheCacheShare) {
  Result<rel::Relation> lattice = datagen::MakeDataset("LATTICE", 2000, 42);
  ASSERT_TRUE(lattice.ok());
  const CodedRelation r = CodedRelation::Encode(*lattice);
  std::size_t copy_bytes = 0;
  {
    RunContext ctx;
    ctx.set_memory_budget(std::size_t{64} << 20);
    PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
    ASSERT_EQ(checker.checked_rows(), 66u);
    copy_bytes = ctx.memory_used();
    EXPECT_GT(copy_bytes, 0u);
  }
  // A run returns the copy's charge with the cache's.
  const OcdDiscoverResult unbudgeted = DiscoverOcds(r);
  RunContext ctx;
  ctx.set_memory_budget(std::size_t{64} << 20);
  OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  const OcdDiscoverResult budgeted = DiscoverOcds(r, opts);
  EXPECT_TRUE(budgeted.completed);
  EXPECT_EQ(budgeted.ocds, unbudgeted.ocds);
  EXPECT_EQ(budgeted.num_checks, unbudgeted.num_checks);
  EXPECT_GE(ctx.peak_memory(), copy_bytes);
  EXPECT_EQ(ctx.memory_used(), 0u);
  // Half a budget one byte short of the copy refuses it.
  RunContext tight;
  tight.set_memory_budget(2 * copy_bytes - 2);
  PartitionChecker full(r, tight, kDefaultPartitionCacheBytes);
  EXPECT_EQ(full.checked_rows(), r.num_rows());
  EXPECT_EQ(tight.memory_used(), 0u);
}

TEST(PartitionCheckerTest, RefusedCopyGivesTheSameWalk) {
  // Three columns over 4000 rows with at most 1000 distinct tuples: the
  // copy is the largest charge, so a budget can refuse it and still hold
  // the frontier; the checks then sort the full relation.
  const CodedRelation r = testutil::RandomCodedTable(5, 4000, 3, 10);
  ASSERT_LE(CheckedRows(r), 1000u);
  const OcdDiscoverResult compact_ocd = DiscoverOcds(r);
  const algo::OrderDiscoverResult compact_order =
      algo::DiscoverOrderDependencies(r);
  std::size_t copy_bytes = 0;
  {
    RunContext probe;
    PartitionChecker checker(r, probe, kDefaultPartitionCacheBytes);
    copy_bytes = probe.memory_used();
  }
  ASSERT_GT(copy_bytes, 0u);
  for (int algo = 0; algo < 2; ++algo) {
    SCOPED_TRACE(algo == 0 ? "ocddiscover" : "order");
    RunContext ctx;
    ctx.set_memory_budget(copy_bytes);
    {
      PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
      ASSERT_EQ(checker.checked_rows(), r.num_rows());
    }
    if (algo == 0) {
      OcdDiscoverOptions opts;
      opts.run_context = &ctx;
      const OcdDiscoverResult run = DiscoverOcds(r, opts);
      EXPECT_EQ(run.ocds, compact_ocd.ocds);
      EXPECT_EQ(run.ods, compact_ocd.ods);
      ExpectSameStop(run, compact_ocd);
    } else {
      algo::OrderDiscoverOptions opts;
      opts.run_context = &ctx;
      const algo::OrderDiscoverResult run =
          algo::DiscoverOrderDependencies(r, opts);
      EXPECT_EQ(run.ods, compact_order.ods);
      ExpectSameStop(run, compact_order);
    }
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
}

}  // namespace
}  // namespace ocdd::core
