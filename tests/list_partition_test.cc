#include "core/list_partition.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/ocd_discover.h"
#include "datagen/fixtures.h"
#include "datagen/random_relation.h"
#include "datagen/registry.h"
#include "od/brute_force.h"
#include "relation/sorted_index.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using od::EnumerateLists;
using rel::CodedRelation;
using testutil::CodedIntTable;

/// Ground truth rank vector of a list: dense ranks from a full sort.
std::vector<std::int32_t> RanksBySorting(const CodedRelation& r,
                                         const AttributeList& list) {
  std::vector<std::uint32_t> idx = rel::SortRowsByList(r, list.ids());
  std::vector<std::int32_t> ranks(r.num_rows());
  std::int32_t rank = -1;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (i == 0 ||
        rel::CompareRowsOnList(r, list.ids(), idx[i - 1], idx[i]) != 0) {
      ++rank;
    }
    ranks[idx[i]] = rank;
  }
  return ranks;
}

ListPartition BuildByRefinement(const CodedRelation& r,
                                const AttributeList& list) {
  ListPartition p = ListPartition::ForColumn(r, list[0]);
  for (std::size_t i = 1; i < list.size(); ++i) {
    p = p.Refine(r, list[i]);
  }
  return p;
}

TEST(ListPartitionTest, ForColumnCopiesCodes) {
  CodedRelation r = CodedIntTable({{30, 10, 20, 10}});
  ListPartition p = ListPartition::ForColumn(r, 0);
  EXPECT_EQ(p.codes(), (std::vector<std::int32_t>{2, 0, 1, 0}));
  EXPECT_EQ(p.num_groups(), 3);
  EXPECT_EQ(p.num_rows(), 4u);
}

TEST(ListPartitionTest, RefineMatchesFullSort) {
  CodedRelation r = CodedIntTable({{1, 1, 2, 2, 1}, {5, 3, 4, 4, 3}});
  ListPartition p = BuildByRefinement(r, AttributeList{0, 1});
  EXPECT_EQ(p.codes(), RanksBySorting(r, AttributeList{0, 1}));
}

TEST(ListPartitionTest, RefineProducesDenseRanks) {
  CodedRelation r = testutil::RandomCodedTable(3, 30, 3, 4);
  ListPartition p = BuildByRefinement(r, AttributeList{2, 0, 1});
  std::vector<bool> seen(static_cast<std::size_t>(p.num_groups()), false);
  for (std::int32_t c : p.codes()) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, p.num_groups());
    seen[static_cast<std::size_t>(c)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ListPartitionTest, CheckOdOnTaxInfo) {
  CodedRelation tax = CodedRelation::Encode(datagen::MakeTaxInfo());
  ListPartition income = ListPartition::ForColumn(tax, 1);
  ListPartition bracket = ListPartition::ForColumn(tax, 3);
  ListPartition savings = ListPartition::ForColumn(tax, 2);
  EXPECT_TRUE(ListPartition::CheckOd(income, bracket).valid());
  OdCheckOutcome out = ListPartition::CheckOd(income, savings);
  EXPECT_TRUE(out.has_split);   // 40,000 ties with different savings
  EXPECT_FALSE(out.has_swap);   // but income ~ savings
  EXPECT_TRUE(ListPartition::CheckOcd(income, savings));
}

class ListPartitionAgreementTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListPartitionAgreementTest, RefinementRanksMatchSorting) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 20, 4, 3);
  for (const AttributeList& list : EnumerateLists({0, 1, 2, 3}, 3)) {
    ListPartition p = BuildByRefinement(r, list);
    EXPECT_EQ(p.codes(), RanksBySorting(r, list)) << list.ToString();
  }
}

TEST_P(ListPartitionAgreementTest, ChecksMatchSortBasedChecker) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 300, 15, 4, 3);
  OrderChecker checker(r);
  std::vector<AttributeList> lists = EnumerateLists({0, 1, 2, 3}, 2);
  for (const AttributeList& x : lists) {
    for (const AttributeList& y : lists) {
      if (!x.DisjointWith(y)) continue;
      ListPartition px = BuildByRefinement(r, x);
      ListPartition py = BuildByRefinement(r, y);
      EXPECT_EQ(ListPartition::CheckOcd(px, py), checker.HoldsOcd(x, y))
          << x.ToString() << " ~ " << y.ToString();
      OdCheckOutcome part = ListPartition::CheckOd(px, py);
      OdCheckOutcome sort = checker.CheckOd(x, y, /*early_exit=*/false);
      EXPECT_EQ(part.has_split, sort.has_split);
      EXPECT_EQ(part.has_swap, sort.has_swap);
    }
  }
}

TEST_P(ListPartitionAgreementTest, DriverEquivalentWithAndWithoutPartitions) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 600, 25, 5, 3);
  OcdDiscoverOptions sort_only;
  sort_only.use_sorted_partitions = false;
  OcdDiscoverResult plain = DiscoverOcds(r, sort_only);
  EXPECT_EQ(plain.partition_cache_bytes, 0u);
  OcdDiscoverResult fast = DiscoverOcds(r);
  EXPECT_EQ(plain.ocds, fast.ocds);
  EXPECT_EQ(plain.ods, fast.ods);
  EXPECT_EQ(plain.num_checks, fast.num_checks);
  EXPECT_GT(fast.partition_cache_bytes, 0u);
}

TEST_P(ListPartitionAgreementTest, CacheBudgetFallsBackCorrectly) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 900, 25, 5, 3);
  OcdDiscoverOptions opts;
  opts.max_partition_cache_bytes = 512;  // only a handful of lists fit
  OcdDiscoverResult constrained = DiscoverOcds(r, opts);
  OcdDiscoverOptions sort_only;
  sort_only.use_sorted_partitions = false;
  OcdDiscoverResult plain = DiscoverOcds(r, sort_only);
  EXPECT_EQ(plain.ocds, constrained.ocds);
  EXPECT_EQ(plain.ods, constrained.ods);
  EXPECT_EQ(plain.num_checks, constrained.num_checks);
}

TEST_P(ListPartitionAgreementTest, RefinePathsAgreeOnRandomRelations) {
  // The three refinement paths — counting sort, comparison sort, and bucket
  // histogram — must produce bit-identical partitions on the QA generator's
  // adversarial shapes (ties, NULL blocks, duplicated rows, constant and
  // order-equivalent columns), and all must match the full-sort ground
  // truth. kAuto's correctness reduces to this equivalence.
  Rng rng(GetParam() * 7919 + 1);
  datagen::RandomRelationSpec spec;
  spec.min_rows = 8;
  spec.max_rows = 80;
  for (int round = 0; round < 8; ++round) {
    CodedRelation r =
        CodedRelation::Encode(datagen::MakeRandomRelation(rng, spec));
    ListPartition base = ListPartition::ForColumn(r, 0);
    AttributeList list{0};
    RefineScratch scratch;
    for (rel::ColumnId c = 1; c < r.num_columns(); ++c) {
      ListPartition counting =
          base.Refine(r, c, &scratch, RefinePath::kCounting);
      ListPartition comparison =
          base.Refine(r, c, &scratch, RefinePath::kComparison);
      ListPartition histogram =
          base.Refine(r, c, &scratch, RefinePath::kHistogram);
      list = list.WithAppended(c);
      EXPECT_EQ(counting.codes(), comparison.codes()) << list.ToString();
      EXPECT_EQ(counting.codes(), histogram.codes()) << list.ToString();
      EXPECT_EQ(counting.num_groups(), comparison.num_groups());
      EXPECT_EQ(counting.num_groups(), histogram.num_groups());
      EXPECT_EQ(counting.codes(), RanksBySorting(r, list)) << list.ToString();
      base = std::move(counting);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListPartitionAgreementTest,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ListPartitionTest, HeadRowsKeepsDenseRankInvariant) {
  // Regression: HeadRows must re-densify codes, or the partition backend's
  // counting buckets index out of bounds (heap corruption found via
  // bench_fig2_rows).
  CodedRelation full = testutil::RandomCodedTable(7, 200, 4, 150);
  CodedRelation head = full.HeadRows(37);
  for (std::size_t c = 0; c < head.num_columns(); ++c) {
    for (std::int32_t code : head.column(c).codes) {
      ASSERT_GE(code, 0);
      ASSERT_LT(code, head.column(c).num_distinct);
    }
  }
  // The partition driver must agree with the sort driver on the slice.
  OcdDiscoverResult fast = DiscoverOcds(head);
  OcdDiscoverOptions sort_only;
  sort_only.use_sorted_partitions = false;
  OcdDiscoverResult plain = DiscoverOcds(head, sort_only);
  EXPECT_EQ(fast.ocds, plain.ocds);
  EXPECT_EQ(fast.ods, plain.ods);
}

TEST(ListPartitionTest, ParallelPartitionDriverMatches) {
  CodedRelation r = testutil::RandomCodedTable(42, 40, 5, 3);
  OcdDiscoverOptions seq;
  OcdDiscoverOptions par = seq;
  par.num_threads = 4;
  OcdDiscoverResult a = DiscoverOcds(r, seq);
  OcdDiscoverResult b = DiscoverOcds(r, par);
  EXPECT_EQ(a.ocds, b.ocds);
  EXPECT_EQ(a.ods, b.ods);
}

TEST(ListPartitionTest, CacheIsChargedToTheRunMemoryBudget) {
  // DBTESMA's lists rarely share partitions, so its cache outgrows a
  // budget that still leaves room for the frontier.
  Result<rel::Relation> dbtesma = datagen::MakeDataset("DBTESMA", 2000, 42);
  ASSERT_TRUE(dbtesma.ok());
  CodedRelation r = CodedRelation::Encode(*dbtesma);
  OcdDiscoverResult unbudgeted = DiscoverOcds(r);
  constexpr std::size_t kBudget = 256u << 10;
  ASSERT_GT(unbudgeted.partition_cache_bytes, kBudget);

  // The cache fills what the budget allows and sorts the rest: the run
  // completes with the unbudgeted answer instead of stopping on memory.
  RunContext ctx;
  ctx.set_memory_budget(kBudget);
  OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  OcdDiscoverResult budgeted = DiscoverOcds(r, opts);
  EXPECT_TRUE(budgeted.completed) << StopReasonName(budgeted.stop_reason);
  EXPECT_GT(budgeted.partition_cache_bytes, 0u);
  EXPECT_LE(budgeted.partition_cache_bytes, kBudget);
  EXPECT_LE(ctx.peak_memory(), kBudget);
  EXPECT_EQ(budgeted.ocds, unbudgeted.ocds);
  EXPECT_EQ(budgeted.ods, unbudgeted.ods);
  EXPECT_EQ(budgeted.num_checks, unbudgeted.num_checks);
  // The charge is returned when the run ends.
  EXPECT_EQ(ctx.memory_used(), 0u);
}

}  // namespace
}  // namespace ocdd::core
