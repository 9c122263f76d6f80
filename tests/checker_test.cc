#include "core/checker.h"

#include <gtest/gtest.h>

#include "core/partition_checker.h"
#include "datagen/fixtures.h"
#include "od/brute_force.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using od::BruteForceHoldsOcd;
using od::BruteForceHoldsOd;
using od::EnumerateLists;
using rel::CodedRelation;
using testutil::CodedIntTable;

TEST(OrderCheckerTest, ValidOd) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {10, 20, 30}});
  OrderChecker checker(r);
  EXPECT_TRUE(checker.HoldsOd(AttributeList{0}, AttributeList{1}));
  EXPECT_TRUE(checker.HoldsOd(AttributeList{1}, AttributeList{0}));
}

TEST(OrderCheckerTest, SplitDetection) {
  CodedRelation r = CodedIntTable({{1, 1, 2}, {1, 2, 3}});
  OrderChecker checker(r);
  OdCheckOutcome out = checker.CheckOd(AttributeList{0}, AttributeList{1},
                                       /*early_exit=*/false);
  EXPECT_TRUE(out.has_split);
  EXPECT_FALSE(out.has_swap);
  EXPECT_FALSE(out.valid());
}

TEST(OrderCheckerTest, SwapDetection) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {1, 3, 2}});
  OrderChecker checker(r);
  OdCheckOutcome out = checker.CheckOd(AttributeList{0}, AttributeList{1},
                                       /*early_exit=*/false);
  EXPECT_FALSE(out.has_split);
  EXPECT_TRUE(out.has_swap);
}

TEST(OrderCheckerTest, SplitAndSwapTogether) {
  // Rows: (1,5) (1,6) swap-free split on A=1; (2,3) swaps against both.
  CodedRelation r = CodedIntTable({{1, 1, 2}, {5, 6, 3}});
  OrderChecker checker(r);
  OdCheckOutcome out = checker.CheckOd(AttributeList{0}, AttributeList{1},
                                       /*early_exit=*/false);
  EXPECT_TRUE(out.has_split);
  EXPECT_TRUE(out.has_swap);
}

TEST(OrderCheckerTest, SwapHiddenBehindTieIsStillFound) {
  // Sorting by A only could order A=1 rows as B: 5 then 3, hiding the swap
  // between B=5 and the later B=4. The checker's group-max scan must see it.
  CodedRelation r = CodedIntTable({{1, 1, 2}, {3, 5, 4}});
  OrderChecker checker(r);
  OdCheckOutcome out = checker.CheckOd(AttributeList{0}, AttributeList{1},
                                       /*early_exit=*/false);
  EXPECT_TRUE(out.has_split);  // A=1 rows differ on B
  EXPECT_TRUE(out.has_swap);   // (1,5) vs (2,4)
}

TEST(OrderCheckerTest, EmptyAndSingleRowRelationsAreTriviallyValid) {
  CodedRelation single = CodedIntTable({{42}, {7}});
  OrderChecker checker(single);
  EXPECT_TRUE(checker.HoldsOd(AttributeList{0}, AttributeList{1}));
  EXPECT_TRUE(checker.HoldsOcd(AttributeList{0}, AttributeList{1}));
}

TEST(OrderCheckerTest, OcdSingleCheckOnFixtures) {
  CodedRelation yes = CodedRelation::Encode(datagen::MakeYes());
  OrderChecker cy(yes);
  EXPECT_TRUE(cy.HoldsOcd(AttributeList{0}, AttributeList{1}));

  CodedRelation no = CodedRelation::Encode(datagen::MakeNo());
  OrderChecker cn(no);
  EXPECT_FALSE(cn.HoldsOcd(AttributeList{0}, AttributeList{1}));
}

TEST(PartitionCheckerTest, CountsChecksIdenticallyOnBothPaths) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {1, 2, 3}, {3, 2, 1}});
  // The default cache, then a one-byte cache that makes every check sort.
  for (std::size_t cache_bytes : {kDefaultPartitionCacheBytes,
                                  std::size_t{1}}) {
    SCOPED_TRACE(cache_bytes);
    RunContext ctx;
    {
      PartitionChecker checker(r, ctx, cache_bytes);
      ListTable& lists = checker.lists();
      const std::vector<Candidate> level = {
          {lists.Intern(AttributeList{0}), lists.Intern(AttributeList{1})},
          {lists.Intern(AttributeList{0}), lists.Intern(AttributeList{2})}};
      const auto slots = checker.Prepare(level, nullptr);
      EXPECT_EQ(checker.cache_bytes() > 0, cache_bytes > 1);
      EXPECT_EQ(ctx.memory_used(),
                checker.cache_bytes() + lists.charged_bytes());
      CandidateOutcome ab =
          checker.CheckOcdAndOds(level[0].x, level[0].y, slots[0]);
      EXPECT_TRUE(ab.ocd_valid && ab.od_xy && ab.od_yx);
      CandidateOutcome ac =
          checker.CheckOcdAndOds(level[1].x, level[1].y, slots[1]);
      EXPECT_FALSE(ac.ocd_valid);
      EXPECT_TRUE(checker.CheckOd(level[1].x, level[1].y).has_swap);
      // 3 at the valid node, 1 at the invalid one, 1 OD check.
      EXPECT_EQ(checker.num_checks(), 5u);
      EXPECT_EQ(ctx.checks(), 5u);
    }
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Property tests: the production checker must agree with the brute-force
// semantic definitions on every candidate over random small relations.
// ---------------------------------------------------------------------------

class CheckerAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerAgreementTest, OdAgreesWithDefinition) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 12, 4, 3);
  OrderChecker checker(r);
  std::vector<AttributeList> lists = EnumerateLists({0, 1, 2, 3}, 2);
  for (const AttributeList& lhs : lists) {
    for (const AttributeList& rhs : lists) {
      EXPECT_EQ(checker.HoldsOd(lhs, rhs), BruteForceHoldsOd(r, lhs, rhs))
          << lhs.ToString() << " -> " << rhs.ToString();
    }
  }
}

TEST_P(CheckerAgreementTest, OcdAgreesWithDefinition) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 1000, 10, 4, 3);
  OrderChecker checker(r);
  std::vector<AttributeList> lists = EnumerateLists({0, 1, 2, 3}, 2);
  for (const AttributeList& x : lists) {
    for (const AttributeList& y : lists) {
      if (!x.DisjointWith(y)) continue;
      EXPECT_EQ(checker.HoldsOcd(x, y), BruteForceHoldsOcd(r, x, y))
          << x.ToString() << " ~ " << y.ToString();
    }
  }
}

TEST_P(CheckerAgreementTest, Theorem41SingleCheckEqualsBothDirections) {
  // X ~ Y iff XY → YX iff (XY → YX and YX → XY).
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 2000, 10, 3, 3);
  OrderChecker checker(r);
  std::vector<AttributeList> lists = EnumerateLists({0, 1, 2}, 2);
  for (const AttributeList& x : lists) {
    for (const AttributeList& y : lists) {
      if (!x.DisjointWith(y)) continue;
      AttributeList xy = x.Concat(y);
      AttributeList yx = y.Concat(x);
      bool single = checker.HoldsOcd(x, y);
      bool both = checker.HoldsOd(xy, yx) && checker.HoldsOd(yx, xy);
      bool one = checker.HoldsOd(xy, yx);
      EXPECT_EQ(single, both);
      EXPECT_EQ(single, one);  // the Theorem 4.1 reduction itself
    }
  }
}

TEST_P(CheckerAgreementTest, OdImpliesOcdAndSplitSwapDichotomy) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 3000, 10, 3, 3);
  OrderChecker checker(r);
  std::vector<AttributeList> lists = EnumerateLists({0, 1, 2}, 2);
  for (const AttributeList& x : lists) {
    for (const AttributeList& y : lists) {
      if (!x.DisjointWith(y)) continue;
      OdCheckOutcome out = checker.CheckOd(x, y, /*early_exit=*/false);
      if (out.valid()) {
        // An OD implies the OCD between the same lists.
        EXPECT_TRUE(checker.HoldsOcd(x, y));
      }
      // The outcome is exactly the split/swap dichotomy: invalid iff at
      // least one of the two witnesses exists.
      EXPECT_EQ(!out.valid(), out.has_split || out.has_swap);
      // No swap in the outcome must match order compatibility of x vs y
      // *after grouping by x*... swaps found by CheckOd are genuine OCD
      // violations of the concatenated lists.
      if (out.has_swap) {
        EXPECT_FALSE(checker.HoldsOcd(x, y));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerAgreementTest,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace ocdd::core
