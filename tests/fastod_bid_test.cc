#include "algo/fastod/fastod_bid.h"

#include <gtest/gtest.h>

#include <set>

#include "algo/fastod/fastod.h"
#include "datagen/generators.h"
#include "od/brute_force.h"
#include "od/dependency_set.h"
#include "test_util.h"

namespace ocdd::algo {
namespace {

using rel::CodedRelation;
using testutil::CodedIntTable;

/// Semantic check: within every context class, no pair with `left` strictly
/// increasing while `right` moves the forbidden way.
bool HoldsBid(const CodedRelation& r, const BidCanonicalOd& od) {
  if (od.kind == BidCanonicalOd::Kind::kConstancy) {
    return od::BruteForceHoldsFd(r, od.context, od.right);
  }
  bool anti = od.kind == BidCanonicalOd::Kind::kAntiConcordant;
  std::size_t m = r.num_rows();
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t q = 0; q < m; ++q) {
      bool same = true;
      for (rel::ColumnId c : od.context) {
        if (r.code(p, c) != r.code(q, c)) {
          same = false;
          break;
        }
      }
      if (!same) continue;
      if (r.code(p, od.left) >= r.code(q, od.left)) continue;
      std::int32_t bp = r.code(p, od.right);
      std::int32_t bq = r.code(q, od.right);
      if (!anti && bp > bq) return false;
      if (anti && bp < bq) return false;
    }
  }
  return true;
}

TEST(FastodBidTest, FindsAntiConcordantPair) {
  // B = 10 − A: perfectly anti-concordant.
  CodedRelation r = CodedIntTable({{1, 2, 3, 4}, {9, 8, 7, 6}});
  FastodBidResult result = DiscoverFastodBid(r);
  bool found = false;
  for (const BidCanonicalOd& od : result.ods) {
    if (od.kind == BidCanonicalOd::Kind::kAntiConcordant &&
        od.context.empty() && od.left == 0 && od.right == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(result.num_anti, 1u);
  // The concordant direction does not hold.
  EXPECT_EQ(result.num_concordant, 0u);
}

TEST(FastodBidTest, ConcordantSubsetMatchesUnidirectionalFastod) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CodedRelation r = testutil::RandomCodedTable(seed, 10, 4, 3);
    FastodBidResult bid = DiscoverFastodBid(r);
    FastodResult uni = DiscoverFastod(r);
    ASSERT_TRUE(bid.completed && uni.completed);

    std::vector<od::CanonicalOd> concordant;
    for (const BidCanonicalOd& od : bid.ods) {
      if (od.kind == BidCanonicalOd::Kind::kAntiConcordant) continue;
      od::CanonicalOd c;
      c.kind = od.kind == BidCanonicalOd::Kind::kConstancy
                   ? od::CanonicalOd::Kind::kConstancy
                   : od::CanonicalOd::Kind::kOrderCompatible;
      c.context = od.context;
      c.left = od.left;
      c.right = od.right;
      concordant.push_back(std::move(c));
    }
    od::SortUnique(concordant);
    EXPECT_EQ(concordant, uni.ods) << "seed " << seed;
  }
}

TEST(FastodBidTest, NcvoterAgeBirthYearAntiConcordant) {
  CodedRelation voters =
      CodedRelation::Encode(datagen::MakeNcvoter(200, 11));
  rel::ColumnId age = 0, birth = 0;
  for (rel::ColumnId c = 0; c < voters.num_columns(); ++c) {
    if (voters.column_name(c) == "age") age = c;
    if (voters.column_name(c) == "birth_year") birth = c;
  }
  FastodBidOptions opts;
  opts.max_level = 3;
  FastodBidResult result = DiscoverFastodBid(voters, opts);
  bool found = false;
  for (const BidCanonicalOd& od : result.ods) {
    if (od.kind == BidCanonicalOd::Kind::kAntiConcordant &&
        od.context.empty() &&
        ((od.left == age && od.right == birth) ||
         (od.left == birth && od.right == age))) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FastodBidTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(3, 30, 8, 2);
  FastodBidOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  FastodBidResult result = DiscoverFastodBid(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(FastodBidTest, MaxLevelCapStopsBeforeBuilding) {
  CodedRelation r = testutil::RandomCodedTable(3, 30, 8, 2);
  FastodBidOptions opts;
  opts.max_level = 3;
  FastodBidResult result = DiscoverFastodBid(r, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(result.stop_state.level, 4u);
  EXPECT_EQ(result.stop_state.frontier_size, 0u);
  for (const BidCanonicalOd& od : result.ods) {
    EXPECT_LE(od.context.size() +
                  (od.kind == BidCanonicalOd::Kind::kConstancy ? 1 : 2),
              3u);
  }
}

TEST(FastodBidTest, ToStringRendersPolarity) {
  CodedRelation r = CodedIntTable({{1}, {2}, {3}});
  BidCanonicalOd od;
  od.kind = BidCanonicalOd::Kind::kAntiConcordant;
  od.context = {2};
  od.left = 0;
  od.right = 1;
  EXPECT_EQ(od.ToString(r), "{C}: A+ ~ B-");
  od.kind = BidCanonicalOd::Kind::kConcordant;
  EXPECT_EQ(od.ToString(r), "{C}: A+ ~ B+");
  od.kind = BidCanonicalOd::Kind::kConstancy;
  EXPECT_EQ(od.ToString(r), "{C}: [] -> B");
}

class FastodBidSoundnessTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastodBidSoundnessTest, EverythingEmittedHolds) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 10, 4, 3);
  FastodBidResult result = DiscoverFastodBid(r);
  ASSERT_TRUE(result.completed);
  for (const BidCanonicalOd& od : result.ods) {
    EXPECT_TRUE(HoldsBid(r, od)) << od.ToString(r);
  }
}

TEST_P(FastodBidSoundnessTest, MinimalityOfEmittedCompatibilities) {
  // Nothing emitted at context K may already hold at a proper sub-context
  // (it would be implied); spot-check against the semantic validator.
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 77, 9, 4, 2);
  FastodBidResult result = DiscoverFastodBid(r);
  ASSERT_TRUE(result.completed);
  for (const BidCanonicalOd& od : result.ods) {
    if (od.kind == BidCanonicalOd::Kind::kConstancy) continue;
    for (std::size_t drop = 0; drop < od.context.size(); ++drop) {
      BidCanonicalOd smaller = od;
      smaller.context.erase(smaller.context.begin() +
                            static_cast<std::ptrdiff_t>(drop));
      EXPECT_FALSE(HoldsBid(r, smaller))
          << od.ToString(r) << " is implied by " << smaller.ToString(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastodBidSoundnessTest,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ocdd::algo
