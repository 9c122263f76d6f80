#include "algo/fd/tane.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/fixtures.h"
#include "od/dependency_set.h"
#include "od/brute_force.h"
#include "test_util.h"

namespace ocdd::algo {
namespace {

using od::FunctionalDependency;
using rel::CodedRelation;
using testutil::CodedIntTable;

/// Brute-force minimal FDs: X → A valid, no proper subset of X suffices,
/// A ∉ X. LHS sizes up to num_columns - 1.
std::vector<FunctionalDependency> BruteForceMinimalFds(
    const CodedRelation& r) {
  std::size_t n = r.num_columns();
  std::vector<FunctionalDependency> out;
  // Enumerate subsets as bitmasks.
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    std::vector<rel::ColumnId> lhs;
    for (std::size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) lhs.push_back(i);
    }
    for (rel::ColumnId a = 0; a < n; ++a) {
      if ((mask >> a) & 1) continue;
      if (!od::BruteForceHoldsFd(r, lhs, a)) continue;
      // Minimality: no proper subset of lhs determines a.
      bool minimal = true;
      for (std::size_t drop = 0; drop < lhs.size() && minimal; ++drop) {
        std::vector<rel::ColumnId> sub;
        for (std::size_t j = 0; j < lhs.size(); ++j) {
          if (j != drop) sub.push_back(lhs[j]);
        }
        if (od::BruteForceHoldsFd(r, sub, a)) minimal = false;
      }
      if (minimal) out.push_back(FunctionalDependency{lhs, a});
    }
  }
  od::SortUnique(out);
  return out;
}

TEST(TaneTest, SimpleKeyFds) {
  // A is a key: A → B and A → C minimal; B → C also holds.
  CodedRelation r = CodedIntTable({
      {1, 2, 3, 4},  // A unique
      {5, 5, 6, 6},  // B
      {7, 7, 8, 8},  // C  (B ↔ C functionally)
  });
  TaneResult result = DiscoverFds(r);
  std::set<FunctionalDependency> fds(result.fds.begin(), result.fds.end());
  EXPECT_TRUE(fds.count(FunctionalDependency{{0}, 1}));
  EXPECT_TRUE(fds.count(FunctionalDependency{{0}, 2}));
  EXPECT_TRUE(fds.count(FunctionalDependency{{1}, 2}));
  EXPECT_TRUE(fds.count(FunctionalDependency{{2}, 1}));
  EXPECT_TRUE(result.completed);
}

TEST(TaneTest, ConstantColumnGivesEmptyLhsFd) {
  CodedRelation r = CodedIntTable({{9, 9, 9}, {1, 2, 3}});
  TaneResult result = DiscoverFds(r);
  std::set<FunctionalDependency> fds(result.fds.begin(), result.fds.end());
  EXPECT_TRUE(fds.count(FunctionalDependency{{}, 0}));
  // With ∅ → A minimal, {B} → A must not also be reported.
  EXPECT_FALSE(fds.count(FunctionalDependency{{1}, 0}));
}

TEST(TaneTest, NoFdsOnAntiCorrelatedData) {
  // Two columns, every value distinct: both are keys → both directions.
  CodedRelation r = CodedIntTable({{1, 2, 3}, {6, 5, 4}});
  TaneResult result = DiscoverFds(r);
  EXPECT_EQ(result.fds.size(), 2u);
}

TEST(TaneTest, CompositeLhs) {
  // Neither A nor B alone determines C, but {A,B} does.
  CodedRelation r = CodedIntTable({
      {1, 1, 2, 2},  // A
      {3, 4, 3, 4},  // B
      {5, 6, 7, 8},  // C = f(A,B), injective
  });
  TaneResult result = DiscoverFds(r);
  std::set<FunctionalDependency> fds(result.fds.begin(), result.fds.end());
  EXPECT_TRUE(fds.count(FunctionalDependency{{0, 1}, 2}));
  EXPECT_FALSE(fds.count(FunctionalDependency{{0}, 2}));
  EXPECT_FALSE(fds.count(FunctionalDependency{{1}, 2}));
}

TEST(TaneTest, NoFixtureRegression) {
  // Table 6 reports exactly one FD for the NO dataset (B → A).
  CodedRelation no = CodedRelation::Encode(datagen::MakeNo());
  TaneResult result = DiscoverFds(no);
  ASSERT_EQ(result.fds.size(), 1u);
  EXPECT_EQ(result.fds[0], (FunctionalDependency{{1}, 0}));
}

TEST(TaneTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(21, 30, 8, 2);
  TaneOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  TaneResult result = DiscoverFds(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(TaneTest, MaxLhsSize) {
  CodedRelation r = testutil::RandomCodedTable(23, 16, 5, 2);
  TaneOptions opts;
  opts.max_level = 2;  // |X| <= 2: LHSs of at most one attribute
  TaneResult result = DiscoverFds(r, opts);
  for (const FunctionalDependency& fd : result.fds) {
    EXPECT_LE(fd.lhs.size(), 1u);
  }
  // The cap stops the walk as every set walk's does: level 3 is not built.
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(result.stop_state.level, 3u);
  EXPECT_EQ(result.stop_state.frontier_size, 0u);
}

class TaneAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaneAgreementTest, MatchesBruteForceMinimalFds) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 12, 4, 2);
  TaneResult result = DiscoverFds(r);
  ASSERT_TRUE(result.completed);
  std::vector<FunctionalDependency> truth = BruteForceMinimalFds(r);
  EXPECT_EQ(result.fds, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaneAgreementTest,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace ocdd::algo
