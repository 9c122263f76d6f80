#include "algo/ucc/ucc.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/fixtures.h"
#include "od/dependency_set.h"
#include "test_util.h"

namespace ocdd::algo {
namespace {

using rel::CodedRelation;
using testutil::CodedIntTable;

/// Exhaustive minimal-UCC enumeration over all column subsets.
std::vector<Ucc> BruteForceMinimalUccs(const CodedRelation& r) {
  std::size_t n = r.num_columns();
  std::size_t m = r.num_rows();
  auto unique = [&](std::uint64_t mask) {
    for (std::uint32_t p = 0; p < m; ++p) {
      for (std::uint32_t q = p + 1; q < m; ++q) {
        bool agree = true;
        for (std::size_t c = 0; c < n; ++c) {
          if (((mask >> c) & 1) && r.code(p, c) != r.code(q, c)) {
            agree = false;
            break;
          }
        }
        if (agree) return false;
      }
    }
    return true;
  };
  std::vector<Ucc> out;
  for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    if (!unique(mask)) continue;
    bool minimal = true;
    for (std::size_t c = 0; c < n && minimal; ++c) {
      if (((mask >> c) & 1) && unique(mask & ~(1ULL << c))) minimal = false;
    }
    if (!minimal) continue;
    Ucc ucc;
    for (std::size_t c = 0; c < n; ++c) {
      if ((mask >> c) & 1) ucc.columns.push_back(c);
    }
    out.push_back(std::move(ucc));
  }
  od::SortUnique(out);
  return out;
}

TEST(UccTest, SingleKeyColumn) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {5, 5, 6}});
  UccResult result = DiscoverUccs(r);
  ASSERT_EQ(result.uccs.size(), 1u);
  EXPECT_EQ(result.uccs[0].columns, (std::vector<rel::ColumnId>{0}));
  EXPECT_TRUE(result.completed);
}

TEST(UccTest, CompositeKey) {
  // Neither column is unique; together they are.
  CodedRelation r = CodedIntTable({{1, 1, 2, 2}, {3, 4, 3, 4}});
  UccResult result = DiscoverUccs(r);
  ASSERT_EQ(result.uccs.size(), 1u);
  EXPECT_EQ(result.uccs[0].columns, (std::vector<rel::ColumnId>{0, 1}));
}

TEST(UccTest, DuplicateRowsMeanNoUcc) {
  CodedRelation r = CodedIntTable({{1, 1}, {2, 2}});
  UccResult result = DiscoverUccs(r);
  EXPECT_TRUE(result.uccs.empty());
  EXPECT_TRUE(result.completed);
}

TEST(UccTest, SupersetOfKeyNotEmitted) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {4, 5, 6}});
  UccResult result = DiscoverUccs(r);
  // Both single columns are keys; {A,B} must not appear.
  ASSERT_EQ(result.uccs.size(), 2u);
  EXPECT_EQ(result.uccs[0].columns.size(), 1u);
  EXPECT_EQ(result.uccs[1].columns.size(), 1u);
}

TEST(UccTest, TaxInfoKeys) {
  CodedRelation tax = CodedRelation::Encode(datagen::MakeTaxInfo());
  UccResult result = DiscoverUccs(tax);
  // Only `name` is unique on Table 1: income 40,000, savings 6,500, tax
  // 6,000 all repeat and brackets repeat heavily.
  std::set<std::vector<rel::ColumnId>> keys;
  for (const Ucc& u : result.uccs) keys.insert(u.columns);
  EXPECT_TRUE(keys.count({0}));   // name
  EXPECT_FALSE(keys.count({1}));  // income
  EXPECT_FALSE(keys.count({2}));  // savings
  EXPECT_FALSE(keys.count({3}));  // bracket
  EXPECT_FALSE(keys.count({4}));  // tax
  // income ties are broken by savings: {income, savings} is a key.
  EXPECT_TRUE(keys.count({1, 2}));
}

TEST(UccTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(5, 40, 8, 2);
  UccOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  UccResult result = DiscoverUccs(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(UccTest, MaxSizeCap) {
  CodedRelation r = testutil::RandomCodedTable(6, 20, 5, 2);
  UccOptions opts;
  opts.max_level = 1;
  UccResult result = DiscoverUccs(r, opts);
  for (const Ucc& u : result.uccs) {
    EXPECT_EQ(u.columns.size(), 1u);
  }
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(result.stop_state.level, 2u);
  EXPECT_EQ(result.stop_state.frontier_size, 0u);
}

TEST(UccTest, RankKeyCandidatesPrefersDiverseColumns) {
  // Two keys: a diverse one (all distinct values) and a synthetic pair.
  CodedRelation r = CodedIntTable({
      {1, 2, 3, 4},  // A: key, high entropy
      {1, 1, 2, 2},  // B
      {3, 4, 3, 4},  // C  ({B,C} is a key)
  });
  UccResult result = DiscoverUccs(r);
  std::vector<Ucc> ranked = RankKeyCandidates(r, result);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].columns, (std::vector<rel::ColumnId>{0}));
}

class UccAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UccAgreementTest, MatchesBruteForceMinimalUccs) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 10, 4, 3);
  UccResult result = DiscoverUccs(r);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.uccs, BruteForceMinimalUccs(r));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UccAgreementTest,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace ocdd::algo
