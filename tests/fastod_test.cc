#include "algo/fastod/fastod.h"

#include <gtest/gtest.h>

#include <set>

#include "algo/fd/tane.h"
#include "od/dependency_set.h"
#include "datagen/fixtures.h"
#include "od/brute_force.h"
#include "test_util.h"

namespace ocdd::algo {
namespace {

using od::AttributeList;
using od::CanonicalOd;
using rel::CodedRelation;
using testutil::CodedIntTable;

/// Semantic check of a canonical OD against the definition:
///  * constancy `K: [] ↦ A`: within every group of rows agreeing on K, A is
///    constant — i.e. the FD K → A;
///  * compatibility `K: A ~ B`: within every K-group, no pair with A
///    strictly increasing and B strictly decreasing.
bool HoldsCanonical(const CodedRelation& r, const CanonicalOd& od) {
  if (od.kind == CanonicalOd::Kind::kConstancy) {
    return od::BruteForceHoldsFd(r, od.context, od.right);
  }
  std::size_t m = r.num_rows();
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t q = 0; q < m; ++q) {
      bool same_group = true;
      for (rel::ColumnId c : od.context) {
        if (r.code(p, c) != r.code(q, c)) {
          same_group = false;
          break;
        }
      }
      if (!same_group) continue;
      if (r.code(p, od.left) < r.code(q, od.left) &&
          r.code(p, od.right) > r.code(q, od.right)) {
        return false;
      }
    }
  }
  return true;
}

TEST(FastodTest, EmptyContextCompatibility) {
  CodedRelation r = CodedIntTable({{1, 2, 2, 3}, {4, 5, 6, 7}});
  FastodResult result = DiscoverFastod(r);
  bool found = false;
  for (const CanonicalOd& od : result.ods) {
    if (od.kind == CanonicalOd::Kind::kOrderCompatible &&
        od.context.empty() && od.left == 0 && od.right == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FastodTest, NumbersDatasetSoundness) {
  // §5.2.2: the original FASTOD binary reported spurious ODs on NUMBERS,
  // e.g. [B] → [AC]. A correct implementation must (a) not report anything
  // invalid, and (b) the checker must reject [B] → [AC] outright.
  CodedRelation numbers = CodedRelation::Encode(datagen::MakeNumbers());
  EXPECT_FALSE(od::BruteForceHoldsOd(numbers, AttributeList{1},
                                     AttributeList{0, 2}));
  FastodResult result = DiscoverFastod(numbers);
  ASSERT_TRUE(result.completed);
  for (const CanonicalOd& od : result.ods) {
    EXPECT_TRUE(HoldsCanonical(numbers, od)) << od.ToString();
  }
}

TEST(FastodTest, ConstancyPartMatchesTane) {
  // FASTOD's constancy ODs are exactly the minimal FDs TANE finds.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    CodedRelation r = testutil::RandomCodedTable(seed, 14, 4, 2);
    FastodResult fast = DiscoverFastod(r);
    TaneResult tane = DiscoverFds(r);
    ASSERT_TRUE(fast.completed);
    ASSERT_TRUE(tane.completed);
    std::set<od::FunctionalDependency> fast_fds;
    for (const CanonicalOd& od : fast.ods) {
      if (od.kind == CanonicalOd::Kind::kConstancy) {
        fast_fds.insert(od::FunctionalDependency{od.context, od.right});
      }
    }
    std::set<od::FunctionalDependency> tane_fds(tane.fds.begin(),
                                                tane.fds.end());
    EXPECT_EQ(fast_fds, tane_fds) << "seed " << seed;
    EXPECT_EQ(fast.num_constancy + fast.num_compatible, fast.ods.size());
  }
}

TEST(FastodTest, SwapCandidateValidInSubContextIsNotReemitted) {
  // A ~ B holds with empty context: no context-{C} version may be emitted
  // (it would be redundant).
  CodedRelation r = CodedIntTable({
      {1, 2, 3, 4},  // A
      {1, 2, 2, 3},  // B (compatible with A)
      {9, 8, 7, 6},  // C
  });
  FastodResult result = DiscoverFastod(r);
  for (const CanonicalOd& od : result.ods) {
    if (od.kind != CanonicalOd::Kind::kOrderCompatible) continue;
    if (od.left == 0 && od.right == 1) {
      EXPECT_TRUE(od.context.empty()) << od.ToString();
    }
  }
}

TEST(FastodTest, TrivialCompatibilityFromConstancyIsNotEmitted) {
  // B is constant: every A ~ B is implied by ∅ → B and must not appear.
  CodedRelation r = CodedIntTable({{1, 2, 3}, {5, 5, 5}});
  FastodResult result = DiscoverFastod(r);
  for (const CanonicalOd& od : result.ods) {
    EXPECT_EQ(od.kind, CanonicalOd::Kind::kConstancy) << od.ToString();
  }
}

TEST(FastodTest, ContextedCompatibilityDiscovered) {
  // A ~ B fails globally (swap across C-groups) but holds within each
  // C-group: expect {C}: A ~ B.
  CodedRelation r = CodedIntTable({
      {1, 2, 3, 4},  // A
      {5, 6, 2, 3},  // B: swaps vs A across groups, compatible within
      {0, 0, 1, 1},  // C
  });
  FastodResult result = DiscoverFastod(r);
  bool found = false;
  for (const CanonicalOd& od : result.ods) {
    if (od.kind == CanonicalOd::Kind::kOrderCompatible &&
        od.context == std::vector<rel::ColumnId>{2} && od.left == 0 &&
        od.right == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // And the global pair must not be there.
  for (const CanonicalOd& od : result.ods) {
    if (od.kind == CanonicalOd::Kind::kOrderCompatible && od.context.empty()) {
      EXPECT_FALSE(od.left == 0 && od.right == 1);
    }
  }
}

TEST(FastodTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(31, 30, 8, 2);
  FastodOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  FastodResult result = DiscoverFastod(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(FastodTest, MaxLevelCapStopsBeforeBuilding) {
  CodedRelation r = testutil::RandomCodedTable(31, 30, 8, 2);
  FastodOptions opts;
  opts.max_level = 2;
  FastodResult capped = DiscoverFastod(r, opts);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(capped.stop_state.level, 3u);
  EXPECT_EQ(capped.stop_state.frontier_size, 0u);
  // Levels 1 and 2 are checked in full: the capped output is the
  // uncapped one restricted to |X| <= 2.
  std::vector<CanonicalOd> expected;
  for (const CanonicalOd& od : DiscoverFastod(r).ods) {
    const std::size_t x = od.context.size() +
        (od.kind == CanonicalOd::Kind::kConstancy ? 1 : 2);
    if (x <= 2) expected.push_back(od);
  }
  EXPECT_EQ(capped.ods, expected);
}

TEST(FastodTest, MaxLevelWithNothingAboveCompletes) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {3, 1, 2}});
  FastodOptions opts;
  opts.max_level = 2;  // the whole lattice
  FastodResult result = DiscoverFastod(r, opts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kNone);
}

class FastodSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastodSoundnessTest, AllEmittedCanonicalOdsHold) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 10, 4, 3);
  FastodResult result = DiscoverFastod(r);
  ASSERT_TRUE(result.completed);
  for (const CanonicalOd& od : result.ods) {
    EXPECT_TRUE(HoldsCanonical(r, od)) << od.ToString();
  }
}

TEST_P(FastodSoundnessTest, EmptyContextCompatibilityMatchesOcdChecker) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 700, 10, 3, 3);
  FastodResult result = DiscoverFastod(r);
  ASSERT_TRUE(result.completed);
  // Every ∅-context A ~ B emitted by FASTOD must be a brute-force OCD and
  // vice versa, except pairs trivialized by a constant/FD.
  for (const CanonicalOd& od : result.ods) {
    if (od.kind != CanonicalOd::Kind::kOrderCompatible) continue;
    if (!od.context.empty()) continue;
    EXPECT_TRUE(od::BruteForceHoldsOcd(r, AttributeList{od.left},
                                       AttributeList{od.right}))
        << od.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastodSoundnessTest,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Completeness: enumerate every *minimal* canonical OD by brute force and
// require FASTOD to emit exactly that set.
// ---------------------------------------------------------------------------

namespace completeness {

std::vector<rel::ColumnId> MaskToVec(std::uint64_t mask, std::size_t n) {
  std::vector<rel::ColumnId> out;
  for (std::size_t i = 0; i < n; ++i) {
    if ((mask >> i) & 1) out.push_back(i);
  }
  return out;
}

/// All minimal canonical ODs of a small relation:
///  * constancy `K: [] ↦ A` — the FD K → A holds and no proper subset of K
///    determines A;
///  * compatibility `K: A ~ B` — no swap within any K-class, a swap exists
///    within some class of every proper subset of K, and neither K → A nor
///    K → B holds (otherwise the constancy OD implies it).
std::vector<CanonicalOd> BruteForceMinimalCanonical(const CodedRelation& r) {
  std::size_t n = r.num_columns();
  std::vector<CanonicalOd> out;

  auto swap_free_in_context = [&](std::uint64_t context, std::size_t a,
                                  std::size_t b) {
    std::size_t m = r.num_rows();
    for (std::uint32_t p = 0; p < m; ++p) {
      for (std::uint32_t q = 0; q < m; ++q) {
        bool same = true;
        for (std::size_t c = 0; c < n; ++c) {
          if (((context >> c) & 1) && r.code(p, c) != r.code(q, c)) {
            same = false;
            break;
          }
        }
        if (!same) continue;
        if (r.code(p, a) < r.code(q, a) && r.code(p, b) > r.code(q, b)) {
          return false;
        }
      }
    }
    return true;
  };

  for (std::uint64_t ctx = 0; ctx < (1ULL << n); ++ctx) {
    std::vector<rel::ColumnId> context = MaskToVec(ctx, n);
    // Constancy candidates.
    for (std::size_t a = 0; a < n; ++a) {
      if ((ctx >> a) & 1) continue;
      if (!od::BruteForceHoldsFd(r, context, a)) continue;
      bool minimal = true;
      for (std::size_t drop = 0; drop < n && minimal; ++drop) {
        if (!((ctx >> drop) & 1)) continue;
        if (od::BruteForceHoldsFd(r, MaskToVec(ctx & ~(1ULL << drop), n),
                                  a)) {
          minimal = false;
        }
      }
      if (minimal) {
        CanonicalOd od;
        od.kind = CanonicalOd::Kind::kConstancy;
        od.context = context;
        od.right = a;
        out.push_back(std::move(od));
      }
    }
    // Compatibility candidates.
    for (std::size_t a = 0; a < n; ++a) {
      if ((ctx >> a) & 1) continue;
      for (std::size_t b = a + 1; b < n; ++b) {
        if ((ctx >> b) & 1) continue;
        if (!swap_free_in_context(ctx, a, b)) continue;
        // Trivial via constancy?
        if (od::BruteForceHoldsFd(r, context, a) ||
            od::BruteForceHoldsFd(r, context, b)) {
          continue;
        }
        bool minimal = true;
        for (std::size_t drop = 0; drop < n && minimal; ++drop) {
          if (!((ctx >> drop) & 1)) continue;
          if (swap_free_in_context(ctx & ~(1ULL << drop), a, b)) {
            minimal = false;
          }
        }
        if (minimal) {
          CanonicalOd od;
          od.kind = CanonicalOd::Kind::kOrderCompatible;
          od.context = context;
          od.left = a;
          od.right = b;
          out.push_back(std::move(od));
        }
      }
    }
  }
  od::SortUnique(out);
  return out;
}

}  // namespace completeness

class FastodCompletenessTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastodCompletenessTest, EmitsExactlyTheMinimalCanonicalOds) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 9, 4, 3);
  FastodResult result = DiscoverFastod(r);
  ASSERT_TRUE(result.completed);
  std::vector<CanonicalOd> truth =
      completeness::BruteForceMinimalCanonical(r);
  EXPECT_EQ(result.ods, truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastodCompletenessTest,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace ocdd::algo
