#include "core/polarized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "common/prof.h"
#include "core/checker.h"
#include "core/ocd_discover.h"
#include "core/partition_checker.h"
#include "datagen/generators.h"
#include "datagen/registry.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using rel::CodedRelation;
using testutil::CodedIntTable;

PolarizedList Asc(std::initializer_list<rel::ColumnId> cols) {
  PolarizedList out;
  for (rel::ColumnId c : cols) out.push_back({c, false});
  return out;
}

TEST(PolarizedTest, AugmentReversesCodes) {
  CodedRelation r = CodedIntTable({{10, 30, 20}});
  CodedRelation aug = AugmentWithReversedColumns(r);
  ASSERT_EQ(aug.num_columns(), 2u);
  EXPECT_EQ(aug.column(0).codes, (std::vector<std::int32_t>{0, 2, 1}));
  EXPECT_EQ(aug.column(1).codes, (std::vector<std::int32_t>{2, 0, 1}));
  EXPECT_EQ(aug.column_name(1), "A(desc)");
}

TEST(PolarizedTest, CompareRespectsDirections) {
  CodedRelation r = CodedIntTable({{1, 2}, {5, 3}});
  // A ascending: row0 < row1. A descending: row0 > row1.
  EXPECT_LT(CompareRowsOnPolarizedList(r, {{0, false}}, 0, 1), 0);
  EXPECT_GT(CompareRowsOnPolarizedList(r, {{0, true}}, 0, 1), 0);
  // (A+, B-): A decides first.
  EXPECT_LT(CompareRowsOnPolarizedList(r, {{0, false}, {1, true}}, 0, 1), 0);
}

TEST(PolarizedTest, BruteForceInverseOrderEquivalence) {
  // B = -A: A ascending orders B descending and vice versa.
  CodedRelation r = CodedIntTable({{1, 2, 3}, {9, 6, 3}});
  EXPECT_TRUE(BruteForceHoldsPolarizedOd(r, {{0, false}}, {{1, true}}));
  EXPECT_TRUE(BruteForceHoldsPolarizedOd(r, {{1, true}}, {{0, false}}));
  EXPECT_FALSE(BruteForceHoldsPolarizedOd(r, {{0, false}}, {{1, false}}));
}

TEST(PolarizedTest, DiscoveryFindsInversePair) {
  CodedRelation r = CodedIntTable({{1, 2, 3, 4}, {8, 7, 5, 1}, {2, 9, 4, 7}});
  PolarizedDiscoverResult result = DiscoverPolarizedOcds(r);
  // A+ ~ B- must be discovered along with the two polarized ODs.
  bool found_ocd = false;
  for (const PolarizedOcd& ocd : result.ocds) {
    if (ocd.lhs == PolarizedList{{0, false}} &&
        ocd.rhs == PolarizedList{{1, true}}) {
      found_ocd = true;
    }
  }
  EXPECT_TRUE(found_ocd);
  std::set<PolarizedOd> ods(result.ods.begin(), result.ods.end());
  EXPECT_TRUE(ods.count(PolarizedOd{{{0, false}}, {{1, true}}}));
  EXPECT_TRUE(ods.count(PolarizedOd{{{1, true}}, {{0, false}}}));
}

TEST(PolarizedTest, MirrorCanonicalHeadIsAscending) {
  CodedRelation r = testutil::RandomCodedTable(5, 12, 4, 3);
  PolarizedDiscoverResult result = DiscoverPolarizedOcds(r);
  for (const PolarizedOcd& ocd : result.ocds) {
    ASSERT_FALSE(ocd.lhs.empty());
    EXPECT_FALSE(ocd.lhs.front().descending) << ocd.ToString(r);
  }
}

TEST(PolarizedTest, ConstantColumnsAreSkipped) {
  CodedRelation r = CodedIntTable({{7, 7, 7}, {1, 2, 3}});
  PolarizedDiscoverResult result = DiscoverPolarizedOcds(r);
  for (const PolarizedOcd& ocd : result.ocds) {
    for (const PolarizedAttribute& a : ocd.lhs) EXPECT_NE(a.column, 0u);
    for (const PolarizedAttribute& a : ocd.rhs) EXPECT_NE(a.column, 0u);
  }
}

TEST(PolarizedTest, BudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(7, 20, 6, 2);
  PolarizedDiscoverOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  PolarizedDiscoverResult result = DiscoverPolarizedOcds(r, opts);
  EXPECT_FALSE(result.completed);
}

TEST(PolarizedTest, StopsReportTheirReasonAndLevel) {
  CodedRelation r = testutil::RandomCodedTable(7, 20, 6, 2);
  PolarizedDiscoverOptions opts;
  RunContext budget;
  budget.set_check_budget(2);
  opts.run_context = &budget;
  const PolarizedDiscoverResult stopped = DiscoverPolarizedOcds(r, opts);
  EXPECT_FALSE(stopped.completed);
  EXPECT_EQ(stopped.stop_reason, StopReason::kCheckBudget);
  EXPECT_EQ(stopped.stop_state.level, 2u);
  EXPECT_EQ(stopped.stop_state.frontier_size, stopped.candidates_generated);

  // LATTICE's co-monotone columns give the capped last level children: a
  // `level_cap` stop that reports the unbuilt level with no candidates.
  const CodedRelation lattice =
      CodedRelation::Encode(datagen::MakeLattice(100, 42));
  opts.run_context = nullptr;
  opts.max_level = 2;
  const PolarizedDiscoverResult capped = DiscoverPolarizedOcds(lattice, opts);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(capped.levels_completed, 2u);
  EXPECT_EQ(capped.stop_state.level, 3u);
  EXPECT_EQ(capped.stop_state.frontier_size, 0u);
}

TEST(PolarizedTest, ProfileTimesGeneration) {
  // The profile of a run, taken as bench_table6 takes it (reset before,
  // snapshot after), times polarized emission and generation.
  CodedRelation r = CodedRelation::Encode(datagen::MakeLattice(100, 42));
  const bool was_enabled = prof::Enabled();
  prof::SetEnabled(true);
  prof::Reset();
  DiscoverPolarizedOcds(r);
  std::uint64_t generate_calls = 0;
  for (const prof::PhaseStats& phase : prof::Snapshot().phases) {
    if (std::string(phase.name) == "generate") generate_calls = phase.calls;
  }
  prof::SetEnabled(was_enabled);
  EXPECT_GT(generate_calls, 0u);
}

TEST(PolarizedTest, MemoryBudgetCapsTheFrontier) {
  // The frontier is charged to the budget: a walk that outgrows it stops
  // with a partial result and returns every byte it charged.
  // LATTICE's co-monotone columns keep every level's frontier wide. At
  // 100 rows it has more than 50 distinct tuples, so the checks read every
  // row and the cache holds full-length vectors.
  CodedRelation r = CodedRelation::Encode(datagen::MakeLattice(100, 42));
  {
    RunContext ctx;
    ASSERT_EQ(PartitionChecker(AugmentWithReversedColumns(r), ctx,
                               kDefaultPartitionCacheBytes)
                  .checked_rows(),
              r.num_rows());
  }
  RunContext unbudgeted;
  PolarizedDiscoverOptions opts;
  opts.run_context = &unbudgeted;
  const PolarizedDiscoverResult full = DiscoverPolarizedOcds(r, opts);
  ASSERT_EQ(unbudgeted.stop_reason(), StopReason::kNone);
  EXPECT_EQ(unbudgeted.memory_used(), 0u);

  const std::size_t limit = unbudgeted.peak_memory() / 2;
  RunContext budget;
  budget.set_memory_budget(limit);
  opts.run_context = &budget;
  const PolarizedDiscoverResult capped = DiscoverPolarizedOcds(r, opts);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(budget.stop_reason(), StopReason::kMemoryBudget);
  EXPECT_GT(capped.num_checks, 0u);
  EXPECT_LT(capped.num_checks, full.num_checks);
  EXPECT_LE(budget.peak_memory(), limit);
  EXPECT_EQ(budget.memory_used(), 0u);
}

/// Polarized discovery as the sort-based `OrderChecker` sees it, with no
/// partition cache: the same level-by-level walk over r± (ascending lhs
/// head at level 2, children extend a side whose OD does not hold by an
/// unused base column in either direction, each candidate once per level,
/// level `max_level` checked without building its children),
/// every candidate checked by sorting and counted as the production walk
/// counts it (1 OCD check, 2 more at valid nodes).
PolarizedDiscoverResult SortPathReference(const CodedRelation& relation,
                                          std::size_t max_level) {
  using od::AttributeList;
  const std::size_t n = relation.num_columns();
  const CodedRelation augmented = AugmentWithReversedColumns(relation);
  const OrderChecker sorter(augmented);
  auto decode = [n](const AttributeList& list) {
    PolarizedList out;
    for (rel::ColumnId v : list.ids()) {
      out.push_back(v < n ? PolarizedAttribute{v, false}
                          : PolarizedAttribute{v - n, true});
    }
    return out;
  };
  auto uses = [n](const AttributeList& list, rel::ColumnId base) {
    for (rel::ColumnId v : list.ids()) {
      if ((v < n ? v : v - n) == base) return true;
    }
    return false;
  };
  std::vector<rel::ColumnId> active;
  for (rel::ColumnId c = 0; c < n; ++c) {
    if (!relation.column(c).is_constant()) active.push_back(c);
  }
  using Pair = std::pair<AttributeList, AttributeList>;
  std::vector<Pair> level;
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::size_t j = i + 1; j < active.size(); ++j) {
      for (rel::ColumnId v : {active[j], active[j] + n}) {
        level.push_back({AttributeList{active[i]}, AttributeList{v}});
      }
    }
  }
  PolarizedDiscoverResult result;
  result.candidates_generated = level.size();
  result.completed = true;
  for (std::size_t current = 2; !level.empty(); ++current) {
    std::vector<Pair> next;
    std::set<Pair> seen;
    auto add = [&](Pair child) {
      if (seen.insert(child).second) next.push_back(std::move(child));
    };
    for (const auto& [x, y] : level) {
      ++result.num_checks;
      if (!sorter.HoldsOcd(x, y)) continue;
      result.num_checks += 2;
      const bool od_xy = sorter.HoldsOd(x, y);
      const bool od_yx = sorter.HoldsOd(y, x);
      result.ocds.push_back({decode(x), decode(y)});
      if (od_xy) result.ods.push_back({decode(x), decode(y)});
      if (od_yx) result.ods.push_back({decode(y), decode(x)});
      for (rel::ColumnId base : active) {
        if (uses(x, base) || uses(y, base)) continue;
        for (rel::ColumnId v : {base, base + n}) {
          if (!od_xy) add({x.WithAppended(v), y});
          if (!od_yx) add({x, y.WithAppended(v)});
        }
      }
    }
    // The capped last level is checked but spawns nothing.
    if (current == max_level) {
      result.completed = next.empty();
      break;
    }
    result.candidates_generated += next.size();
    level = std::move(next);
  }
  std::sort(result.ocds.begin(), result.ocds.end());
  std::sort(result.ods.begin(), result.ods.end());
  return result;
}

TEST(PolarizedTest, EveryDatasetMatchesTheSortPath) {
  for (const datagen::DatasetSpec& spec : datagen::AllDatasets()) {
    Result<rel::Relation> data = datagen::MakeDataset(spec.name, 200, 42);
    ASSERT_TRUE(data.ok()) << spec.name;
    CodedRelation r = CodedRelation::Encode(*data);
    // FLIGHT_1K's 109 columns give level 3 over a million candidates.
    const std::size_t max_level = spec.num_columns > 100 ? 2 : 4;
    const PolarizedDiscoverResult reference = SortPathReference(r, max_level);
    SCOPED_TRACE(spec.name);
    PolarizedDiscoverOptions opts;
    opts.max_level = max_level;
    const PolarizedDiscoverResult run = DiscoverPolarizedOcds(r, opts);
    EXPECT_EQ(run.completed, reference.completed);
    EXPECT_EQ(run.ocds, reference.ocds);
    EXPECT_EQ(run.ods, reference.ods);
    EXPECT_EQ(run.num_checks, reference.num_checks);
    EXPECT_EQ(run.candidates_generated, reference.candidates_generated);
  }
}

TEST(PolarizedTest, NcvoterAgeBirthYearInverse) {
  CodedRelation voters =
      CodedRelation::Encode(datagen::MakeNcvoter(200, 11));
  auto age = [&] {
    for (rel::ColumnId c = 0; c < voters.num_columns(); ++c) {
      if (voters.column_name(c) == "age") return c;
    }
    return rel::ColumnId{0};
  }();
  auto birth = [&] {
    for (rel::ColumnId c = 0; c < voters.num_columns(); ++c) {
      if (voters.column_name(c) == "birth_year") return c;
    }
    return rel::ColumnId{0};
  }();
  // birth_year = 2008 − age: an inverse order equivalence only the
  // polarized machinery can express.
  EXPECT_TRUE(
      BruteForceHoldsPolarizedOd(voters, {{age, false}}, {{birth, true}}));
  EXPECT_TRUE(
      BruteForceHoldsPolarizedOd(voters, {{birth, true}}, {{age, false}}));
}

class PolarizedSoundnessTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PolarizedSoundnessTest, AllResultsHoldSemantically) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 10, 3, 3);
  PolarizedDiscoverResult result = DiscoverPolarizedOcds(r);
  ASSERT_TRUE(result.completed);
  for (const PolarizedOd& od : result.ods) {
    EXPECT_TRUE(BruteForceHoldsPolarizedOd(r, od.lhs, od.rhs))
        << od.ToString(r);
  }
  for (const PolarizedOcd& ocd : result.ocds) {
    PolarizedList xy = ocd.lhs;
    xy.insert(xy.end(), ocd.rhs.begin(), ocd.rhs.end());
    PolarizedList yx = ocd.rhs;
    yx.insert(yx.end(), ocd.lhs.begin(), ocd.lhs.end());
    EXPECT_TRUE(BruteForceHoldsPolarizedOd(r, xy, yx)) << ocd.ToString(r);
    EXPECT_TRUE(BruteForceHoldsPolarizedOd(r, yx, xy)) << ocd.ToString(r);
  }
}

TEST_P(PolarizedSoundnessTest, AscendingOnlyResultsCoverPlainDiscovery) {
  // Every unidirectional OCD found by the plain algorithm (without column
  // reduction) must appear among the polarized results as all-ascending.
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 50, 10, 3, 3);
  OcdDiscoverOptions plain_opts;
  plain_opts.apply_column_reduction = false;
  plain_opts.max_level = 4;
  OcdDiscoverResult plain = DiscoverOcds(r, plain_opts);

  PolarizedDiscoverResult polarized = DiscoverPolarizedOcds(r);
  std::set<PolarizedOcd> found(polarized.ocds.begin(), polarized.ocds.end());
  for (const auto& ocd : plain.ocds) {
    PolarizedOcd want{Asc(std::initializer_list<rel::ColumnId>{}),
                      Asc(std::initializer_list<rel::ColumnId>{})};
    for (std::size_t i = 0; i < ocd.lhs.size(); ++i) {
      want.lhs.push_back({ocd.lhs[i], false});
    }
    for (std::size_t i = 0; i < ocd.rhs.size(); ++i) {
      want.rhs.push_back({ocd.rhs[i], false});
    }
    bool present = found.count(want) > 0 ||
                   found.count(PolarizedOcd{want.rhs, want.lhs}) > 0;
    EXPECT_TRUE(present) << ocd.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolarizedSoundnessTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace ocdd::core
