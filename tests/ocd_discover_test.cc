#include "core/ocd_discover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "algo/order/order_discover.h"
#include "core/polarized.h"
#include "datagen/fixtures.h"
#include "datagen/registry.h"
#include "od/brute_force.h"
#include "od/dependency_set.h"
#include "od/inference.h"
#include "relation/csv.h"
#include "test_util.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using od::OrderCompatibility;
using od::OrderDependency;
using rel::CodedRelation;
using testutil::CodedIntTable;

TEST(OcdDiscoverTest, YesDatasetFindsTheOcd) {
  CodedRelation yes = CodedRelation::Encode(datagen::MakeYes());
  OcdDiscoverResult result = DiscoverOcds(yes);
  ASSERT_EQ(result.ocds.size(), 1u);
  EXPECT_EQ(result.ocds[0].lhs, AttributeList{0});
  EXPECT_EQ(result.ocds[0].rhs, AttributeList{1});
  // Neither direction is a full OD.
  EXPECT_TRUE(result.ods.empty());
  EXPECT_TRUE(result.completed);
}

TEST(OcdDiscoverTest, NoDatasetFindsNothing) {
  CodedRelation no = CodedRelation::Encode(datagen::MakeNo());
  OcdDiscoverResult result = DiscoverOcds(no);
  EXPECT_TRUE(result.ocds.empty());
  EXPECT_TRUE(result.ods.empty());
}

TEST(OcdDiscoverTest, TaxInfoMotivatingExample) {
  CodedRelation tax = CodedRelation::Encode(datagen::MakeTaxInfo());
  // income (1) ↔ tax (4) are order-equivalent, so column reduction merges
  // them; income → bracket (3) becomes an emitted OD.
  OcdDiscoverResult result = DiscoverOcds(tax);
  ASSERT_EQ(result.reduction.equivalence_classes.size(), 1u);
  EXPECT_EQ(result.reduction.equivalence_classes[0],
            (std::vector<rel::ColumnId>{1, 4}));
  bool found_income_orders_bracket = false;
  for (const OrderDependency& od : result.ods) {
    if (od.lhs == AttributeList{1} && od.rhs == AttributeList{3}) {
      found_income_orders_bracket = true;
    }
  }
  EXPECT_TRUE(found_income_orders_bracket);
  // income ~ savings must be among the discovered OCDs.
  bool found_income_savings = false;
  for (const OrderCompatibility& ocd : result.ocds) {
    if (ocd.lhs == AttributeList{1} && ocd.rhs == AttributeList{2}) {
      found_income_savings = true;
    }
  }
  EXPECT_TRUE(found_income_savings);
}

TEST(OcdDiscoverTest, ConstantColumnsReportedNotSearched) {
  CodedRelation r = CodedIntTable({{5, 5, 5}, {1, 2, 3}, {3, 1, 2}});
  OcdDiscoverResult result = DiscoverOcds(r);
  EXPECT_EQ(result.reduction.constant_columns,
            (std::vector<rel::ColumnId>{0}));
  for (const OrderCompatibility& ocd : result.ocds) {
    EXPECT_FALSE(ocd.lhs.Contains(0));
    EXPECT_FALSE(ocd.rhs.Contains(0));
  }
}

TEST(OcdDiscoverTest, EmittedOdsAreValidOcdPairs) {
  CodedRelation r = testutil::RandomCodedTable(77, 14, 4, 3);
  OcdDiscoverResult result = DiscoverOcds(r);
  for (const OrderDependency& od : result.ods) {
    EXPECT_TRUE(od::BruteForceHoldsOd(r, od.lhs, od.rhs)) << od.ToString();
  }
  for (const OrderCompatibility& ocd : result.ocds) {
    EXPECT_TRUE(od::BruteForceHoldsOcd(r, ocd.lhs, ocd.rhs))
        << ocd.ToString();
  }
}

TEST(OcdDiscoverTest, MaxChecksBudgetStopsEarly) {
  CodedRelation r = testutil::RandomCodedTable(5, 20, 6, 2);
  OcdDiscoverOptions opts;
  RunContext budget;
  budget.set_check_budget(3);
  opts.run_context = &budget;
  OcdDiscoverResult result = DiscoverOcds(r, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_LE(result.num_checks, 6u);  // a few in-flight checks may finish
}

TEST(OcdDiscoverTest, MaxLevelCap) {
  CodedRelation r = testutil::RandomCodedTable(6, 10, 5, 2);
  OcdDiscoverOptions opts;
  opts.max_level = 2;
  OcdDiscoverResult result = DiscoverOcds(r, opts);
  for (const OrderCompatibility& ocd : result.ocds) {
    EXPECT_LE(ocd.lhs.size() + ocd.rhs.size(), 2u);
  }
}

TEST(OcdDiscoverTest, LevelCapStopsExactlyWhenAChildWouldExist) {
  CodedRelation r = testutil::RandomCodedTable(1, 6, 5, 2);
  const OcdDiscoverResult full = DiscoverOcds(r);
  ASSERT_TRUE(full.completed);
  ASSERT_GE(full.levels_completed, 4u);

  // Capping at the deepest level the walk reaches changes nothing.
  OcdDiscoverOptions at_end;
  at_end.max_level = full.levels_completed;
  const OcdDiscoverResult same = DiscoverOcds(r, at_end);
  EXPECT_TRUE(same.completed);
  EXPECT_EQ(same.ocds, full.ocds);
  EXPECT_EQ(same.ods, full.ods);
  EXPECT_EQ(same.candidates_generated, full.candidates_generated);

  // One level less: the last level is checked and emitted, builds nothing.
  OcdDiscoverOptions below;
  below.max_level = full.levels_completed - 1;
  const OcdDiscoverResult capped = DiscoverOcds(r, below);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(capped.levels_completed, below.max_level);
  EXPECT_EQ(capped.stop_state.frontier_size, 0u);
  std::vector<OrderCompatibility> shallow;
  for (const OrderCompatibility& ocd : full.ocds) {
    if (ocd.lhs.size() + ocd.rhs.size() <= below.max_level) {
      shallow.push_back(ocd);
    }
  }
  EXPECT_EQ(capped.ocds, shallow);
}

TEST(OcdDiscoverTest, CappedFlightWalkEmitsItsWholeLastLevel) {
  // FLIGHT_1K's level 3 has more children than the per-level candidate
  // cap. The cap must stop the walk exactly as `max_level = 3` does: level
  // 3 emitted in full, and level 4 never built.
  auto data = datagen::MakeDataset("FLIGHT_1K", 1000, 42);
  ASSERT_TRUE(data.ok());
  const CodedRelation r = CodedRelation::Encode(*data);
  OcdDiscoverOptions at_three;
  at_three.max_level = 3;
  const OcdDiscoverResult capped = DiscoverOcds(r, at_three);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(capped.num_checks, 196'952u);
  EXPECT_EQ(capped.ocds.size(), 43'187u);
  EXPECT_EQ(capped.ods.size(), 2'416u);
  EXPECT_EQ(capped.stop_state.frontier_size, 0u);

  const OcdDiscoverResult tripped = DiscoverOcds(r);
  EXPECT_FALSE(tripped.completed);
  EXPECT_EQ(tripped.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(tripped.num_checks, capped.num_checks);
  EXPECT_EQ(tripped.ocds, capped.ocds);
  EXPECT_EQ(tripped.ods, capped.ods);
  EXPECT_EQ(tripped.candidates_generated, capped.candidates_generated);
  EXPECT_EQ(tripped.levels_completed, 3u);
  EXPECT_EQ(capped.levels_completed, 3u);
  EXPECT_EQ(tripped.stop_state.level, 4u);
  EXPECT_EQ(capped.stop_state.level, 4u);
  EXPECT_EQ(tripped.stop_state.frontier_size, 0u);
}

TEST(OcdDiscoverTest, ChecksAreCounted) {
  CodedRelation r = CodedIntTable({{1, 2, 3}, {3, 2, 1}, {1, 3, 2}});
  OcdDiscoverResult result = DiscoverOcds(r);
  // Level 2 has 3 candidate pairs → at least 3 OCD checks.
  EXPECT_GE(result.num_checks, 3u);
  EXPECT_GE(result.candidates_generated, 3u);
}

/// What a list walk reports that must not depend on its thread count:
/// its claims, rendered, and its counters.
struct WalkReport {
  std::vector<std::string> claims;
  std::uint64_t num_checks = 0;
  std::uint64_t candidates_generated = 0;
  StopReason stop_reason = StopReason::kNone;
  StopState stop_state;
};

template <typename Result>
WalkReport Report(const Result& result, std::vector<std::string> claims) {
  WalkReport report;
  report.claims = std::move(claims);
  report.num_checks = result.num_checks;
  report.candidates_generated = result.candidates_generated;
  report.stop_reason = result.stop_reason;
  report.stop_state = result.stop_state;
  return report;
}

template <typename Items>
void Render(const Items& items, const CodedRelation& r,
            std::vector<std::string>& out) {
  for (const auto& item : items) out.push_back(item.ToString(r));
}

/// The three list walks at `threads` threads, `max_level` 0 = their default.
WalkReport RunOcd(const CodedRelation& r, std::size_t threads,
                  std::size_t max_level) {
  OcdDiscoverOptions opts;
  opts.num_threads = threads;
  opts.max_level = max_level;
  const OcdDiscoverResult result = DiscoverOcds(r, opts);
  std::vector<std::string> claims;
  Render(result.ocds, r, claims);
  Render(result.ods, r, claims);
  return Report(result, std::move(claims));
}

WalkReport RunOrder(const CodedRelation& r, std::size_t threads,
                    std::size_t max_level) {
  algo::OrderDiscoverOptions opts;
  opts.num_threads = threads;
  opts.max_level = max_level;
  const algo::OrderDiscoverResult result =
      algo::DiscoverOrderDependencies(r, opts);
  std::vector<std::string> claims;
  Render(result.ods, r, claims);
  return Report(result, std::move(claims));
}

WalkReport RunPolarized(const CodedRelation& r, std::size_t threads,
                        std::size_t max_level) {
  PolarizedDiscoverOptions opts;
  opts.num_threads = threads;
  if (max_level != 0) opts.max_level = max_level;
  const PolarizedDiscoverResult result = DiscoverPolarizedOcds(r, opts);
  std::vector<std::string> claims;
  Render(result.ocds, r, claims);
  Render(result.ods, r, claims);
  return Report(result, std::move(claims));
}

TEST(OcdDiscoverTest, ThreadCountChangesNoCountOrClaim) {
  // Checks, and the children of every checked candidate, run on the pool;
  // claims are kept by id and children interned in level order, so no
  // claim, count, list id or stop may depend on how many workers ran.
  const struct {
    const char* walk;
    WalkReport (*run)(const CodedRelation&, std::size_t, std::size_t);
    const char* dataset;
    std::size_t max_level;
    StopReason stop;
  } kRuns[] = {
      {"ocddiscover", &RunOcd, "LATTICE", 0, StopReason::kNone},
      {"ocddiscover", &RunOcd, "DBTESMA", 0, StopReason::kNone},
      {"ocddiscover", &RunOcd, "LATTICE", 4, StopReason::kLevelCap},
      {"order", &RunOrder, "LATTICE", 0, StopReason::kNone},
      // ORDER's DBTESMA walk takes seconds past level 4.
      {"order", &RunOrder, "DBTESMA", 4, StopReason::kLevelCap},
      // Polarized discovery stops at its default cap, level 4.
      {"polarized", &RunPolarized, "LATTICE", 0, StopReason::kLevelCap},
      {"polarized", &RunPolarized, "DBTESMA", 0, StopReason::kLevelCap},
  };
  for (const auto& run : kRuns) {
    SCOPED_TRACE(std::string(run.walk) + " " + run.dataset +
                 " max_level=" + std::to_string(run.max_level));
    auto data = datagen::MakeDataset(run.dataset, 2000, 42);
    ASSERT_TRUE(data.ok());
    const CodedRelation r = CodedRelation::Encode(*data);
    const WalkReport one = run.run(r, 1, run.max_level);
    ASSERT_EQ(one.stop_reason, run.stop);
    ASSERT_GT(one.num_checks, 0u);
    for (std::size_t threads : {2, 4, 8}) {
      SCOPED_TRACE(threads);
      const WalkReport many = run.run(r, threads, run.max_level);
      EXPECT_EQ(many.claims, one.claims);
      EXPECT_EQ(many.num_checks, one.num_checks);
      EXPECT_EQ(many.candidates_generated, one.candidates_generated);
      EXPECT_EQ(many.stop_reason, one.stop_reason);
      EXPECT_EQ(many.stop_state.checks, one.stop_state.checks);
      EXPECT_EQ(many.stop_state.level, one.stop_state.level);
      EXPECT_EQ(many.stop_state.frontier_size, one.stop_state.frontier_size);
    }
  }
}

TEST(OcdDiscoverTest, ClaimsByIdSortAsTheirLists) {
  // The walks order their claims by list ranks; the list-valued sort of
  // the same claims, each OCD's sides given in the other order first, must
  // agree.
  for (const datagen::DatasetSpec& spec : datagen::AllDatasets()) {
    SCOPED_TRACE(spec.name);
    auto data = datagen::MakeDataset(spec.name, 200, 42);
    ASSERT_TRUE(data.ok());
    const CodedRelation r = CodedRelation::Encode(*data);
    OcdDiscoverOptions opts;
    // FLIGHT_1K's 109 columns give level 3 tens of thousands of
    // candidates and level 4 millions.
    opts.max_level = spec.num_columns > 100 ? 2 : 0;
    const OcdDiscoverResult result = DiscoverOcds(r, opts);
    std::vector<OrderCompatibility> ocds;
    for (auto it = result.ocds.rbegin(); it != result.ocds.rend(); ++it) {
      ocds.push_back(OrderCompatibility{it->rhs, it->lhs}.Canonical());
    }
    std::vector<OrderDependency> ods(result.ods.rbegin(), result.ods.rend());
    od::SortUnique(ocds);
    od::SortUnique(ods);
    EXPECT_EQ(result.ocds, ocds);
    EXPECT_EQ(result.ods, ods);

    const PolarizedDiscoverResult polarized = DiscoverPolarizedOcds(r);
    EXPECT_TRUE(std::is_sorted(polarized.ocds.begin(), polarized.ocds.end()));
    EXPECT_TRUE(std::is_sorted(polarized.ods.begin(), polarized.ods.end()));
  }
}

TEST(OcdDiscoverTest, ChecksLeaveOutRowsIngestRejected) {
  // Ingest counts each rejected row on the run's context; the walk's
  // `num_checks` counts only its own checks.
  rel::CsvOptions csv;
  csv.on_bad_row = rel::BadRowPolicy::kSkip;
  RunContext ctx;
  csv.run_context = &ctx;
  auto read = rel::ReadCsvWithReport(
      "a,b,c\n1,2,3\nbad\n2,1,3\nworse\n3,3,1\n4,4,2\n", csv);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->report.rows_rejected, 2u);
  ASSERT_EQ(ctx.checks(), 2u);
  const CodedRelation r = CodedRelation::Encode(read->relation);

  const OcdDiscoverResult fresh = DiscoverOcds(r);
  OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  const OcdDiscoverResult shared = DiscoverOcds(r, opts);
  EXPECT_EQ(shared.num_checks, fresh.num_checks);
  EXPECT_EQ(shared.stop_state.checks, fresh.num_checks);
  EXPECT_EQ(ctx.checks(), 2u + fresh.num_checks);
}

// ---------------------------------------------------------------------------
// Completeness property: every valid disjoint-side OCD is either discovered
// or derivable from the discovered dependencies (Theorem 3.9 pruning +
// column reduction). Derivability here is checked constructively: a pruned
// OCD must be covered by an emitted OD on a prefix pair or by column
// equivalence substitution.
// ---------------------------------------------------------------------------

// Maps attributes through the reduction's representatives and drops
// constants, mirroring what the discovery searched over.
AttributeList Canonicalize(const AttributeList& l, const ColumnReduction& red,
                           const CodedRelation& r) {
  std::vector<rel::ColumnId> out;
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (r.column(l[i]).is_constant()) continue;
    out.push_back(red.Representative(l[i]));
  }
  return AttributeList(std::move(out)).Normalized();
}

class DiscoverCompletenessTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscoverCompletenessTest, AllBruteForceOcdsAreCoveredOrDerivable) {
  CodedRelation r = testutil::RandomCodedTable(GetParam(), 10, 4, 3);
  OcdDiscoverResult result = DiscoverOcds(r);
  ASSERT_TRUE(result.completed);

  std::set<OrderCompatibility> discovered(result.ocds.begin(),
                                          result.ocds.end());
  std::set<OrderDependency> emitted(result.ods.begin(), result.ods.end());

  for (const OrderCompatibility& truth : od::BruteForceAllOcds(r, 2)) {
    AttributeList x = Canonicalize(truth.lhs, result.reduction, r);
    AttributeList y = Canonicalize(truth.rhs, result.reduction, r);
    if (x.empty() || y.empty()) continue;       // constants: trivially compatible
    if (!x.DisjointWith(y)) continue;           // collapsed by equivalence
    OrderCompatibility canon = OrderCompatibility{x, y}.Canonical();
    if (discovered.count(canon) > 0) continue;

    // Not discovered: must be derivable from an emitted OD on a prefix of
    // one side (Theorem 3.9 pruning): some emitted X' → Y' with X' prefix
    // of x and Y' prefix of y (or swapped) implies x ~ y.
    bool derivable = false;
    for (const OrderDependency& od : emitted) {
      auto covers = [&](const AttributeList& a, const AttributeList& b) {
        return a.HasPrefix(od.lhs) && b.HasPrefix(od.rhs) &&
               od.lhs.size() + od.rhs.size() < a.size() + b.size() + 1;
      };
      if (covers(x, y) || covers(y, x)) {
        derivable = true;
        break;
      }
    }
    EXPECT_TRUE(derivable) << "missing OCD: " << canon.ToString();
  }
}

TEST_P(DiscoverCompletenessTest, DiscoveredSetsAreMinimalDisjoint) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 100, 10, 4, 3);
  OcdDiscoverResult result = DiscoverOcds(r);
  for (const OrderCompatibility& ocd : result.ocds) {
    EXPECT_TRUE(ocd.lhs.DisjointWith(ocd.rhs));
    EXPECT_EQ(ocd.lhs, ocd.lhs.Normalized());
    EXPECT_EQ(ocd.rhs, ocd.rhs.Normalized());
    EXPECT_FALSE(ocd.lhs.empty());
    EXPECT_FALSE(ocd.rhs.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoverCompletenessTest,
                         ::testing::Range<std::uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// Parallel driver equivalence and ablation switches.
// ---------------------------------------------------------------------------

class DriverEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DriverEquivalenceTest, ParallelEqualsSequential) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 40, 30, 5, 3);
  OcdDiscoverResult seq = DiscoverOcds(r);
  OcdDiscoverOptions par_opts;
  par_opts.num_threads = 4;
  OcdDiscoverResult par = DiscoverOcds(r, par_opts);
  EXPECT_EQ(seq.ocds, par.ocds);
  EXPECT_EQ(seq.ods, par.ods);
  EXPECT_EQ(seq.num_checks, par.num_checks);
}

TEST_P(DriverEquivalenceTest, PruningAblationYieldsSupersetOfValidOcds) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 80, 12, 4, 3);
  OcdDiscoverResult pruned = DiscoverOcds(r);
  OcdDiscoverOptions opts;
  opts.apply_od_pruning = false;
  OcdDiscoverResult unpruned = DiscoverOcds(r, opts);
  // Without Theorem-3.9 pruning the search also visits candidates that are
  // implied by emitted ODs: the result is a superset (the extras are
  // redundant but valid), at the cost of more candidates and checks.
  std::set<OrderCompatibility> unpruned_set(unpruned.ocds.begin(),
                                            unpruned.ocds.end());
  for (const OrderCompatibility& ocd : pruned.ocds) {
    EXPECT_TRUE(unpruned_set.count(ocd) > 0) << ocd.ToString();
  }
  for (const OrderCompatibility& ocd : unpruned.ocds) {
    EXPECT_TRUE(od::BruteForceHoldsOcd(r, ocd.lhs, ocd.rhs))
        << ocd.ToString();
  }
  EXPECT_LE(pruned.candidates_generated, unpruned.candidates_generated);
  EXPECT_LE(pruned.num_checks, unpruned.num_checks);
}

TEST_P(DriverEquivalenceTest, ColumnReductionAblationKeepsOcdValidity) {
  CodedRelation r = testutil::RandomCodedTable(GetParam() + 120, 8, 4, 2);
  OcdDiscoverOptions opts;
  opts.apply_column_reduction = false;
  OcdDiscoverResult result = DiscoverOcds(r, opts);
  for (const OrderCompatibility& ocd : result.ocds) {
    EXPECT_TRUE(od::BruteForceHoldsOcd(r, ocd.lhs, ocd.rhs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace ocdd::core
