// Tests of the QA differential oracle: canonical-closure decision procedure,
// closure-equivalence comparisons, clean cross-checks on fixed data,
// corruption detection, and regression
// pins for the two documented oracle scope boundaries (tests/repros/).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "od/brute_force.h"
#include "od/dependency.h"
#include "od/inference.h"
#include "qa/canonical.h"
#include "qa/claims.h"
#include "qa/harness.h"
#include "qa/oracle.h"
#include "relation/csv.h"
#include "test_util.h"

namespace ocdd {
namespace {

using od::AttributeList;
using od::CanonicalOd;
using od::OrderCompatibility;
using od::OrderDependency;
using rel::CodedRelation;
using testutil::CodedIntTable;

rel::Relation LoadRepro(const std::string& name) {
  auto r = rel::ReadCsvFile(std::string(OCDD_TEST_SRC_DIR) + "/repros/" + name);
  EXPECT_TRUE(r.ok()) << name;
  return std::move(r).value();
}

// --- semantic canonical-OD checks -----------------------------------------

TEST(CanonicalSemanticsTest, ConstancyWithinContextClasses) {
  // Within each class of A, B is constant; globally it is not.
  CodedRelation r = CodedIntTable({{1, 1, 2, 2}, {5, 5, 9, 9}});
  EXPECT_TRUE(qa::HoldsConstancy(r, {0}, 1));
  EXPECT_FALSE(qa::HoldsConstancy(r, {}, 1));
  // A column is trivially constant in the context of itself.
  EXPECT_TRUE(qa::HoldsConstancy(r, {1}, 1));
}

TEST(CanonicalSemanticsTest, CompatDetectsSwapOnlyWithinClasses) {
  // Rows 0,1 share A = 1 and swap in B vs C; splitting them into separate
  // A-classes hides the swap.
  CodedRelation r = CodedIntTable({{1, 1, 2}, {1, 2, 3}, {2, 1, 3}});
  EXPECT_FALSE(qa::HoldsCompat(r, {}, 1, 2));
  EXPECT_FALSE(qa::HoldsCompat(r, {0}, 1, 2));
  CodedRelation split = CodedIntTable({{1, 4, 2}, {1, 2, 3}, {2, 1, 3}});
  EXPECT_TRUE(qa::HoldsCompat(split, {0}, 1, 2));
}

TEST(CanonicalSemanticsTest, MappingTheoremsMatchBruteForce) {
  CodedRelation r = testutil::RandomCodedTable(/*seed=*/11, /*rows=*/12,
                                               /*cols=*/4, /*domain=*/3);
  auto lists = od::EnumerateLists(std::vector<rel::ColumnId>{0, 1, 2, 3}, 2);
  for (const auto& lhs : lists) {
    for (const auto& rhs : lists) {
      if (lhs.empty() || rhs.empty() || !lhs.DisjointWith(rhs)) continue;
      OrderDependency od{lhs, rhs};
      EXPECT_EQ(qa::SemanticOdViaCanonical(r, od),
                od::BruteForceHoldsOd(r, lhs, rhs))
          << od.ToString();
      OrderCompatibility ocd{lhs, rhs};
      EXPECT_EQ(qa::SemanticOcdViaCanonical(r, ocd),
                od::BruteForceHoldsOcd(r, lhs, rhs))
          << ocd.ToString();
    }
  }
}

TEST(CanonicalClosureTest, ConstancyImplication) {
  // Emitted: {} : [] ↦ 2  (column 2 globally constant).
  qa::CanonicalClosure closure({CanonicalOd{
      CanonicalOd::Kind::kConstancy, /*context=*/{}, /*left=*/0,
      /*right=*/2}});
  EXPECT_TRUE(closure.ImpliesConstancy({}, 2));
  EXPECT_TRUE(closure.ImpliesConstancy({0, 1}, 2));  // context weakening
  EXPECT_TRUE(closure.ImpliesConstancy({0}, 0));     // A constant given A
  EXPECT_FALSE(closure.ImpliesConstancy({}, 1));
}

TEST(CanonicalClosureTest, CompatImplication) {
  // Emitted: {2} : 0 ~ 1.
  qa::CanonicalClosure closure({CanonicalOd{
      CanonicalOd::Kind::kOrderCompatible, /*context=*/{2}, /*left=*/0,
      /*right=*/1}});
  EXPECT_TRUE(closure.ImpliesCompat({2}, 0, 1));
  EXPECT_TRUE(closure.ImpliesCompat({2}, 1, 0));      // symmetry
  EXPECT_TRUE(closure.ImpliesCompat({2, 3}, 0, 1));   // context weakening
  EXPECT_FALSE(closure.ImpliesCompat({}, 0, 1));      // context strengthening
  EXPECT_FALSE(closure.ImpliesCompat({2}, 0, 3));
}

TEST(CanonicalClosureTest, ListDecisionsViaMappingTheorems) {
  // {} : 0 ~ 1 plus {0} : [] ↦ 1 together give [A] → [B] but not [B] → [A].
  qa::CanonicalClosure closure(
      {CanonicalOd{CanonicalOd::Kind::kOrderCompatible, {}, 0, 1},
       CanonicalOd{CanonicalOd::Kind::kConstancy, {0}, 0, 1}});
  EXPECT_TRUE(closure.ImpliesOcd(
      OrderCompatibility{AttributeList{0}, AttributeList{1}}));
  EXPECT_TRUE(closure.ImpliesOd(
      OrderDependency{AttributeList{0}, AttributeList{1}}));
  EXPECT_FALSE(closure.ImpliesOd(
      OrderDependency{AttributeList{1}, AttributeList{0}}));
}

// --- closure equivalence of syntactically different claim sets ------------

TEST(ClosureEquivalenceTest, EquivalenceClassMatchesMutualOds) {
  // Claim set 1: pairwise ODs [A] → [B] and [B] → [A].
  qa::ClaimSet by_ods;
  by_ods.ods.push_back(
      OrderDependency{AttributeList{0}, AttributeList{1}});
  by_ods.ods.push_back(
      OrderDependency{AttributeList{1}, AttributeList{0}});
  // Claim set 2: the same fact as a reduction equivalence class {A, B}.
  qa::ClaimSet by_class;
  by_class.equivalence_classes.push_back({0, 1});

  auto eng1 = qa::BuildClosureEngine(/*num_columns=*/3, /*max_list_len=*/3,
                                     by_ods);
  auto eng2 = qa::BuildClosureEngine(3, 3, by_class);
  for (const auto& od : eng1.AllImpliedOds(/*skip_reflexive=*/true)) {
    EXPECT_TRUE(eng2.Implies(od)) << od.ToString();
  }
  for (const auto& od : eng2.AllImpliedOds(true)) {
    EXPECT_TRUE(eng1.Implies(od)) << od.ToString();
  }
  // Both derive the non-obvious consequence [A,C] ↔ [B,C].
  EXPECT_TRUE(eng1.ImpliesEquivalence(AttributeList{0, 2},
                                      AttributeList{1, 2}));
  EXPECT_TRUE(eng2.ImpliesEquivalence(AttributeList{0, 2},
                                      AttributeList{1, 2}));
}

TEST(ClosureEquivalenceTest, CanonicalCompatMatchesListOcd) {
  // FASTOD's {} : A ~ B rendered through the engine equals the list OCD
  // claim [A] ~ [B].
  qa::ClaimSet canonical;
  canonical.canonical.push_back(
      CanonicalOd{CanonicalOd::Kind::kOrderCompatible, {}, 0, 1});
  qa::ClaimSet list;
  list.ocds.push_back(OrderCompatibility{AttributeList{0}, AttributeList{1}});

  auto eng1 = qa::BuildClosureEngine(2, 2, canonical);
  auto eng2 = qa::BuildClosureEngine(2, 2, list);
  OrderCompatibility ocd{AttributeList{0}, AttributeList{1}};
  EXPECT_TRUE(eng1.ImpliesOcd(ocd));
  EXPECT_TRUE(eng2.ImpliesOcd(ocd));
  for (const auto& od : eng1.AllImpliedOds(true)) {
    EXPECT_TRUE(eng2.Implies(od)) << od.ToString();
  }
  for (const auto& od : eng2.AllImpliedOds(true)) {
    EXPECT_TRUE(eng1.Implies(od)) << od.ToString();
  }
}

// --- cross-check on fixed instances ---------------------------------------

TEST(OracleTest, CleanOnHandPickedTables) {
  // Mix of equivalences, constants, keys, swaps, and ties.
  std::vector<std::vector<std::vector<std::int64_t>>> tables = {
      {{1, 2, 3}, {10, 20, 30}},                       // A ↔ B
      {{1, 1, 1}, {3, 1, 2}},                          // constant + key
      {{1, 2, 2, 3}, {1, 5, 4, 6}, {0, 0, 1, 1}},     // swap inside A-tie
      {{1, 2}, {2, 1}, {1, 1}, {0, 5}},                // reversal, 4 cols
  };
  for (std::size_t i = 0; i < tables.size(); ++i) {
    auto report = qa::CrossCheck(CodedIntTable(tables[i]));
    EXPECT_TRUE(report.clean()) << "table " << i << ": "
                                << report.discrepancies[0].ToString();
    EXPECT_TRUE(report.all_completed);
    EXPECT_GT(report.comparisons, 0u);
  }
}

TEST(OracleTest, CleanOnRandomTables) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CodedRelation r = testutil::RandomCodedTable(seed, /*rows=*/10,
                                                 /*cols=*/4, /*domain=*/3);
    auto report = qa::CrossCheck(r);
    EXPECT_TRUE(report.clean())
        << "seed " << seed << ": " << report.discrepancies[0].ToString();
  }
}

// --- corruption detection --------------------------------------------------

TEST(OracleTest, DetectsEveryCorruptionMode) {
  // A ↔ B guarantees OCDDISCOVER, ORDER, and FASTOD all have claims to lose.
  CodedRelation r = CodedIntTable({{1, 2, 3, 4}, {2, 4, 6, 8}, {4, 1, 3, 2}});
  for (auto mode : {qa::CorruptionMode::kDropOcddiscover,
                    qa::CorruptionMode::kInventOrderOd,
                    qa::CorruptionMode::kDropFastodCompat}) {
    qa::OracleOptions opts;
    opts.corruption = mode;
    auto report = qa::CrossCheck(r, opts);
    EXPECT_FALSE(report.clean()) << qa::CorruptionModeName(mode);
    if (mode == qa::CorruptionMode::kInventOrderOd) {
      bool order_blamed = false;
      for (const auto& d : report.discrepancies) {
        if (d.algorithm.find("order") != std::string::npos) {
          order_blamed = true;
        }
      }
      EXPECT_TRUE(order_blamed);
    }
  }
  EXPECT_TRUE(qa::CrossCheck(r).clean());
}

// --- regression pins for the documented scope boundaries ------------------

TEST(OracleScopeTest, OcddOdVocabularyBoundary) {
  // tests/repros/ocdd_od_scope.csv: [B] → [C,A] is valid (B ≡ C, B a key)
  // and ORDER claims it, but deriving it needs the FD fact {B} ↦ A, which
  // OCDDISCOVER never claims. The oracle must stay clean: it checks
  // OCDDISCOVER's ODs for exactness only and compares just the OCD part in
  // the ORDER differential.
  CodedRelation r = CodedRelation::Encode(LoadRepro("ocdd_od_scope.csv"));
  OrderDependency od{AttributeList{1}, AttributeList{2, 0}};
  ASSERT_TRUE(od::BruteForceHoldsOd(r, od.lhs, od.rhs));

  auto runs = qa::RunAllClaims(r);
  auto eng = qa::BuildClosureEngine(r.num_columns(),
                                    qa::DefaultMaxListLen(r.num_columns()),
                                    runs.ocdd);
  EXPECT_FALSE(eng.Implies(od));  // the vocabulary gap, pinned
  EXPECT_TRUE(eng.ImpliesOcd(OrderCompatibility{od.lhs, od.rhs}));

  auto report = qa::CrossCheck(r);
  EXPECT_TRUE(report.clean())
      << report.discrepancies[0].ToString();
}

TEST(OracleScopeTest, OcddReductionCollapseBoundary) {
  // tests/repros/ocdd_reduction_scope.csv: [C,A] ~ [D,B] is valid because
  // C ≡ D and C is a key, but reduction maps D to C's class, collapsing the
  // candidate onto the non-disjoint [C,A] ~ [C,B] that OCDDISCOVER never
  // enumerates. The oracle must classify it as out of scope (skipped), not
  // as a completeness failure.
  CodedRelation r =
      CodedRelation::Encode(LoadRepro("ocdd_reduction_scope.csv"));
  OrderCompatibility ocd{AttributeList{2, 0}, AttributeList{3, 1}};
  ASSERT_TRUE(od::BruteForceHoldsOcd(r, ocd.lhs, ocd.rhs));

  auto runs = qa::RunAllClaims(r);
  bool cd_equivalent = false;
  for (const auto& cls : runs.ocdd.equivalence_classes) {
    if (cls == std::vector<rel::ColumnId>{2, 3}) cd_equivalent = true;
  }
  ASSERT_TRUE(cd_equivalent);  // the collapse premise
  auto eng = qa::BuildClosureEngine(r.num_columns(),
                                    qa::DefaultMaxListLen(r.num_columns()),
                                    runs.ocdd);
  EXPECT_FALSE(eng.ImpliesOcd(ocd));  // underivable from OCDDISCOVER claims

  auto report = qa::CrossCheck(r);
  EXPECT_TRUE(report.clean())
      << report.discrepancies[0].ToString();
  EXPECT_GT(report.skipped, 0u);  // the gate reports reduced coverage
}

// --- determinism -----------------------------------------------------------

TEST(HarnessTest, SameSeedYieldsByteIdenticalJson) {
  qa::QaOptions opts;
  opts.seed = 42;
  opts.iters = 6;
  std::string a = qa::SummaryToJson(qa::RunQa(opts));
  std::string b = qa::SummaryToJson(qa::RunQa(opts));
  EXPECT_EQ(a, b);

  opts.inject = qa::CorruptionMode::kInventOrderOd;
  opts.iters = 2;
  std::string c = qa::SummaryToJson(qa::RunQa(opts));
  std::string d = qa::SummaryToJson(qa::RunQa(opts));
  EXPECT_EQ(c, d);
  EXPECT_NE(a, c);
}

TEST(HarnessTest, IterationZeroUsesMasterSeedForReplay) {
  // The replay contract: a failure at iteration i of master seed S reports
  // iteration_seed = IterationSeed(S, i), and running --seed <that> --iters 1
  // regenerates the identical instance because iteration 0 is the master
  // seed itself.
  EXPECT_EQ(qa::IterationSeed(77, 0), 77u);
  EXPECT_NE(qa::IterationSeed(77, 1), qa::IterationSeed(77, 2));

  qa::QaOptions opts;
  opts.seed = 42;
  opts.iters = 3;
  opts.inject = qa::CorruptionMode::kInventOrderOd;
  opts.metamorphic = false;
  opts.stopped_runs = false;
  auto run = qa::RunQa(opts);
  ASSERT_FALSE(run.clean());
  for (const auto& failure : run.failures) {
    qa::QaOptions replay = opts;
    replay.seed = failure.iteration_seed;
    replay.iters = 1;
    auto rerun = qa::RunQa(replay);
    ASSERT_EQ(rerun.failures.size(), 1u) << failure.iteration_seed;
    EXPECT_EQ(rerun.failures[0].csv, failure.csv);
  }
}

}  // namespace
}  // namespace ocdd
