// ORDER BY rewriting — the paper's headline application (§1): discovered
// order dependencies let the optimizer drop redundant sort columns.
//
// The example mines the TaxInfo and LINEITEM relations, loads the results
// into an OdKnowledgeBase, and simplifies representative ORDER BY clauses,
// printing the justification for every dropped column.
//
//   $ ./examples/query_optimizer

#include <cstdio>
#include <string>
#include <vector>

#include "core/ocd_discover.h"
#include "datagen/fixtures.h"
#include "datagen/lineitem.h"
#include "optimizer/order_by_rewrite.h"
#include "relation/coded_relation.h"

namespace {

using ocdd::opt::OdKnowledgeBase;
using ocdd::opt::RewriteReason;
using ocdd::rel::CodedRelation;

OdKnowledgeBase BuildKb(const ocdd::core::OcdDiscoverResult& mined) {
  OdKnowledgeBase kb;
  for (const auto& od : mined.ods) kb.AddOd(od);
  for (const auto& ocd : mined.ocds) kb.AddOcd(ocd);
  for (const auto& cls : mined.reduction.equivalence_classes) {
    kb.AddEquivalenceClass(cls);
  }
  for (auto c : mined.reduction.constant_columns) kb.AddConstant(c);
  return kb;
}

void Simplify(const CodedRelation& coded, const OdKnowledgeBase& kb,
              const std::vector<ocdd::rel::ColumnId>& clause) {
  auto render = [&](const std::vector<ocdd::rel::ColumnId>& cols) {
    std::string out;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) out += ", ";
      out += coded.column_name(cols[i]);
    }
    return out;
  };
  ocdd::opt::RewriteResult result = kb.SimplifyOrderBy(clause);
  std::printf("  ORDER BY %s\n    =>  ORDER BY %s\n",
              render(clause).c_str(), render(result.columns).c_str());
  for (const auto& step : result.steps) {
    if (step.reason == RewriteReason::kKept) continue;
    std::printf("      dropped %-14s (%s%s%s)\n",
                coded.column_name(step.column).c_str(),
                ocdd::opt::RewriteReasonName(step.reason),
                step.justification.empty() ? "" : ": ",
                step.justification.c_str());
  }
}

}  // namespace

int main() {
  std::printf("== TaxInfo (paper Table 1) ==\n");
  CodedRelation tax =
      CodedRelation::Encode(ocdd::datagen::MakeTaxInfo());
  auto tax_mined = ocdd::core::DiscoverOcds(tax);
  OdKnowledgeBase tax_kb = BuildKb(tax_mined);
  // The paper's motivating query: ORDER BY income, bracket, tax.
  Simplify(tax, tax_kb, {1, 3, 4});
  Simplify(tax, tax_kb, {4, 3});     // tax orders bracket transitively
  Simplify(tax, tax_kb, {2, 2, 0});  // duplicate elimination

  std::printf("\n== LINEITEM (TPC-H-style) ==\n");
  CodedRelation lineitem =
      CodedRelation::Encode(ocdd::datagen::MakeLineitem(5000, 42));
  ocdd::core::OcdDiscoverOptions opts;
  opts.max_level = 3;
  opts.num_threads = 4;
  ocdd::RunContext budget;
  budget.set_time_limit_seconds(30);
  opts.run_context = &budget;
  auto li_mined = ocdd::core::DiscoverOcds(lineitem, opts);
  std::printf("  (discovered %zu OCDs, %zu ODs on a 5000-row sample)\n",
              li_mined.ocds.size(), li_mined.ods.size());
  OdKnowledgeBase li_kb = BuildKb(li_mined);
  // Typical sort-heavy clauses.
  auto col = [&](const char* name) {
    for (ocdd::rel::ColumnId c = 0; c < lineitem.num_columns(); ++c) {
      if (lineitem.column_name(c) == name) return c;
    }
    return ocdd::rel::ColumnId{0};
  };
  Simplify(lineitem, li_kb,
           {col("l_orderkey"), col("l_linenumber"), col("l_orderkey")});
  Simplify(lineitem, li_kb, {col("l_shipdate"), col("l_receiptdate")});
  return 0;
}
