// Dependency maintenance under appends — the paper's future-work scenario
// (§7): rows arrive at runtime and the discovered dependency set must stay
// consistent. An IncrementalSession keeps warm per-candidate outcomes and
// serves every candidate a batch provably cannot change; only the rest pay
// a data pass. The result always equals a from-scratch run.
//
//   $ ./examples/incremental_monitor

#include <cstdio>
#include <utility>
#include <vector>

#include "algo/incremental/incremental.h"
#include "datagen/fixtures.h"

namespace {

using ocdd::algo::IncrementalSession;
using ocdd::rel::Value;

void Append(const char* what, IncrementalSession& session,
            std::vector<Value> row) {
  const ocdd::core::OcdDiscoverResult before = session.last_result();
  ocdd::rel::RowBatch batch;
  batch.appends.push_back(std::move(row));
  auto stats = session.ApplyBatch(batch);
  if (!stats.ok()) {
    std::printf("%s: rejected (%s)\n", what,
                stats.status().ToString().c_str());
    return;
  }
  const ocdd::core::OcdDiscoverResult& now = stats->result;
  std::printf("%s:\n", what);
  std::printf("  %zu -> %zu OCDs, %zu -> %zu ODs; reduction %s\n",
              before.ocds.size(), now.ocds.size(), before.ods.size(),
              now.ods.size(),
              now.reduction.constant_columns ==
                          before.reduction.constant_columns &&
                      now.reduction.equivalence_classes ==
                          before.reduction.equivalence_classes
                  ? "unchanged"
                  : "changed");
  std::printf("  %llu candidates served from warm state, %llu rechecked; "
              "%zu rows\n",
              static_cast<unsigned long long>(now.hook_served),
              static_cast<unsigned long long>(now.hook_recomputed),
              stats->num_rows);
}

}  // namespace

int main() {
  // Start from the paper's TaxInfo table (income ↔ tax, income → bracket,
  // income ~ savings, ...).
  auto session = IncrementalSession::Start(ocdd::datagen::MakeTaxInfo(),
                                           ocdd::algo::IncrementalOptions{});
  if (!session.ok()) {
    std::printf("start failed: %s\n", session.status().ToString().c_str());
    return 1;
  }
  std::printf("initial: %zu OCDs, %zu ODs on %zu rows\n",
              session->last_result().ocds.size(),
              session->last_result().ods.size(),
              session->relation().num_rows());

  // 1. A well-behaved insert: a new top bracket that respects every
  //    dependency — nothing changes.
  Append("append consistent row", *session,
         {Value::String("N. Good"), Value::Int(95000), Value::Int(12000),
          Value::Int(4), Value::Int(18000)});

  // 2. An insert that puts savings out of order with income, bracket and
  //    tax (high income, low savings): every dependency relying on that
  //    order goes, the column reduction stays, and the warm state proves
  //    every outcome without a data pass.
  Append("append savings outlier", *session,
         {Value::String("P. Spender"), Value::Int(99000), Value::Int(100),
          Value::Int(4), Value::Int(19000)});

  // 3. An insert with inconsistent tax breaks the income ↔ tax equivalence:
  //    the column reduction changes and the affected candidates are
  //    rechecked.
  Append("append tax anomaly", *session,
         {Value::String("Q. Anomaly"), Value::Int(99500), Value::Int(200),
          Value::Int(4), Value::Int(2)});

  // 4. A malformed row is rejected outright; the session is unchanged.
  Append("append malformed row", *session, {Value::Int(1), Value::Int(2)});
  return 0;
}
