// Query-optimization benefit of discovered ODs — the §6/[17] claim
// ("optimizing queries with order dependencies yields significant
// speedups"). DBTESMA rows are stored in `key` order and carry the OD chain
// key → batch → region → zone. Both executors know the physical order and
// apply the standard prefix rule; only one knows the discovered ODs. The
// speedup on non-prefix clauses is the cost of the sorts the ODs remove —
// exactly the DB2 optimization of [17].

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/ocd_discover.h"
#include "engine/executor.h"
#include "optimizer/order_by_rewrite.h"

namespace {

using ocdd::engine::Executor;
using ocdd::engine::Predicate;
using ocdd::engine::Query;
using ocdd::engine::SortSpec;

double TimeQuery(const Executor& ex, const Query& q, int reps) {
  ocdd::WallTimer timer;
  std::size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    sink += ex.Execute(q).size();
  }
  (void)sink;
  return timer.ElapsedSeconds() / reps;
}

}  // namespace

int main() {
  std::printf("Query optimization with discovered ODs (paper sections 1/6)\n\n");
  ocdd::rel::CodedRelation db = ocdd::bench::LoadCoded("DBTESMA");
  std::printf("DBTESMA: %zu rows, physically ordered by key; OD chain "
              "key -> batch -> region -> zone\n\n",
              db.num_rows());

  // Mine dependencies once (profiling cost, amortized over the workload).
  ocdd::core::OcdDiscoverOptions mine_opts;
  ocdd::bench::BudgetContext mine_budget(mine_opts);
  auto mined = ocdd::core::DiscoverOcds(db, mine_opts);
  ocdd::opt::OdKnowledgeBase kb;
  for (const auto& od : mined.ods) kb.AddOd(od);
  for (const auto& ocd : mined.ocds) kb.AddOcd(ocd);
  for (const auto& cls : mined.reduction.equivalence_classes) {
    kb.AddEquivalenceClass(cls);
  }
  for (auto c : mined.reduction.constant_columns) kb.AddConstant(c);
  std::printf("mined %zu OCDs / %zu ODs in %.3fs\n\n", mined.ocds.size(),
              mined.ods.size(), mined.elapsed_seconds);

  // Both planners know the physical order (every DBMS exploits prefixes);
  // only `optimized` holds the discovered ODs.
  Executor naive(db);
  Executor optimized(db, &kb);
  naive.DeclarePhysicalOrder({0});      // key
  optimized.DeclarePhysicalOrder({0});

  // Columns: 0 key, 1 batch, 2 region, 3 zone, 12 cat1, 28 const1.
  struct NamedQuery {
    const char* label;
    Query query;
  };
  std::vector<NamedQuery> workload = {
      {"ORDER BY key (prefix rule, parity)", {{}, SortSpec{0}, 0}},
      {"ORDER BY batch", {{}, SortSpec{1}, 0}},
      {"ORDER BY zone", {{}, SortSpec{3}, 0}},
      {"ORDER BY key,batch,region,zone", {{}, SortSpec{0, 1, 2, 3}, 0}},
      {"ORDER BY batch,const1", {{}, SortSpec{1, 28}, 0}},
      {"ORDER BY cat1 (no OD, parity)", {{}, SortSpec{12}, 0}},
      {"WHERE zone<=1 ORDER BY region",
       {{Predicate{3, Predicate::Op::kLe, 1}}, SortSpec{2}, 0}},
  };

  int reps = 5;
  std::printf("%-38s %12s %12s %9s  %s\n", "query", "naive_s", "with_ods_s",
              "speedup", "plan (with ODs)");
  for (const NamedQuery& nq : workload) {
    double t_naive = TimeQuery(naive, nq.query, reps);
    double t_opt = TimeQuery(optimized, nq.query, reps);
    ocdd::engine::Plan plan = optimized.Explain(nq.query);
    std::printf("%-38s %12.5f %12.5f %8.2fx  %s\n", nq.label, t_naive, t_opt,
                t_opt > 0 ? t_naive / t_opt : 0.0, plan.explanation.c_str());
    std::fflush(stdout);
  }
  std::printf("\nOD-implied clauses ride the physical order (sort elided); "
              "clauses without OD cover\nsort identically in both plans "
              "(parity rows).\n");
  return 0;
}
