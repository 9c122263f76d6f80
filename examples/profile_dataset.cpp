// Data profiling example: run every discovery algorithm in the library over
// a dataset and print a dependency profile — the §1 "data profiling /
// knowledge discovery" application.
//
//   $ ./examples/profile_dataset                 # NCVOTER_1K by default
//   $ ./examples/profile_dataset HEPATITIS       # any registry dataset
//   $ ./examples/profile_dataset path/to/data.csv

#include <cstdio>
#include <string>

#include "algo/fastod/fastod.h"
#include "algo/fd/tane.h"
#include "algo/order/order_discover.h"
#include "core/entropy.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"
#include "relation/csv.h"

namespace {

ocdd::Result<ocdd::rel::Relation> Load(const std::string& arg) {
  if (arg.size() > 4 && arg.substr(arg.size() - 4) == ".csv") {
    return ocdd::rel::ReadCsvFile(arg);
  }
  return ocdd::datagen::MakeDataset(arg);
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = argc > 1 ? argv[1] : "NCVOTER_1K";
  auto relation = Load(source);
  if (!relation.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", source.c_str(),
                 relation.status().ToString().c_str());
    return 1;
  }
  ocdd::rel::CodedRelation coded =
      ocdd::rel::CodedRelation::Encode(*relation);
  std::printf("=== profile of %s: %zu rows x %zu columns ===\n\n",
              source.c_str(), coded.num_rows(), coded.num_columns());

  std::printf("-- column diversity (entropy, Definition 5.1) --\n");
  for (const auto& info : ocdd::core::RankColumnsByEntropy(coded)) {
    std::printf("  %-16s  H=%7.3f  distinct=%d%s\n",
                coded.column_name(info.id).c_str(), info.entropy,
                info.num_distinct,
                info.num_distinct <= 1      ? "  [constant]"
                : info.num_distinct <= 4    ? "  [quasi-constant]"
                                            : "");
  }

  const double kBudget = 20.0;

  std::printf("\n-- minimal functional dependencies (TANE) --\n");
  ocdd::algo::TaneOptions tane_opts;
  ocdd::RunContext tane_budget;
  tane_budget.set_time_limit_seconds(kBudget);
  tane_opts.run_context = &tane_budget;
  auto tane = ocdd::algo::DiscoverFds(coded, tane_opts);
  std::printf("  %zu minimal FDs%s in %.3fs; first few:\n", tane.fds.size(),
              tane.completed ? "" : " (partial)", tane.elapsed_seconds);
  for (std::size_t i = 0; i < tane.fds.size() && i < 8; ++i) {
    std::printf("    %s\n", tane.fds[i].ToString(coded).c_str());
  }

  std::printf("\n-- order dependencies (OCDDISCOVER) --\n");
  ocdd::core::OcdDiscoverOptions ocd_opts;
  ocdd::RunContext ocd_budget;
  ocd_budget.set_time_limit_seconds(kBudget);
  ocd_opts.run_context = &ocd_budget;
  ocd_opts.num_threads = 4;
  auto mine = ocdd::core::DiscoverOcds(coded, ocd_opts);
  std::printf("  reduction: %s\n", mine.reduction.ToString(coded).c_str());
  std::printf("  %zu minimal OCDs, %zu ODs%s in %.3fs (%llu checks)\n",
              mine.ocds.size(), mine.ods.size(),
              mine.completed ? "" : " (partial)", mine.elapsed_seconds,
              static_cast<unsigned long long>(mine.num_checks));
  for (std::size_t i = 0; i < mine.ocds.size() && i < 8; ++i) {
    std::printf("    %s\n", mine.ocds[i].ToString(coded).c_str());
  }
  for (std::size_t i = 0; i < mine.ods.size() && i < 8; ++i) {
    std::printf("    %s\n", mine.ods[i].ToString(coded).c_str());
  }

  std::printf("\n-- baselines --\n");
  ocdd::algo::OrderDiscoverOptions order_opts;
  ocdd::RunContext order_budget;
  order_budget.set_time_limit_seconds(kBudget);
  order_opts.run_context = &order_budget;
  auto order = ocdd::algo::DiscoverOrderDependencies(coded, order_opts);
  std::printf("  ORDER:  %zu disjoint-side ODs%s in %.3fs\n",
              order.ods.size(), order.completed ? "" : " (partial)",
              order.elapsed_seconds);

  ocdd::algo::FastodOptions fastod_opts;
  ocdd::RunContext fastod_budget;
  fastod_budget.set_time_limit_seconds(kBudget);
  fastod_opts.run_context = &fastod_budget;
  auto fastod = ocdd::algo::DiscoverFastod(coded, fastod_opts);
  std::printf("  FASTOD: %zu constancy + %zu compatibility canonical ODs%s "
              "in %.3fs\n",
              fastod.num_constancy, fastod.num_compatible,
              fastod.completed ? "" : " (partial)", fastod.elapsed_seconds);
  return 0;
}
