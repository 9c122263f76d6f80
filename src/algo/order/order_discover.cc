#include "algo/order/order_discover.h"

#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/level_walk.h"
#include "core/partition_checker.h"

namespace ocdd::algo {

namespace {

using core::Candidate;
using core::OdCheckOutcome;
using core::Side;
using od::AttributeList;

/// ORDER's rules for the lattice walk: candidates are ODs `x → y`, checked
/// with full split/swap classification, since only a swap prunes a subtree.
struct OrderRules {
  using Outcome = OdCheckOutcome;
  static constexpr bool kMemoizeChecks = false;  // CheckOd reads no slot

  const core::ListTable& lists;
  std::size_t num_columns;
  std::vector<Candidate>& ods;

  /// Level 2: every ordered pair (A, B), A ≠ B — direction matters for ODs.
  std::vector<std::pair<rel::ColumnId, rel::ColumnId>> SeedPairs() const {
    std::vector<std::pair<rel::ColumnId, rel::ColumnId>> pairs;
    for (rel::ColumnId a = 0; a < num_columns; ++a) {
      for (rel::ColumnId b = 0; b < num_columns; ++b) {
        if (a != b) pairs.emplace_back(a, b);
      }
    }
    return pairs;
  }

  Outcome Check(const core::PartitionChecker& checker, Candidate c,
                core::PartitionChecker::CheckSlot* /*slot*/) const {
    return checker.CheckOd(c.x, c.y);
  }

  void Emit(Candidate c, const Outcome& outcome) {
    if (outcome.valid()) ods.push_back(c);
  }

  /// Valid: extend the RHS only (X → YA is not implied by X → Y, but
  /// XA → Y is). Split only: extend the LHS (appending to the RHS can never
  /// repair a split). Swap: prune the whole subtree.
  template <typename Child>
  void Expand(Candidate c, const Outcome& outcome, Child&& child) const {
    if (outcome.has_swap) return;
    const Side side = outcome.valid() ? Side::kY : Side::kX;
    const AttributeList& x = lists.list(c.x);
    const AttributeList& y = lists.list(c.y);
    for (rel::ColumnId a = 0; a < num_columns; ++a) {
      if (!x.Contains(a) && !y.Contains(a)) child(side, a);
    }
  }
};

}  // namespace

OrderDiscoverResult DiscoverOrderDependencies(
    const rel::CodedRelation& relation, const OrderDiscoverOptions& options) {
  WallTimer timer;
  OrderDiscoverResult result;
  RunContext local_ctx;
  RunContext& ctx =
      options.run_context != nullptr ? *options.run_context : local_ctx;
  core::PartitionChecker checker(relation, ctx,
                                 options.max_partition_cache_bytes);
  const core::ListTable& lists = checker.lists();
  std::vector<Candidate> ods;
  OrderRules rules{lists, relation.num_columns(), ods};
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  core::LevelWalk<OrderRules> walk("order", rules, checker, ctx, result,
                                   options.max_level, pool.get());
  walk.Seed();
  walk.Run([] {});
  for (const Candidate& c : core::SortPairs(ods, lists.LexRanks(), false)) {
    result.ods.push_back(od::OrderDependency{lists.list(c.x), lists.list(c.y)});
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
