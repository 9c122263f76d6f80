#include "algo/order/order_discover.h"

#include <utility>

#include "common/run_context.h"
#include "common/timer.h"
#include "core/partition_checker.h"
#include "od/dependency_set.h"

namespace ocdd::algo {

using core::Candidate;
using core::Frontier;
using core::kNoListId;
using core::OdCheckOutcome;
using od::AttributeList;

OrderDiscoverResult DiscoverOrderDependencies(
    const rel::CodedRelation& relation, const OrderDiscoverOptions& options) {
  WallTimer timer;
  OrderDiscoverResult result;

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;

  core::PartitionChecker checker(relation, *ctx,
                                options.max_partition_cache_bytes);
  core::ListTable& lists = checker.lists();

  std::size_t n = relation.num_columns();

  // Level 2: every ordered pair (A, B), A ≠ B — direction matters for ODs.
  Frontier level(lists, *ctx);
  bool aborted = false;
  StopReason cap_reason = StopReason::kNone;
  for (rel::ColumnId a = 0; a < n && !aborted; ++a) {
    for (rel::ColumnId b = 0; b < n; ++b) {
      if (a == b) continue;
      if (!level.Add(lists.Child(kNoListId, a), lists.Child(kNoListId, b))) {
        aborted = true;
        break;
      }
    }
  }
  result.candidates_generated += level.size();

  std::size_t current_level = 2;
  try {
    while (!level.empty() && !aborted) {
      ctx->AtInjectionPoint("order.level");
      if (options.max_level != 0 && current_level > options.max_level) {
        aborted = true;
        cap_reason = StopReason::kLevelCap;
        break;
      }
      // ORDER checks through CheckOd, which reads no check-memo slot.
      checker.Prepare(level.candidates(), nullptr, /*memoize_checks=*/false);

      // The capped last level builds no children; it only notes whether
      // one would exist.
      const bool last_level =
          options.max_level != 0 && current_level == options.max_level;
      bool capped = false;
      Frontier next(lists, *ctx);
      for (std::size_t i = 0; i < level.size(); ++i) {
        const Candidate c = level[i];
        if (ctx->ShouldStop()) {
          aborted = true;
          break;
        }
        ctx->AtInjectionPoint("order.check");
        // Full classification: a swap must be detected even when a split
        // occurs first, because only swaps prune the subtree.
        const OdCheckOutcome outcome = checker.CheckOd(c.x, c.y);
        const AttributeList& x = lists.list(c.x);
        const AttributeList& y = lists.list(c.y);
        if (outcome.valid()) {
          ctx->AtInjectionPoint("order.generate");
          result.ods.push_back(od::OrderDependency{x, y});
          // Extend RHS only: X → YA is not implied by X → Y, but XA → Y is.
          for (rel::ColumnId a = 0; a < n; ++a) {
            if (x.Contains(a) || y.Contains(a)) continue;
            if (last_level) {
              capped = true;
              break;
            }
            if (!next.Add(c.x, lists.Child(c.y, a))) {
              aborted = true;
              break;
            }
          }
        } else if (!outcome.has_swap) {
          // Split only: extending the RHS can never repair a split,
          // extending the LHS can.
          for (rel::ColumnId a = 0; a < n; ++a) {
            if (x.Contains(a) || y.Contains(a)) continue;
            if (last_level) {
              capped = true;
              break;
            }
            if (!next.Add(lists.Child(c.x, a), c.y)) {
              aborted = true;
              break;
            }
          }
        }
        // Swap: prune the whole subtree.
        if (aborted) break;
      }
      if (capped && !aborted) {
        aborted = true;
        cap_reason = StopReason::kLevelCap;
      }
      result.candidates_generated += next.size();
      level = std::move(next);
      ++current_level;
    }
  } catch (const FaultInjectedError&) {
    ctx->RequestStop(StopReason::kFaultInjected);
    aborted = true;
  }

  aborted = aborted || ctx->stop_requested();
  od::SortUnique(result.ods);
  result.num_checks = checker.num_checks();
  result.stop_state.checks = result.num_checks;
  result.stop_state.level = current_level;
  result.stop_state.frontier_size = level.size();
  result.completed = !aborted;
  result.stop_reason = ctx->stop_reason() != StopReason::kNone
                           ? ctx->stop_reason()
                           : cap_reason;
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
