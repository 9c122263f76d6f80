#include "algo/order/order_discover.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/run_context.h"
#include "common/timer.h"
#include "core/checker.h"
#include "core/list_partition.h"
#include "od/dependency_set.h"

namespace ocdd::algo {

namespace {

using core::OdCheckOutcome;
using core::OrderChecker;
using od::AttributeList;
using od::AttributeListHash;

struct Candidate {
  AttributeList lhs;
  AttributeList rhs;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
};

struct CandidateHash {
  std::size_t operator()(const Candidate& c) const {
    AttributeListHash h;
    return h(c.lhs) * 1000003ULL ^ h(c.rhs);
  }
};

}  // namespace

namespace {

/// Frontier memory unit charged to the RunContext budget.
std::size_t CandidateBytes(const Candidate& c) {
  return sizeof(Candidate) +
         (c.lhs.size() + c.rhs.size()) * sizeof(rel::ColumnId);
}

}  // namespace

OrderDiscoverResult DiscoverOrderDependencies(
    const rel::CodedRelation& relation, const OrderDiscoverOptions& options) {
  WallTimer timer;
  OrderDiscoverResult result;
  OrderChecker checker(relation);

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;
  if (options.max_checks != 0) ctx->set_check_budget(options.max_checks);
  if (options.time_limit_seconds > 0.0) {
    ctx->set_time_limit_seconds(options.time_limit_seconds);
  }

  // Sorted-partition cache (only populated when the option is set): each
  // list's rank vector derives from its prefix's by one refinement.
  std::unordered_map<AttributeList, core::ListPartition, AttributeListHash>
      part_cache;
  std::size_t cache_bytes = 0;
  std::uint64_t part_checks = 0;
  std::function<const core::ListPartition*(const AttributeList&)> ensure =
      [&](const AttributeList& list) -> const core::ListPartition* {
    auto it = part_cache.find(list);
    if (it != part_cache.end()) return &it->second;
    core::ListPartition part;
    if (list.size() == 1) {
      part = core::ListPartition::ForColumn(relation, list[0]);
    } else {
      AttributeList prefix(std::vector<rel::ColumnId>(
          list.ids().begin(), list.ids().end() - 1));
      const core::ListPartition* parent = ensure(prefix);
      if (parent == nullptr) return nullptr;
      part = parent->Refine(relation, list[list.size() - 1]);
    }
    std::size_t bytes = part.MemoryBytes();
    if (options.max_partition_cache_bytes != 0 &&
        cache_bytes + bytes > options.max_partition_cache_bytes) {
      return nullptr;
    }
    cache_bytes += bytes;
    auto [pos, inserted] = part_cache.emplace(list, std::move(part));
    (void)inserted;
    return &pos->second;
  };

  std::size_t n = relation.num_columns();

  // Level 2: every ordered pair (A, B), A ≠ B — direction matters for ODs.
  std::vector<Candidate> level;
  std::size_t level_bytes = 0;
  bool aborted = false;
  StopReason cap_reason = StopReason::kNone;
  for (rel::ColumnId a = 0; a < n && !aborted; ++a) {
    for (rel::ColumnId b = 0; b < n; ++b) {
      if (a == b) continue;
      Candidate c{AttributeList{a}, AttributeList{b}};
      std::size_t bytes = CandidateBytes(c);
      if (!ctx->ChargeMemory(bytes)) {
        aborted = true;
        break;
      }
      level_bytes += bytes;
      level.push_back(std::move(c));
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
      std::vector<Candidate> next;
      std::size_t next_bytes = 0;
      std::unordered_set<Candidate, CandidateHash> seen;
      for (const Candidate& c : level) {
        if (ctx->ShouldStop()) {
          aborted = true;
          break;
        }
        ctx->AtInjectionPoint("order.check");
        // Full classification: a swap must be detected even when a split
        // occurs first, because only swaps prune the subtree.
        OdCheckOutcome outcome;
        const core::ListPartition* pl = nullptr;
        const core::ListPartition* pr = nullptr;
        if (options.use_sorted_partitions) {
          pl = ensure(c.lhs);
          pr = ensure(c.rhs);
        }
        ctx->CountCheck(1);
        if (pl != nullptr && pr != nullptr) {
          outcome = core::ListPartition::CheckOd(*pl, *pr);
          ++part_checks;
        } else {
          outcome = checker.CheckOd(c.lhs, c.rhs, /*early_exit=*/false);
        }
        if (outcome.valid()) {
          ctx->AtInjectionPoint("order.generate");
          result.ods.push_back(od::OrderDependency{c.lhs, c.rhs});
          // Extend RHS only: X → YA is not implied by X → Y, but XA → Y is.
          for (rel::ColumnId a = 0; a < n; ++a) {
            if (c.lhs.Contains(a) || c.rhs.Contains(a)) continue;
            Candidate child{c.lhs, c.rhs.WithAppended(a)};
            if (seen.count(child) != 0) continue;
            std::size_t bytes = CandidateBytes(child);
            if (!ctx->ChargeMemory(bytes)) {
              aborted = true;
              break;
            }
            next_bytes += bytes;
            seen.insert(child);
            next.push_back(std::move(child));
          }
        } else if (!outcome.has_swap) {
          // Split only: extending the RHS can never repair a split,
          // extending the LHS can.
          for (rel::ColumnId a = 0; a < n; ++a) {
            if (c.lhs.Contains(a) || c.rhs.Contains(a)) continue;
            Candidate child{c.lhs.WithAppended(a), c.rhs};
            if (seen.count(child) != 0) continue;
            std::size_t bytes = CandidateBytes(child);
            if (!ctx->ChargeMemory(bytes)) {
              aborted = true;
              break;
            }
            next_bytes += bytes;
            seen.insert(child);
            next.push_back(std::move(child));
          }
        }
        // Swap: prune the whole subtree.
        if (aborted) break;
      }
      result.candidates_generated += next.size();
      level = std::move(next);
      ctx->ReleaseMemory(level_bytes);
      level_bytes = next_bytes;
      ++current_level;
    }
  } catch (const FaultInjectedError&) {
    ctx->RequestStop(StopReason::kFaultInjected);
    aborted = true;
  }
  ctx->ReleaseMemory(level_bytes);

  aborted = aborted || ctx->stop_requested();
  od::SortUnique(result.ods);
  result.num_checks = checker.stats().TotalChecks() + part_checks;
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
