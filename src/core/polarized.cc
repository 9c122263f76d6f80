#include "core/polarized.h"

#include <algorithm>

#include "common/timer.h"
#include "common/run_context.h"
#include "core/partition_checker.h"
#include "od/attribute_list.h"
#include "od/dependency_set.h"

namespace ocdd::core {

std::string PolarizedListToString(const PolarizedList& list,
                                  const rel::CodedRelation& relation) {
  std::string out = "[";
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ",";
    out += relation.column_name(list[i].column);
    out += list[i].descending ? "-" : "+";
  }
  out += "]";
  return out;
}

std::string PolarizedOcd::ToString(const rel::CodedRelation& relation) const {
  return PolarizedListToString(lhs, relation) + " ~ " +
         PolarizedListToString(rhs, relation);
}

std::string PolarizedOd::ToString(const rel::CodedRelation& relation) const {
  return PolarizedListToString(lhs, relation) + " -> " +
         PolarizedListToString(rhs, relation);
}

rel::CodedRelation AugmentWithReversedColumns(
    const rel::CodedRelation& relation) {
  std::vector<rel::CodedColumn> columns = relation.columns();
  columns.reserve(relation.num_columns() * 2);
  for (std::size_t c = 0; c < relation.num_columns(); ++c) {
    rel::CodedColumn reversed = relation.column(c);
    reversed.name += "(desc)";
    std::int32_t top = reversed.num_distinct - 1;
    for (std::int32_t& code : reversed.codes) code = top - code;
    columns.push_back(std::move(reversed));
  }
  return rel::CodedRelation::FromColumns(std::move(columns));
}

int CompareRowsOnPolarizedList(const rel::CodedRelation& relation,
                               const PolarizedList& list, std::uint32_t row_a,
                               std::uint32_t row_b) {
  for (const PolarizedAttribute& attr : list) {
    std::int32_t a = relation.code(row_a, attr.column);
    std::int32_t b = relation.code(row_b, attr.column);
    if (a != b) {
      int cmp = a < b ? -1 : 1;
      return attr.descending ? -cmp : cmp;
    }
  }
  return 0;
}

bool BruteForceHoldsPolarizedOd(const rel::CodedRelation& relation,
                                const PolarizedList& lhs,
                                const PolarizedList& rhs) {
  std::size_t m = relation.num_rows();
  for (std::uint32_t p = 0; p < m; ++p) {
    for (std::uint32_t q = 0; q < m; ++q) {
      if (CompareRowsOnPolarizedList(relation, lhs, p, q) <= 0 &&
          CompareRowsOnPolarizedList(relation, rhs, p, q) > 0) {
        return false;
      }
    }
  }
  return true;
}

namespace {

using od::AttributeList;

/// Decodes an augmented column id back to (column, direction).
PolarizedAttribute Decode(rel::ColumnId virtual_id, std::size_t n) {
  if (virtual_id < n) return PolarizedAttribute{virtual_id, false};
  return PolarizedAttribute{virtual_id - n, true};
}

PolarizedList DecodeList(const AttributeList& list, std::size_t n) {
  PolarizedList out;
  out.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    out.push_back(Decode(list[i], n));
  }
  return out;
}

rel::ColumnId BaseColumn(rel::ColumnId virtual_id, std::size_t n) {
  return virtual_id < n ? virtual_id : virtual_id - n;
}

bool UsesBase(const AttributeList& list, rel::ColumnId base, std::size_t n) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (BaseColumn(list[i], n) == base) return true;
  }
  return false;
}

}  // namespace

PolarizedDiscoverResult DiscoverPolarizedOcds(
    const rel::CodedRelation& relation,
    const PolarizedDiscoverOptions& options) {
  WallTimer timer;
  PolarizedDiscoverResult result;
  std::size_t n = relation.num_columns();

  RunContext local_ctx;
  RunContext& ctx =
      options.run_context != nullptr ? *options.run_context : local_ctx;
  rel::CodedRelation augmented = AugmentWithReversedColumns(relation);
  PartitionChecker checker(augmented, ctx, kDefaultPartitionCacheBytes);
  ListTable& lists = checker.lists();

  // Non-constant base columns only; a constant is trivially compatible with
  // everything in both directions.
  std::vector<rel::ColumnId> active;
  for (rel::ColumnId c = 0; c < n; ++c) {
    if (!relation.column(c).is_constant()) active.push_back(c);
  }

  // Level 2, mirror-canonical: the lhs head is ascending. Per unordered
  // base pair {a, b} with a < b this yields (a+, b+) and (a+, b-); the
  // mirror images (a-, b-) and (a-, b+) are equivalent. Every frontier
  // candidate is charged to the memory budget; a refused charge latches
  // `kMemoryBudget` and ends the walk.
  Frontier level(lists, ctx);
  bool aborted = false;
  for (std::size_t i = 0; i < active.size() && !aborted; ++i) {
    for (std::size_t j = i + 1; j < active.size() && !aborted; ++j) {
      for (rel::ColumnId v : {active[j], active[j] + n}) {
        if (!level.Add(lists.Child(kNoListId, active[i]),
                       lists.Child(kNoListId, v))) {
          aborted = true;
          break;
        }
      }
    }
  }
  result.candidates_generated += level.size();

  std::size_t current_level = 2;
  while (!level.empty() && !aborted) {
    if (options.max_level != 0 && current_level > options.max_level) {
      aborted = true;
      break;
    }
    const std::vector<PartitionChecker::CheckSlot*> slots =
        checker.Prepare(level.candidates(), nullptr);

    // The capped last level builds no children; it only notes whether one
    // would exist.
    const bool last_level =
        options.max_level != 0 && current_level == options.max_level;
    bool capped = false;
    Frontier next(lists, ctx);
    for (std::size_t i = 0; i < level.size() && !aborted; ++i) {
      const Candidate c = level[i];
      if (ctx.ShouldStop()) {
        aborted = true;
        break;
      }
      const CandidateOutcome out = checker.CheckOcdAndOds(c.x, c.y, slots[i]);
      if (!out.ocd_valid) continue;
      const AttributeList& x = lists.list(c.x);
      const AttributeList& y = lists.list(c.y);
      result.ocds.push_back(PolarizedOcd{DecodeList(x, n), DecodeList(y, n)});
      if (out.od_xy) {
        result.ods.push_back(PolarizedOd{DecodeList(x, n), DecodeList(y, n)});
      }
      if (out.od_yx) {
        result.ods.push_back(PolarizedOd{DecodeList(y, n), DecodeList(x, n)});
      }
      for (std::size_t b = 0; b < active.size() && !aborted; ++b) {
        const rel::ColumnId base = active[b];
        if (UsesBase(x, base, n) || UsesBase(y, base, n)) continue;
        if (last_level) {
          capped = capped || !out.od_xy || !out.od_yx;
          break;
        }
        for (rel::ColumnId v : {base, base + n}) {
          if ((!out.od_xy && !next.Add(lists.Child(c.x, v), c.y)) ||
              (!out.od_yx && !next.Add(c.x, lists.Child(c.y, v)))) {
            aborted = true;
            break;
          }
        }
      }
    }
    aborted = aborted || capped;
    result.candidates_generated += next.size();
    level = std::move(next);
    ++current_level;
  }

  std::sort(result.ocds.begin(), result.ocds.end());
  std::sort(result.ods.begin(), result.ods.end());
  result.num_checks = checker.num_checks();
  result.completed = !aborted;
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::core
