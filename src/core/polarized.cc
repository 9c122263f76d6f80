#include "core/polarized.h"

#include <algorithm>
#include <unordered_set>

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
  std::vector<Candidate> level;
  std::size_t level_bytes = 0;
  bool aborted = false;
  for (std::size_t i = 0; i < active.size() && !aborted; ++i) {
    for (std::size_t j = i + 1; j < active.size(); ++j) {
      for (rel::ColumnId v : {active[j], active[j] + n}) {
        Candidate c{AttributeList{active[i]}, AttributeList{v}};
        const std::size_t bytes = CandidateBytes(c);
        if (!ctx.ChargeMemory(bytes)) {
          aborted = true;
          break;
        }
        level_bytes += bytes;
        level.push_back(std::move(c));
      }
      if (aborted) break;
    }
  }
  result.candidates_generated += level.size();

  std::size_t current_level = 2;
  while (!level.empty() && !aborted) {
    if (options.max_level != 0 && current_level > options.max_level) {
      aborted = true;
      break;
    }
    checker.Prepare(level, nullptr);

    std::vector<Candidate> next;
    std::size_t next_bytes = 0;
    std::unordered_set<Candidate, CandidateHash> seen;
    for (const Candidate& c : level) {
      if (ctx.ShouldStop()) {
        aborted = true;
        break;
      }
      const CandidateOutcome out = checker.CheckOcdAndOds(c.x, c.y);
      if (!out.ocd_valid) continue;
      result.ocds.push_back(
          PolarizedOcd{DecodeList(c.x, n), DecodeList(c.y, n)});
      if (out.od_xy) {
        result.ods.push_back(
            PolarizedOd{DecodeList(c.x, n), DecodeList(c.y, n)});
      }
      if (out.od_yx) {
        result.ods.push_back(
            PolarizedOd{DecodeList(c.y, n), DecodeList(c.x, n)});
      }
      std::vector<Candidate> children;
      for (rel::ColumnId base : active) {
        if (UsesBase(c.x, base, n) || UsesBase(c.y, base, n)) continue;
        for (rel::ColumnId v : {base, base + n}) {
          if (!out.od_xy) children.push_back({c.x.WithAppended(v), c.y});
          if (!out.od_yx) children.push_back({c.x, c.y.WithAppended(v)});
        }
      }
      for (Candidate& child : children) {
        if (seen.count(child) != 0) continue;
        const std::size_t bytes = CandidateBytes(child);
        if (!ctx.ChargeMemory(bytes)) {
          aborted = true;
          break;
        }
        next_bytes += bytes;
        seen.insert(child);
        next.push_back(std::move(child));
      }
      if (aborted) break;
    }
    result.candidates_generated += next.size();
    ctx.ReleaseMemory(level_bytes);
    level = std::move(next);
    level_bytes = next_bytes;
    ++current_level;
  }
  ctx.ReleaseMemory(level_bytes);

  std::sort(result.ocds.begin(), result.ocds.end());
  std::sort(result.ods.begin(), result.ods.end());
  result.num_checks = checker.num_checks();
  result.completed = !aborted;
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::core
