#include "core/polarized.h"

#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/run_context.h"
#include "core/level_walk.h"
#include "core/partition_checker.h"
#include "od/attribute_list.h"

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

/// Polarized discovery's rules for the lattice walk: OCDDISCOVER's check
/// over r±, and children by polarity — a side whose OD does not hold is
/// extended by every unused base column, ascending and descending.
struct PolarizedRules {
  using Outcome = CandidateOutcome;
  static constexpr bool kMemoizeChecks = true;

  const ListTable& lists;
  std::size_t n;                            // base columns
  const std::vector<rel::ColumnId>& active;  // non-constant base columns
  IdClaims& claims;

  /// Level 2, mirror-canonical: the lhs head is ascending. Per unordered
  /// base pair {a, b} with a < b this yields (a+, b+) and (a+, b-); the
  /// mirror images (a-, b-) and (a-, b+) are equivalent.
  std::vector<std::pair<rel::ColumnId, rel::ColumnId>> SeedPairs() const {
    std::vector<std::pair<rel::ColumnId, rel::ColumnId>> pairs;
    for (std::size_t i = 0; i < active.size(); ++i) {
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        pairs.emplace_back(active[i], active[j]);
        pairs.emplace_back(active[i], active[j] + n);
      }
    }
    return pairs;
  }

  Outcome Check(const PartitionChecker& checker, Candidate c,
                PartitionChecker::CheckSlot* slot) const {
    return checker.CheckOcdAndOds(c.x, c.y, slot);
  }

  void Emit(Candidate c, const Outcome& out) {
    if (!out.ocd_valid) return;
    claims.ocds.push_back(c);
    if (out.od_xy) claims.ods.push_back(c);
    if (out.od_yx) claims.ods.push_back(Candidate{c.y, c.x});
  }

  template <typename Child>
  void Expand(Candidate c, const Outcome& out, Child&& child) const {
    if (!out.ocd_valid) return;
    const AttributeList& x = lists.list(c.x);
    const AttributeList& y = lists.list(c.y);
    for (rel::ColumnId base : active) {
      const rel::ColumnId desc = base + n;
      if (x.Contains(base) || x.Contains(desc) || y.Contains(base) ||
          y.Contains(desc)) {
        continue;
      }
      for (rel::ColumnId v : {base, desc}) {
        if (!out.od_xy) child(Side::kX, v);
        if (!out.od_yx) child(Side::kY, v);
      }
    }
  }
};

}  // namespace

PolarizedDiscoverResult DiscoverPolarizedOcds(
    const rel::CodedRelation& relation,
    const PolarizedDiscoverOptions& options) {
  WallTimer timer;
  PolarizedDiscoverResult result;
  const std::size_t n = relation.num_columns();

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

  const ListTable& lists = checker.lists();
  IdClaims claims;
  PolarizedRules rules{lists, n, active, claims};
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  LevelWalk<PolarizedRules> walk("polarized", rules, checker, ctx, result,
                                 options.max_level, pool.get());
  walk.Seed();
  walk.Run([] {});

  // The lists in `PolarizedAttribute` order: by base column, ascending
  // first. Mirror-canonical seeds repeat no claim, so `SortPairs` drops
  // none.
  std::vector<std::uint32_t> column_rank(2 * n);
  for (std::size_t c = 0; c < 2 * n; ++c) {
    column_rank[c] = static_cast<std::uint32_t>(2 * (c % n) + c / n);
  }
  const std::vector<std::uint32_t> rank = lists.LexRanks(column_rank);
  for (const Candidate& c : SortPairs(claims.ocds, rank, false)) {
    result.ocds.push_back(PolarizedOcd{DecodeList(lists.list(c.x), n),
                                       DecodeList(lists.list(c.y), n)});
  }
  for (const Candidate& c : SortPairs(claims.ods, rank, false)) {
    result.ods.push_back(PolarizedOd{DecodeList(lists.list(c.x), n),
                                     DecodeList(lists.list(c.y), n)});
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::core
