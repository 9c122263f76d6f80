#include "core/ocd_discover.h"

#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/level_walk.h"
#include "core/partition_checker.h"

namespace ocdd::core {

namespace {

using od::AttributeList;

/// OCDDISCOVER's rules for the lattice walk: the OCD single check plus both
/// embedded ODs at valid nodes (§4.2.1), and the §4.2.1 expansion. A valid
/// candidate extends each side whose full OD does not hold by every unused
/// attribute (Theorem 3.9); an invalid one spawns nothing (Theorem 3.7).
struct OcdRules {
  using Outcome = CandidateOutcome;
  static constexpr bool kMemoizeChecks = true;

  const ListTable& lists;
  const std::vector<ColumnId>& universe;
  bool apply_od_pruning;
  IdClaims& claims;

  /// Level 2: all unordered single-attribute pairs (Algorithm 1 line 4).
  std::vector<std::pair<ColumnId, ColumnId>> SeedPairs() const {
    std::vector<std::pair<ColumnId, ColumnId>> pairs;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      for (std::size_t j = i + 1; j < universe.size(); ++j) {
        pairs.emplace_back(universe[i], universe[j]);
      }
    }
    return pairs;
  }

  Outcome Check(const PartitionChecker& checker, Candidate c,
                PartitionChecker::CheckSlot* slot) const {
    return checker.CheckOcdAndOds(c.x, c.y, slot);
  }

  void Emit(Candidate c, const Outcome& r) {
    if (!r.ocd_valid) return;
    claims.ocds.push_back(c);
    if (r.od_xy) claims.ods.push_back(c);
    if (r.od_yx) claims.ods.push_back(Candidate{c.y, c.x});
  }

  template <typename Child>
  void Expand(Candidate c, const Outcome& r, Child&& child) const {
    if (!r.ocd_valid) return;
    const bool extend_x = !r.od_xy || !apply_od_pruning;
    const bool extend_y = !r.od_yx || !apply_od_pruning;
    if (!extend_x && !extend_y) return;
    const AttributeList& x = lists.list(c.x);
    const AttributeList& y = lists.list(c.y);
    for (ColumnId a : universe) {
      if (x.Contains(a) || y.Contains(a)) continue;
      if (extend_x) child(Side::kX, a);
      if (extend_y) child(Side::kY, a);
    }
  }
};

/// Reads a count, then that many (lhs, rhs) list pairs, each handed to
/// `add`.
template <typename Add>
void ReadPairs(ByteReader& in, Add&& add) {
  const std::uint32_t n = in.U32();
  for (std::uint32_t i = 0; i < n && in.ok(); ++i) {
    AttributeList lhs(in.IdVec());
    add(std::move(lhs), AttributeList(in.IdVec()));
  }
}

}  // namespace

OcdDiscoverResult DiscoverOcds(const rel::CodedRelation& relation,
                               const OcdDiscoverOptions& options) {
  WallTimer timer;
  OcdDiscoverResult result;
  RunContext local_ctx;
  RunContext& ctx =
      options.run_context != nullptr ? *options.run_context : local_ctx;
  PartitionChecker checker(relation, ctx, options.max_partition_cache_bytes,
                           options.use_sorted_partitions);
  ListTable& lists = checker.lists();

  if (options.apply_column_reduction) {
    result.reduction = ReduceColumns(relation);
  } else {
    for (ColumnId c = 0; c < relation.num_columns(); ++c) {
      result.reduction.reduced_universe.push_back(c);
    }
  }

  IdClaims claims;
  OcdRules rules{lists, result.reduction.reduced_universe,
                 options.apply_od_pruning, claims};
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  LevelWalk<OcdRules> walk("ocd", rules, checker, ctx, result,
                           options.max_level, pool.get());

  // Crash-safe checkpoints (docs/checkpointing.md): the state at a level
  // boundary — the frontier, the counters and the emitted claims — in
  // snapshot state format 1.
  CheckpointStats& ck = result.checkpoint_stats;
  ck.enabled = options.checkpoint.enabled();
  std::uint64_t checks_base = 0;  // checks of the attempts before a resume
  std::unique_ptr<SnapshotStore> snap;
  const std::uint64_t fingerprint = ck.enabled ? relation.Fingerprint() : 0;
  if (ck.enabled) {
    snap = std::make_unique<SnapshotStore>(options.checkpoint.dir,
                                           "ocddiscover");
  }

  auto encode_state = [&](bool completed_flag) {
    SnapshotBuilder b;
    ByteWriter meta;
    meta.U32(1);  // state format version
    meta.U64(fingerprint);
    meta.U64(walk.current_level());
    meta.U64(result.levels_completed);
    meta.U64(checks_base + checker.num_checks());
    meta.U64(result.candidates_generated);
    meta.U8(completed_flag ? 1 : 0);
    b.AddSection("meta", meta.Take());
    ByteWriter fr;
    fr.U32(static_cast<std::uint32_t>(walk.level().size()));
    for (const Candidate& c : walk.level().candidates()) {
      fr.IdVec(lists.list(c.x).ids());
      fr.IdVec(lists.list(c.y).ids());
    }
    b.AddSection("frontier", fr.Take());
    // The claims in emission order, each OCD's lesser side first.
    ByteWriter cl;
    cl.U32(static_cast<std::uint32_t>(claims.ods.size()));
    for (const Candidate& d : claims.ods) {
      cl.IdVec(lists.list(d.x).ids());
      cl.IdVec(lists.list(d.y).ids());
    }
    cl.U32(static_cast<std::uint32_t>(claims.ocds.size()));
    for (const Candidate& d : claims.ocds) {
      const bool swap = lists.list(d.y) < lists.list(d.x);
      cl.IdVec(lists.list(swap ? d.y : d.x).ids());
      cl.IdVec(lists.list(swap ? d.x : d.y).ids());
    }
    b.AddSection("claims", cl.Take());
    return b.Encode();
  };

  auto write_snapshot = [&](const std::string& blob) {
    Result<std::uint64_t> gen =
        snap->Write(blob, options.checkpoint.keep_generations);
    if (gen.ok()) {
      ++ck.snapshots_written;
      ctx.MarkCheckpointed();
      return true;
    }
    ck.warning = gen.status().message();
    return false;
  };

  auto decode_state = [&](const SnapshotView& view) {
    const std::string* meta_s = view.Find("meta");
    const std::string* fr_s = view.Find("frontier");
    const std::string* cl_s = view.Find("claims");
    if (meta_s == nullptr || fr_s == nullptr || cl_s == nullptr) {
      ck.warning = "resume skipped: snapshot missing sections";
      return false;
    }
    ByteReader meta(*meta_s);
    if (meta.U32() != 1) {
      ck.warning = "resume skipped: unknown snapshot state version";
      return false;
    }
    if (meta.U64() != fingerprint) {
      ck.warning = "resume skipped: snapshot is for a different relation";
      return false;
    }
    std::uint64_t s_level = meta.U64();
    std::uint64_t s_levels_completed = meta.U64();
    std::uint64_t s_checks = meta.U64();
    std::uint64_t s_candidates = meta.U64();
    meta.U8();  // completed flag; an empty frontier says the same thing
    if (!meta.ok()) {
      ck.warning = "resume skipped: snapshot meta damaged";
      return false;
    }
    ByteReader fr(*fr_s);
    std::vector<std::pair<AttributeList, AttributeList>> frontier;
    ReadPairs(fr, [&](AttributeList x, AttributeList y) {
      frontier.emplace_back(std::move(x), std::move(y));
    });
    if (!fr.ok()) {
      ck.warning = "resume skipped: snapshot frontier damaged";
      return false;
    }
    ByteReader cl(*cl_s);
    std::vector<std::pair<AttributeList, AttributeList>> ods;
    std::vector<std::pair<AttributeList, AttributeList>> ocds;
    ReadPairs(cl, [&](AttributeList lhs, AttributeList rhs) {
      ods.emplace_back(std::move(lhs), std::move(rhs));
    });
    ReadPairs(cl, [&](AttributeList lhs, AttributeList rhs) {
      ocds.emplace_back(std::move(lhs), std::move(rhs));
    });
    if (!cl.ok()) {
      ck.warning = "resume skipped: snapshot claims damaged";
      return false;
    }
    // Commit: the claims' lists are interned, then the walk interns the
    // frontier's lists and replays its memory charge, and the state is
    // adopted. A refused charge has latched `kMemoryBudget`, which ends
    // the run with the claims interned so far.
    auto intern = [&](const auto& pairs, std::vector<Candidate>& into) {
      for (const auto& [x, y] : pairs) {
        const Candidate c{lists.Intern(x), lists.Intern(y)};
        if (c.x == kNoListId || c.y == kNoListId) return;
        into.push_back(c);
      }
    };
    intern(ods, claims.ods);
    intern(ocds, claims.ocds);
    walk.Resume(static_cast<std::size_t>(s_level), frontier);
    checks_base = s_checks;
    result.levels_completed = static_cast<std::size_t>(s_levels_completed);
    result.candidates_generated = s_candidates;
    return true;
  };

  bool resumed = false;
  if (snap && options.checkpoint.resume) {
    Result<LoadedSnapshot> loaded = snap->Load();
    if (loaded.ok()) {
      ck.corrupt_skipped = loaded->corrupt_skipped;
      resumed = ck.resumed = decode_state(loaded->view);
      if (resumed) ck.resumed_generation = loaded->generation;
    } else {
      ck.warning = "resume skipped: " + loaded.status().message();
    }
  }
  if (!resumed) walk.Seed();

  // The state captured at the start of the level in flight: written on
  // cadence, and at drain when the run stops mid-level, so a restart redoes
  // at most one level.
  std::string pending_blob;
  bool pending_written = true;
  walk.Run([&] {
    if (!snap) return;
    prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
    pending_blob = encode_state(false);
    pending_written = false;
    if (ctx.CheckpointDue()) pending_written = write_snapshot(pending_blob);
  });

  // A finished run writes a final generation (empty frontier), so resuming
  // it is a no-op that returns the full result.
  if (snap) {
    prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
    if (result.completed) {
      write_snapshot(encode_state(true));
    } else if (!pending_written && !pending_blob.empty()) {
      write_snapshot(pending_blob);
    }
  }

  result.num_checks += checks_base;
  result.stop_state.checks = result.num_checks;
  // The claims in list order, each materialised once.
  const std::vector<std::uint32_t> rank = lists.LexRanks();
  for (const Candidate& c : SortPairs(claims.ocds, rank, true)) {
    result.ocds.push_back(
        od::OrderCompatibility{lists.list(c.x), lists.list(c.y)});
  }
  for (const Candidate& c : SortPairs(claims.ods, rank, false)) {
    result.ods.push_back(od::OrderDependency{lists.list(c.x), lists.list(c.y)});
  }
  result.partition_cache_bytes = checker.cache_bytes();
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::core
