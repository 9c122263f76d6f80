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
#include "od/dependency_set.h"

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
  od::DependencyStore& store;

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
    const AttributeList& x = lists.list(c.x);
    const AttributeList& y = lists.list(c.y);
    store.AddOcd(od::OrderCompatibility{x, y});
    if (r.od_xy) store.AddOd(od::OrderDependency{x, y});
    if (r.od_yx) store.AddOd(od::OrderDependency{y, x});
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
  const ListTable& lists = checker.lists();

  if (options.apply_column_reduction) {
    result.reduction = ReduceColumns(relation);
  } else {
    for (ColumnId c = 0; c < relation.num_columns(); ++c) {
      result.reduction.reduced_universe.push_back(c);
    }
  }

  od::DependencyStore store;
  OcdRules rules{lists, result.reduction.reduced_universe,
                 options.apply_od_pruning, store};
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
    ByteWriter cl;
    cl.U32(static_cast<std::uint32_t>(store.ods().size()));
    for (const od::OrderDependency& d : store.ods()) {
      cl.IdVec(d.lhs.ids());
      cl.IdVec(d.rhs.ids());
    }
    cl.U32(static_cast<std::uint32_t>(store.ocds().size()));
    for (const od::OrderCompatibility& d : store.ocds()) {
      cl.IdVec(d.lhs.ids());
      cl.IdVec(d.rhs.ids());
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
    od::DependencyStore claims;
    ReadPairs(cl, [&](AttributeList lhs, AttributeList rhs) {
      claims.AddOd(od::OrderDependency{std::move(lhs), std::move(rhs)});
    });
    ReadPairs(cl, [&](AttributeList lhs, AttributeList rhs) {
      claims.AddOcd(od::OrderCompatibility{std::move(lhs), std::move(rhs)});
    });
    if (!cl.ok()) {
      ck.warning = "resume skipped: snapshot claims damaged";
      return false;
    }
    // Commit: the walk interns the frontier's lists and replays its memory
    // charge, then the state is adopted.
    walk.Resume(static_cast<std::size_t>(s_level), frontier);
    checks_base = s_checks;
    result.levels_completed = static_cast<std::size_t>(s_levels_completed);
    result.candidates_generated = s_candidates;
    store = std::move(claims);
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
  store.Finalize();
  result.ocds = store.TakeOcds();
  result.ods = store.TakeOds();
  result.partition_cache_bytes = checker.cache_bytes();
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::core
