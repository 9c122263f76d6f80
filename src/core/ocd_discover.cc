#include "core/ocd_discover.h"

#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/prof.h"
#include "common/snapshot.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/partition_checker.h"
#include "od/dependency_set.h"

namespace ocdd::core {

namespace {

using od::AttributeList;

/// Per-candidate check outcome, filled by the (possibly parallel) check
/// phase and consumed by the sequential generation phase.
struct CheckedCandidate {
  bool checked = false;  // false when the budget aborted before this one
  CandidateOutcome out;
};

class Driver {
 public:
  Driver(const rel::CodedRelation& relation, const OcdDiscoverOptions& options)
      : relation_(relation),
        options_(options),
        ctx_(options.run_context != nullptr ? options.run_context
                                            : &local_ctx_),
        checker_(relation, *ctx_, options.max_partition_cache_bytes,
                 options.use_sorted_partitions) {}

  OcdDiscoverResult Run() {
    WallTimer timer;
    OcdDiscoverResult result;

    if (options_.apply_column_reduction) {
      result.reduction = ReduceColumns(relation_);
    } else {
      for (ColumnId c = 0; c < relation_.num_columns(); ++c) {
        result.reduction.reduced_universe.push_back(c);
      }
    }
    const std::vector<ColumnId>& universe = result.reduction.reduced_universe;

    od::DependencyStore store;
    ListTable& lists = checker_.lists();
    Frontier level(lists, *ctx_);
    std::size_t current_level = 2;
    bool aborted = false;
    StopReason cap_reason = StopReason::kNone;

    CheckpointStats& ck = result.checkpoint_stats;
    ck.enabled = options_.checkpoint.enabled();
    std::unique_ptr<SnapshotStore> snap;
    const std::uint64_t fingerprint =
        ck.enabled ? relation_.Fingerprint() : 0;
    if (ck.enabled) {
      snap = std::make_unique<SnapshotStore>(options_.checkpoint.dir,
                                             "ocddiscover");
    }

    // State blob captured at the last level boundary (start of the level
    // currently in flight); written on cadence, and at drain when the run
    // stops mid-level so a restart redoes at most one level.
    auto encode_state = [&](bool completed_flag) {
      SnapshotBuilder b;
      ByteWriter meta;
      meta.U32(1);  // state format version
      meta.U64(fingerprint);
      meta.U64(current_level);
      meta.U64(result.levels_completed);
      meta.U64(TotalChecks());
      meta.U64(result.candidates_generated);
      meta.U8(completed_flag ? 1 : 0);
      b.AddSection("meta", meta.Take());
      ByteWriter fr;
      fr.U32(static_cast<std::uint32_t>(level.size()));
      for (const Candidate& c : level.candidates()) {
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
          snap->Write(blob, options_.checkpoint.keep_generations);
      if (gen.ok()) {
        ++ck.snapshots_written;
        ctx_->MarkCheckpointed();
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
      std::uint32_t n = fr.U32();
      std::vector<std::pair<AttributeList, AttributeList>> restored;
      restored.reserve(n);
      for (std::uint32_t i = 0; i < n && fr.ok(); ++i) {
        AttributeList x(fr.IdVec());
        AttributeList y(fr.IdVec());
        restored.emplace_back(std::move(x), std::move(y));
      }
      if (!fr.ok()) {
        ck.warning = "resume skipped: snapshot frontier damaged";
        return false;
      }
      ByteReader cl(*cl_s);
      od::DependencyStore restored_store;
      std::uint32_t num_ods = cl.U32();
      for (std::uint32_t i = 0; i < num_ods && cl.ok(); ++i) {
        AttributeList lhs(cl.IdVec());
        AttributeList rhs(cl.IdVec());
        restored_store.AddOd(
            od::OrderDependency{std::move(lhs), std::move(rhs)});
      }
      std::uint32_t num_ocds = cl.U32();
      for (std::uint32_t i = 0; i < num_ocds && cl.ok(); ++i) {
        AttributeList lhs(cl.IdVec());
        AttributeList rhs(cl.IdVec());
        restored_store.AddOcd(
            od::OrderCompatibility{std::move(lhs), std::move(rhs)});
      }
      if (!cl.ok()) {
        ck.warning = "resume skipped: snapshot claims damaged";
        return false;
      }
      // Commit: intern the frontier's lists and replay its memory charge,
      // then adopt the state.
      for (const auto& [x, y] : restored) {
        if (!level.Add(lists.Intern(x), lists.Intern(y))) {
          aborted = true;
          break;
        }
      }
      current_level = static_cast<std::size_t>(s_level);
      result.levels_completed = static_cast<std::size_t>(s_levels_completed);
      result.candidates_generated = s_candidates;
      checks_base_ = s_checks;
      store = std::move(restored_store);
      return true;
    };

    bool resumed = false;
    if (ck.enabled && options_.checkpoint.resume) {
      Result<LoadedSnapshot> loaded = snap->Load();
      if (loaded.ok()) {
        ck.corrupt_skipped = loaded->corrupt_skipped;
        if (decode_state(loaded->view)) {
          resumed = true;
          ck.resumed = true;
          ck.resumed_generation = loaded->generation;
        }
      } else {
        ck.warning = "resume skipped: " + loaded.status().message();
      }
    }

    if (!resumed) {
      // Level ℓ = 2: all unordered single-attribute pairs (Algorithm 1
      // line 4).
      for (std::size_t i = 0; i < universe.size() && !aborted; ++i) {
        for (std::size_t j = i + 1; j < universe.size(); ++j) {
          if (!level.Add(lists.Child(kNoListId, universe[i]),
                         lists.Child(kNoListId, universe[j]))) {
            aborted = true;
            break;
          }
        }
      }
      result.candidates_generated += level.size();
    }

    std::unique_ptr<ThreadPool> pool;
    if (options_.num_threads > 1) {
      pool = std::make_unique<ThreadPool>(options_.num_threads);
    }

    std::string pending_blob;
    bool pending_written = true;
    try {
      while (!level.empty() && !aborted) {
        if (snap) {
          prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
          pending_blob = encode_state(false);
          pending_written = false;
          if (ctx_->CheckpointDue()) {
            pending_written = write_snapshot(pending_blob);
          }
        }
        ctx_->AtInjectionPoint("ocd.level");
        if (ctx_->ShouldStop()) {
          aborted = true;
          break;
        }
        if (options_.max_level != 0 && current_level > options_.max_level) {
          aborted = true;
          cap_reason = StopReason::kLevelCap;
          break;
        }

        // Cache both sides' partitions of every candidate before the
        // (parallel, read-only) check phase.
        std::vector<CheckedCandidate> checked(level.size());
        const std::vector<PartitionChecker::CheckSlot*> slots =
            checker_.Prepare(level.candidates(), pool.get());

        auto check_one = [&](std::size_t i) {
          if (ctx_->ShouldStop()) return;
          ctx_->AtInjectionPoint("ocd.check");
          // §4.2.1: the OCD single check, plus both embedded ODs at valid
          // nodes — they drive pruning and are emitted when valid.
          checked[i] = CheckedCandidate{
              true,
              checker_.CheckOcdAndOds(level[i].x, level[i].y, slots[i])};
        };

        if (pool) {
          Status check_status = pool->ParallelFor(level.size(), check_one);
          if (!check_status.ok()) {
            // A check task threw (fault injection or otherwise): the pool
            // contained it; stop the run and return the sound prefix.
            ctx_->RequestStop(StopReason::kFaultInjected);
          }
        } else {
          for (std::size_t i = 0; i < level.size(); ++i) check_one(i);
        }
        aborted = ctx_->stop_requested();

        // Sequential generation phase: emission + next level (deduplicated).
        // On abort the emission still runs — every candidate the check phase
        // finished contributes to the partial result — but no children are
        // generated. Neither are they at the capped last level, which only
        // notes whether a child would exist.
        const bool last_level =
            options_.max_level != 0 && current_level == options_.max_level;
        bool capped = false;
        Frontier next(lists, *ctx_);
        prof::ScopedTimer generate_timer(prof::Phase::kGenerate);
        for (std::size_t i = 0; i < level.size(); ++i) {
          const Candidate c = level[i];
          if (!checked[i].checked) continue;
          const CandidateOutcome& r = checked[i].out;
          if (!r.ocd_valid) continue;
          ctx_->AtInjectionPoint("ocd.generate");

          const AttributeList& x = lists.list(c.x);
          const AttributeList& y = lists.list(c.y);
          store.AddOcd(od::OrderCompatibility{x, y});
          if (r.od_xy) store.AddOd(od::OrderDependency{x, y});
          if (r.od_yx) store.AddOd(od::OrderDependency{y, x});
          if (aborted) continue;

          bool extend_x = !r.od_xy || !options_.apply_od_pruning;
          bool extend_y = !r.od_yx || !options_.apply_od_pruning;
          if (!extend_x && !extend_y) continue;

          for (ColumnId a : universe) {
            if (x.Contains(a) || y.Contains(a)) continue;
            if (last_level) {
              capped = true;
              break;
            }
            if ((extend_x && !next.Add(lists.Child(c.x, a), c.y)) ||
                (extend_y && !next.Add(c.x, lists.Child(c.y, a)))) {
              aborted = true;
              break;
            }
          }
          if (options_.max_candidates_per_level != 0 &&
              next.size() > options_.max_candidates_per_level) {
            aborted = true;
            cap_reason = StopReason::kLevelCap;
          }
        }

        if (!aborted) {
          result.levels_completed = current_level;
        }
        if (capped) {
          aborted = true;
          cap_reason = StopReason::kLevelCap;
        }
        result.candidates_generated += next.size();
        level = std::move(next);
        ++current_level;
      }
    } catch (const FaultInjectedError&) {
      // An injection point fired `kThrow` in the sequential path. The
      // emitted prefix in `store` is intact and sound; report the stop.
      ctx_->RequestStop(StopReason::kFaultInjected);
      aborted = true;
    }

    aborted = aborted || ctx_->stop_requested();

    // Drain-to-checkpoint: a stopped run persists the state captured at the
    // last level boundary, so `--resume` redoes at most the level that was
    // in flight. A finished run writes a final generation (empty frontier)
    // so resuming a completed run is a no-op that returns the full result.
    if (snap) {
      prof::ScopedTimer ck_timer(prof::Phase::kCheckpoint);
      if (aborted) {
        if (!pending_written && !pending_blob.empty()) {
          write_snapshot(pending_blob);
        }
      } else {
        // A run that finishes has an empty frontier.
        write_snapshot(encode_state(true));
      }
    }

    result.stop_state.checks = TotalChecks();
    result.stop_state.level = current_level;
    result.stop_state.frontier_size = level.size();

    store.Finalize();
    result.ocds = store.ocds();
    result.ods = store.ods();
    result.num_checks = TotalChecks();
    result.completed = !aborted;
    result.stop_reason =
        ctx_->stop_reason() != StopReason::kNone ? ctx_->stop_reason()
                                                 : cap_reason;
    result.partition_cache_bytes = checker_.cache_bytes();
    result.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  std::uint64_t TotalChecks() const {
    // checks_base_ carries the checks of previous attempts when this run
    // was resumed from a snapshot, keeping reported totals cumulative.
    return checks_base_ + checker_.num_checks();
  }

  const rel::CodedRelation& relation_;
  const OcdDiscoverOptions& options_;
  RunContext local_ctx_;
  RunContext* ctx_;
  PartitionChecker checker_;
  std::uint64_t checks_base_ = 0;
};

}  // namespace

OcdDiscoverResult DiscoverOcds(const rel::CodedRelation& relation,
                               const OcdDiscoverOptions& options) {
  Driver driver(relation, options);
  return driver.Run();
}

}  // namespace ocdd::core
