#include "algo/fd/tane.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "algo/attr_set.h"
#include "algo/partition/stripped_partition.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "common/timer.h"
#include "od/dependency_set.h"

namespace ocdd::algo {

namespace {

struct Node {
  AttrSet set;
  StrippedPartition partition;
  AttrSet cplus;  ///< TANE's C⁺(X): still-possible RHS attributes
};

}  // namespace

TaneResult DiscoverFds(const rel::CodedRelation& relation,
                       const TaneOptions& options) {
  WallTimer timer;
  TaneResult result;
  std::size_t n = relation.num_columns();
  std::size_t m = relation.num_rows();
  if (n == 0 || n > AttrSet::kMaxAttrs) {
    result.completed = n == 0;
    return result;
  }

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;
  if (options.max_checks != 0) ctx->set_check_budget(options.max_checks);
  if (options.time_limit_seconds > 0.0) {
    ctx->set_time_limit_seconds(options.time_limit_seconds);
  }

  const AttrSet universe = AttrSet::FullUniverse(n);
  const std::size_t empty_error = m >= 2 ? m - 1 : 0;  // e(π(∅))

  std::vector<Node> level;
  std::size_t level_bytes = 0;
  bool aborted = false;

  // Errors of the previous level's partitions, for the e(X\A) lookups.
  std::unordered_map<AttrSet, std::size_t, AttrSetHash> prev_errors;

  std::size_t lhs_size = 0;  // |X\A| at the current level

  CheckpointStats& ck = result.checkpoint_stats;
  ck.enabled = options.checkpoint.enabled();
  std::unique_ptr<SnapshotStore> snap;
  const std::uint64_t fingerprint = ck.enabled ? relation.Fingerprint() : 0;
  if (ck.enabled) {
    snap = std::make_unique<SnapshotStore>(options.checkpoint.dir, "tane");
  }

  auto partition_for = [&](const AttrSet& s) {
    std::vector<std::size_t> attrs = s.ToVector();
    if (attrs.empty()) return StrippedPartition::ForEmptySet(m);
    StrippedPartition p = StrippedPartition::ForColumn(relation, attrs[0]);
    for (std::size_t i = 1; i < attrs.size(); ++i) {
      p = StrippedPartition::Product(
          p, StrippedPartition::ForColumn(relation, attrs[i]), m);
    }
    return p;
  };

  auto encode_state = [&](bool completed_flag) {
    SnapshotBuilder b;
    ByteWriter meta;
    meta.U32(1);  // state format version
    meta.U64(fingerprint);
    meta.U64(lhs_size);
    meta.U64(result.num_checks);
    meta.U8(completed_flag ? 1 : 0);
    b.AddSection("meta", meta.Take());
    ByteWriter fr;
    fr.U32(static_cast<std::uint32_t>(level.size()));
    for (const Node& node : level) {
      fr.U64(node.set.lo);
      fr.U64(node.set.hi);
      fr.U64(node.cplus.lo);
      fr.U64(node.cplus.hi);
    }
    b.AddSection("frontier", fr.Take());
    ByteWriter er;
    er.U32(static_cast<std::uint32_t>(prev_errors.size()));
    for (const auto& [set, error] : prev_errors) {
      er.U64(set.lo);
      er.U64(set.hi);
      er.U64(error);
    }
    b.AddSection("errors", er.Take());
    ByteWriter fw;
    fw.U32(static_cast<std::uint32_t>(result.fds.size()));
    for (const od::FunctionalDependency& fd : result.fds) {
      fw.IdVec(fd.lhs);
      fw.U32(static_cast<std::uint32_t>(fd.rhs));
    }
    b.AddSection("fds", fw.Take());
    return b.Encode();
  };

  auto write_snapshot = [&](const std::string& blob) {
    Result<std::uint64_t> gen =
        snap->Write(blob, options.checkpoint.keep_generations);
    if (gen.ok()) {
      ++ck.snapshots_written;
      ctx->MarkCheckpointed();
      return true;
    }
    ck.warning = gen.status().message();
    return false;
  };

  auto decode_state = [&](const SnapshotView& view) {
    const std::string* meta_s = view.Find("meta");
    const std::string* fr_s = view.Find("frontier");
    const std::string* err_s = view.Find("errors");
    const std::string* fds_s = view.Find("fds");
    if (meta_s == nullptr || fr_s == nullptr || err_s == nullptr ||
        fds_s == nullptr) {
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
    std::uint64_t s_lhs_size = meta.U64();
    std::uint64_t s_checks = meta.U64();
    meta.U8();  // completed flag; an empty frontier says the same thing
    if (!meta.ok()) {
      ck.warning = "resume skipped: snapshot meta damaged";
      return false;
    }
    ByteReader fr(*fr_s);
    std::uint32_t count = fr.U32();
    std::vector<Node> restored;
    restored.reserve(count);
    for (std::uint32_t i = 0; i < count && fr.ok(); ++i) {
      Node node;
      node.set.lo = fr.U64();
      node.set.hi = fr.U64();
      node.cplus.lo = fr.U64();
      node.cplus.hi = fr.U64();
      restored.push_back(std::move(node));
    }
    if (!fr.ok()) {
      ck.warning = "resume skipped: snapshot frontier damaged";
      return false;
    }
    ByteReader er(*err_s);
    std::uint32_t num_errors = er.U32();
    std::unordered_map<AttrSet, std::size_t, AttrSetHash> restored_errors;
    for (std::uint32_t i = 0; i < num_errors && er.ok(); ++i) {
      AttrSet s;
      s.lo = er.U64();
      s.hi = er.U64();
      restored_errors.emplace(s, static_cast<std::size_t>(er.U64()));
    }
    if (!er.ok()) {
      ck.warning = "resume skipped: snapshot errors damaged";
      return false;
    }
    ByteReader fre(*fds_s);
    std::uint32_t num_fds = fre.U32();
    std::vector<od::FunctionalDependency> restored_fds;
    restored_fds.reserve(num_fds);
    for (std::uint32_t i = 0; i < num_fds && fre.ok(); ++i) {
      od::FunctionalDependency fd;
      fd.lhs = fre.IdVec();
      fd.rhs = fre.U32();
      restored_fds.push_back(std::move(fd));
    }
    if (!fre.ok()) {
      ck.warning = "resume skipped: snapshot fds damaged";
      return false;
    }
    // Commit: refold the frontier partitions and adopt the state.
    for (Node& node : restored) {
      node.partition = partition_for(node.set);
      std::size_t bytes = node.partition.MemoryBytes();
      if (!ctx->ChargeMemory(bytes)) {
        aborted = true;
        break;
      }
      level_bytes += bytes;
    }
    level = std::move(restored);
    prev_errors = std::move(restored_errors);
    lhs_size = static_cast<std::size_t>(s_lhs_size);
    result.num_checks = s_checks;
    result.fds = std::move(restored_fds);
    return true;
  };

  bool resumed = false;
  if (ck.enabled && options.checkpoint.resume) {
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
    // Level 1.
    level.reserve(n);
    for (std::size_t a = 0; a < n && !aborted; ++a) {
      Node node;
      node.set = AttrSet::Single(a);
      node.partition = StrippedPartition::ForColumn(relation, a);
      node.cplus = universe;
      std::size_t bytes = node.partition.MemoryBytes();
      if (!ctx->ChargeMemory(bytes)) {
        aborted = true;
        break;
      }
      level_bytes += bytes;
      level.push_back(std::move(node));
    }
    prev_errors.emplace(AttrSet{}, empty_error);
  }

  std::string pending_blob;
  bool pending_written = true;
  try {
    while (!level.empty() && !aborted) {
      if (snap) {
        pending_blob = encode_state(false);
        pending_written = false;
        if (ctx->CheckpointDue()) {
          pending_written = write_snapshot(pending_blob);
        }
      }
      ctx->AtInjectionPoint("tane.level");
      if (options.max_lhs_size != 0 && lhs_size > options.max_lhs_size) break;

      // --- compute dependencies ---
      for (Node& node : level) {
        if (ctx->ShouldStop()) {
          aborted = true;
          break;
        }
        for (std::size_t a : node.set.Intersect(node.cplus).ToVector()) {
          AttrSet lhs = node.set.WithoutAttr(a);
          auto it = prev_errors.find(lhs);
          if (it == prev_errors.end()) continue;  // subset was pruned
          ctx->AtInjectionPoint("tane.check");
          ++result.num_checks;
          ctx->CountCheck(1);
          if (it->second == node.partition.error()) {
            od::FunctionalDependency fd;
            for (std::size_t b : lhs.ToVector()) fd.lhs.push_back(b);
            fd.rhs = a;
            result.fds.push_back(std::move(fd));
            node.cplus.Remove(a);
            node.cplus = node.cplus.Without(universe.Without(node.set));
          }
        }
      }
      if (aborted) break;

      // --- prune nodes with empty C⁺ ---
      std::vector<Node> kept;
      kept.reserve(level.size());
      for (Node& node : level) {
        if (!node.cplus.empty()) kept.push_back(std::move(node));
      }
      level = std::move(kept);

      // --- generate the next level (prefix-block join) ---
      prev_errors.clear();
      std::unordered_map<AttrSet, std::size_t, AttrSetHash> index;
      for (std::size_t i = 0; i < level.size(); ++i) {
        index.emplace(level[i].set, i);
        prev_errors.emplace(level[i].set, level[i].partition.error());
      }

      std::map<std::vector<std::size_t>, std::vector<std::size_t>> blocks;
      for (std::size_t i = 0; i < level.size(); ++i) {
        std::vector<std::size_t> attrs = level[i].set.ToVector();
        attrs.pop_back();  // prefix = all but the largest attribute
        blocks[attrs].push_back(i);
      }

      std::vector<Node> next;
      std::size_t next_bytes = 0;
      for (const auto& [prefix, members] : blocks) {
        if (aborted) break;
        for (std::size_t i = 0; i < members.size() && !aborted; ++i) {
          for (std::size_t j = i + 1; j < members.size(); ++j) {
            if (ctx->ShouldStop()) {
              aborted = true;
              break;
            }
            const Node& x1 = level[members[i]];
            const Node& x2 = level[members[j]];
            AttrSet y = x1.set.Union(x2.set);
            // All immediate subsets must have survived pruning.
            bool all_present = true;
            AttrSet cplus = universe;
            for (std::size_t c : y.ToVector()) {
              auto it = index.find(y.WithoutAttr(c));
              if (it == index.end()) {
                all_present = false;
                break;
              }
              cplus = cplus.Intersect(level[it->second].cplus);
            }
            if (!all_present || cplus.empty()) continue;
            ctx->AtInjectionPoint("tane.generate");
            Node node;
            node.set = y;
            node.partition =
                StrippedPartition::Product(x1.partition, x2.partition, m);
            node.cplus = cplus;
            std::size_t bytes = node.partition.MemoryBytes();
            if (!ctx->ChargeMemory(bytes)) {
              aborted = true;
              break;
            }
            next_bytes += bytes;
            next.push_back(std::move(node));
          }
        }
      }
      if (aborted) break;
      level = std::move(next);
      ctx->ReleaseMemory(level_bytes);
      level_bytes = next_bytes;
      ++lhs_size;
    }
  } catch (const FaultInjectedError&) {
    ctx->RequestStop(StopReason::kFaultInjected);
    aborted = true;
  }
  ctx->ReleaseMemory(level_bytes);

  aborted = aborted || ctx->stop_requested();

  // Drain-to-checkpoint (see ocd_discover.cc for the protocol).
  if (snap) {
    if (aborted) {
      if (!pending_written && !pending_blob.empty()) {
        write_snapshot(pending_blob);
      }
    } else {
      level.clear();
      write_snapshot(encode_state(true));
    }
  }

  result.stop_state.checks = result.num_checks;
  result.stop_state.level = lhs_size;
  result.stop_state.frontier_size = level.size();

  od::SortUnique(result.fds);
  result.completed = !aborted;
  result.stop_reason = ctx->stop_reason();
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
