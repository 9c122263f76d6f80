#include "algo/fastod/fastod.h"

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

struct Pair {
  std::size_t a;  ///< a < b
  std::size_t b;

  friend bool operator==(const Pair& x, const Pair& y) {
    return x.a == y.a && x.b == y.b;
  }
  friend bool operator<(const Pair& x, const Pair& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }
};

struct Node {
  AttrSet set;
  StrippedPartition partition;
  AttrSet cc;                      ///< constancy candidates (TANE's C⁺)
  std::vector<Pair> swap_pairs;    ///< active pairs, context = set \ {a,b}
  std::vector<Pair> falsified;     ///< pairs whose check found a swap
};

struct SwapOutcome {
  bool swap = false;
  bool a_varies = false;  ///< some context class holds ≥ 2 distinct a-values
  bool b_varies = false;
};

/// Checks order compatibility of columns `a`, `b` within every class of the
/// context partition. A *swap* is a same-class pair of rows with
/// `a` strictly increasing and `b` strictly decreasing.
SwapOutcome CheckSwap(const rel::CodedRelation& relation,
                      const StrippedPartition& context, std::size_t a,
                      std::size_t b) {
  SwapOutcome out;
  const std::vector<std::int32_t>& ca = relation.column(a).codes;
  const std::vector<std::int32_t>& cb = relation.column(b).codes;

  std::vector<std::pair<std::int32_t, std::int32_t>> vals;
  for (const std::vector<std::uint32_t>& cls : context.classes()) {
    vals.clear();
    vals.reserve(cls.size());
    for (std::uint32_t row : cls) vals.emplace_back(ca[row], cb[row]);
    std::sort(vals.begin(), vals.end());

    if (vals.front().first != vals.back().first) out.a_varies = true;

    // Walk a-groups; track the max b seen in earlier groups.
    bool have_prev = false;
    std::int32_t prev_max_b = 0;
    std::size_t i = 0;
    while (i < vals.size()) {
      std::size_t j = i + 1;
      std::int32_t group_min_b = vals[i].second;
      std::int32_t group_max_b = vals[i].second;
      while (j < vals.size() && vals[j].first == vals[i].first) {
        group_max_b = std::max(group_max_b, vals[j].second);
        ++j;
      }
      if (group_min_b != group_max_b) out.b_varies = true;
      if (have_prev) {
        if (prev_max_b != group_min_b) out.b_varies = true;
        if (prev_max_b > group_min_b) {
          out.swap = true;
        }
      }
      prev_max_b = have_prev ? std::max(prev_max_b, group_max_b) : group_max_b;
      have_prev = true;
      i = j;
    }
    if (out.swap && out.a_varies && out.b_varies) return out;  // early exit
  }
  return out;
}

}  // namespace

FastodResult DiscoverFastod(const rel::CodedRelation& relation,
                            const FastodOptions& options) {
  WallTimer timer;
  FastodResult result;
  std::size_t n = relation.num_columns();
  std::size_t m = relation.num_rows();
  if (n == 0 || n > AttrSet::kMaxAttrs) {
    result.completed = n == 0;
    return result;
  }

  const AttrSet universe = AttrSet::FullUniverse(n);

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;
  if (options.max_checks != 0) ctx->set_check_budget(options.max_checks);
  if (options.time_limit_seconds > 0.0) {
    ctx->set_time_limit_seconds(options.time_limit_seconds);
  }

  // Partition history for the two preceding levels.
  std::unordered_map<AttrSet, StrippedPartition, AttrSetHash> hist_prev1;
  std::unordered_map<AttrSet, StrippedPartition, AttrSetHash> hist_prev2;

  std::vector<Node> level;
  std::size_t level_bytes = 0;
  std::size_t ell = 1;
  bool aborted = false;
  StopReason cap_reason = StopReason::kNone;

  CheckpointStats& ck = result.checkpoint_stats;
  ck.enabled = options.checkpoint.enabled();
  std::unique_ptr<SnapshotStore> snap;
  const std::uint64_t fingerprint = ck.enabled ? relation.Fingerprint() : 0;
  if (ck.enabled) {
    snap = std::make_unique<SnapshotStore>(options.checkpoint.dir, "fastod");
  }

  // Partitions are not persisted; any set's stripped partition can be
  // refolded from its attributes, so snapshots carry only the lattice sets.
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
    meta.U64(ell);
    meta.U64(result.num_checks);
    meta.U8(completed_flag ? 1 : 0);
    b.AddSection("meta", meta.Take());
    ByteWriter fr;
    fr.U32(static_cast<std::uint32_t>(level.size()));
    for (const Node& node : level) {
      fr.U64(node.set.lo);
      fr.U64(node.set.hi);
      fr.U64(node.cc.lo);
      fr.U64(node.cc.hi);
      fr.U32(static_cast<std::uint32_t>(node.swap_pairs.size()));
      for (const Pair& p : node.swap_pairs) {
        fr.U32(static_cast<std::uint32_t>(p.a));
        fr.U32(static_cast<std::uint32_t>(p.b));
      }
      fr.U32(static_cast<std::uint32_t>(node.falsified.size()));
      for (const Pair& p : node.falsified) {
        fr.U32(static_cast<std::uint32_t>(p.a));
        fr.U32(static_cast<std::uint32_t>(p.b));
      }
    }
    b.AddSection("frontier", fr.Take());
    ByteWriter hw;
    for (const auto* hist : {&hist_prev1, &hist_prev2}) {
      hw.U32(static_cast<std::uint32_t>(hist->size()));
      for (const auto& [set, part] : *hist) {
        hw.U64(set.lo);
        hw.U64(set.hi);
      }
    }
    b.AddSection("hist", hw.Take());
    ByteWriter ow;
    ow.U32(static_cast<std::uint32_t>(result.ods.size()));
    for (const od::CanonicalOd& dep : result.ods) {
      ow.U8(dep.kind == od::CanonicalOd::Kind::kConstancy ? 0 : 1);
      ow.IdVec(dep.context);
      ow.U32(static_cast<std::uint32_t>(dep.left));
      ow.U32(static_cast<std::uint32_t>(dep.right));
    }
    b.AddSection("ods", ow.Take());
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
    const std::string* hist_s = view.Find("hist");
    const std::string* ods_s = view.Find("ods");
    if (meta_s == nullptr || fr_s == nullptr || hist_s == nullptr ||
        ods_s == nullptr) {
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
    std::uint64_t s_ell = meta.U64();
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
      node.cc.lo = fr.U64();
      node.cc.hi = fr.U64();
      std::uint32_t num_pairs = fr.U32();
      for (std::uint32_t p = 0; p < num_pairs && fr.ok(); ++p) {
        std::size_t a = fr.U32();
        std::size_t b = fr.U32();
        node.swap_pairs.push_back(Pair{a, b});
      }
      std::uint32_t num_falsified = fr.U32();
      for (std::uint32_t p = 0; p < num_falsified && fr.ok(); ++p) {
        std::size_t a = fr.U32();
        std::size_t b = fr.U32();
        node.falsified.push_back(Pair{a, b});
      }
      restored.push_back(std::move(node));
    }
    if (!fr.ok()) {
      ck.warning = "resume skipped: snapshot frontier damaged";
      return false;
    }
    ByteReader hr(*hist_s);
    std::vector<AttrSet> hist1_sets;
    std::vector<AttrSet> hist2_sets;
    for (auto* sets : {&hist1_sets, &hist2_sets}) {
      std::uint32_t num = hr.U32();
      for (std::uint32_t i = 0; i < num && hr.ok(); ++i) {
        AttrSet s;
        s.lo = hr.U64();
        s.hi = hr.U64();
        sets->push_back(s);
      }
    }
    if (!hr.ok()) {
      ck.warning = "resume skipped: snapshot history damaged";
      return false;
    }
    ByteReader orr(*ods_s);
    std::uint32_t num_ods = orr.U32();
    std::vector<od::CanonicalOd> restored_ods;
    restored_ods.reserve(num_ods);
    for (std::uint32_t i = 0; i < num_ods && orr.ok(); ++i) {
      od::CanonicalOd dep;
      dep.kind = orr.U8() == 0 ? od::CanonicalOd::Kind::kConstancy
                               : od::CanonicalOd::Kind::kOrderCompatible;
      dep.context = orr.IdVec();
      dep.left = orr.U32();
      dep.right = orr.U32();
      restored_ods.push_back(std::move(dep));
    }
    if (!orr.ok()) {
      ck.warning = "resume skipped: snapshot ods damaged";
      return false;
    }
    // Commit: refold the frontier/history partitions and adopt the state.
    for (Node& node : restored) {
      node.partition = partition_for(node.set);
      std::size_t bytes = node.partition.MemoryBytes();
      if (!ctx->ChargeMemory(bytes)) {
        aborted = true;
        break;
      }
      level_bytes += bytes;
    }
    for (const AttrSet& s : hist1_sets) hist_prev1.emplace(s, partition_for(s));
    for (const AttrSet& s : hist2_sets) hist_prev2.emplace(s, partition_for(s));
    level = std::move(restored);
    ell = static_cast<std::size_t>(s_ell);
    result.num_checks = s_checks;
    result.ods = std::move(restored_ods);
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
    hist_prev1.emplace(AttrSet{}, StrippedPartition::ForEmptySet(m));
    // Level 1.
    level.reserve(n);
    for (std::size_t a = 0; a < n && !aborted; ++a) {
      Node node;
      node.set = AttrSet::Single(a);
      node.partition = StrippedPartition::ForColumn(relation, a);
      node.cc = universe;
      std::size_t bytes = node.partition.MemoryBytes();
      if (!ctx->ChargeMemory(bytes)) {
        aborted = true;
        break;
      }
      level_bytes += bytes;
      level.push_back(std::move(node));
    }
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
    ctx->AtInjectionPoint("fastod.level");
    if (options.max_level != 0 && ell > options.max_level) {
      aborted = true;
      cap_reason = StopReason::kLevelCap;
      break;
    }

    // --- constancy (FD) candidates, exactly TANE ---
    for (Node& node : level) {
      if (ctx->ShouldStop()) {
        aborted = true;
        break;
      }
      for (std::size_t a : node.set.Intersect(node.cc).ToVector()) {
        AttrSet lhs = node.set.WithoutAttr(a);
        auto it = hist_prev1.find(lhs);
        if (it == hist_prev1.end()) continue;
        ctx->AtInjectionPoint("fastod.fd_check");
        ++result.num_checks;
        ctx->CountCheck(1);
        if (it->second.error() == node.partition.error()) {
          od::CanonicalOd fd;
          fd.kind = od::CanonicalOd::Kind::kConstancy;
          for (std::size_t b : lhs.ToVector()) {
            fd.context.push_back(b);
          }
          fd.right = a;
          result.ods.push_back(std::move(fd));
          node.cc.Remove(a);
          node.cc = node.cc.Without(universe.Without(node.set));
        }
      }
    }
    if (aborted) break;

    // --- swap candidates ---
    for (Node& node : level) {
      if (ctx->ShouldStop()) {
        aborted = true;
        break;
      }
      for (const Pair& pair : node.swap_pairs) {
        AttrSet context_set =
            node.set.WithoutAttr(pair.a).WithoutAttr(pair.b);
        const StrippedPartition* context = nullptr;
        auto it = hist_prev2.find(context_set);
        if (it != hist_prev2.end()) context = &it->second;
        if (context == nullptr) continue;
        ctx->AtInjectionPoint("fastod.swap_check");
        ++result.num_checks;
        ctx->CountCheck(1);
        SwapOutcome outcome = CheckSwap(relation, *context, pair.a, pair.b);
        if (outcome.swap) {
          node.falsified.push_back(pair);
        } else if (outcome.a_varies && outcome.b_varies) {
          // Valid and not implied by a constancy OD over this context.
          od::CanonicalOd dep;
          dep.kind = od::CanonicalOd::Kind::kOrderCompatible;
          for (std::size_t c : context_set.ToVector()) {
            dep.context.push_back(c);
          }
          dep.left = pair.a;
          dep.right = pair.b;
          result.ods.push_back(std::move(dep));
        }
        // Valid-but-trivial pairs (a or b constant per class): the
        // constancy OD implies compatibility here and in every larger
        // context — neither emitted nor propagated.
      }
    }
    if (aborted) break;

    // --- prune nodes with nothing left to contribute ---
    std::vector<Node> kept;
    kept.reserve(level.size());
    for (Node& node : level) {
      if (!node.cc.empty() || !node.falsified.empty()) {
        kept.push_back(std::move(node));
      }
    }
    level = std::move(kept);

    // --- generate level ℓ+1 ---
    std::unordered_map<AttrSet, std::size_t, AttrSetHash> index;
    for (std::size_t i = 0; i < level.size(); ++i) {
      index.emplace(level[i].set, i);
    }
    hist_prev2 = std::move(hist_prev1);
    hist_prev1.clear();
    for (const Node& node : level) {
      hist_prev1.emplace(node.set, node.partition);
    }

    std::map<std::vector<std::size_t>, std::vector<std::size_t>> blocks;
    for (std::size_t i = 0; i < level.size(); ++i) {
      std::vector<std::size_t> attrs = level[i].set.ToVector();
      attrs.pop_back();
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

          bool all_present = true;
          AttrSet cc = universe;
          for (std::size_t c : y.ToVector()) {
            auto it = index.find(y.WithoutAttr(c));
            if (it == index.end()) {
              all_present = false;
              break;
            }
            cc = cc.Intersect(level[it->second].cc);
          }
          if (!all_present) continue;

          // A pair {a,b} is active in Y iff every immediate sub-node
          // swap-falsified it (valid pairs were pruned as implied).
          std::vector<Pair> pairs;
          if (ell >= 2) {
            std::vector<std::size_t> attrs = y.ToVector();
            for (std::size_t pi = 0; pi < attrs.size(); ++pi) {
              for (std::size_t pj = pi + 1; pj < attrs.size(); ++pj) {
                Pair pair{attrs[pi], attrs[pj]};
                bool active = true;
                for (std::size_t c : attrs) {
                  if (c == pair.a || c == pair.b) continue;
                  const Node& sub = level[index.at(y.WithoutAttr(c))];
                  if (std::find(sub.falsified.begin(), sub.falsified.end(),
                                pair) == sub.falsified.end()) {
                    active = false;
                    break;
                  }
                }
                if (active) pairs.push_back(pair);
              }
            }
          } else {
            // ell == 1: level-2 nodes get their single initial pair.
            std::vector<std::size_t> attrs = y.ToVector();
            pairs.push_back(Pair{attrs[0], attrs[1]});
          }

          if (cc.empty() && pairs.empty()) continue;
          ctx->AtInjectionPoint("fastod.generate");
          Node node;
          node.set = y;
          node.partition =
              StrippedPartition::Product(x1.partition, x2.partition, m);
          node.cc = cc;
          node.swap_pairs = std::move(pairs);
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
    ++ell;
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
  result.stop_state.level = ell;
  result.stop_state.frontier_size = level.size();

  od::SortUnique(result.ods);
  for (const od::CanonicalOd& dep : result.ods) {
    if (dep.kind == od::CanonicalOd::Kind::kConstancy) {
      ++result.num_constancy;
    } else {
      ++result.num_compatible;
    }
  }
  result.completed = !aborted;
  result.stop_reason = ctx->stop_reason() != StopReason::kNone
                           ? ctx->stop_reason()
                           : cap_reason;
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
