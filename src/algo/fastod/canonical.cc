#include "algo/fastod/canonical.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "algo/set_walk.h"
#include "od/dependency_set.h"

namespace ocdd::algo {

namespace {

/// A swap candidate `X\{a,b}: a↑ ~ b↑`, or `b↓` when `anti`; a < b. A
/// level holds millions of these, and an id fits a byte: a walked relation
/// has at most `AttrSet::kMaxAttrs` columns.
struct Pair {
  std::uint8_t a;
  std::uint8_t b;
  bool anti;

  friend bool operator==(const Pair&, const Pair&) = default;
};

/// The swap state of a set.
struct Swaps {
  std::vector<Pair> swap_pairs;  ///< active pairs, context = set \ {a,b}
  std::vector<Pair> falsified;   ///< pairs whose check found a swap
};

struct NoSwaps {};

/// What the canonical rules track per set: the constancy candidates, and
/// the swap state only when the walk checks swaps, so TANE's sets, of
/// which a level holds millions, carry no empty vectors.
template <bool kSwaps>
struct CanonicalState {
  AttrSet cc;  ///< constancy candidates (TANE's C⁺)
  [[no_unique_address]] std::conditional_t<kSwaps, Swaps, NoSwaps> swaps;
};

struct SwapOutcome {
  bool swap = false;
  bool a_varies = false;  ///< some context class holds ≥ 2 distinct a-values
  bool b_varies = false;
};

/// Checks columns `a`, `b` for a swap within every class of the context
/// partition: two rows of one class with `a` strictly increasing and `b`
/// strictly decreasing, or strictly increasing when `anti`.
SwapOutcome CheckSwap(const rel::CodedRelation& relation,
                      const StrippedPartition& context, std::size_t a,
                      std::size_t b, bool anti) {
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

    // Walk the a-groups; track the b range of the earlier groups.
    bool have_prev = false;
    std::int32_t prev_max_b = 0;
    std::int32_t prev_min_b = 0;
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
        if (!anti && prev_max_b > group_min_b) out.swap = true;
        if (anti && prev_min_b < group_max_b) out.swap = true;
        prev_max_b = std::max(prev_max_b, group_max_b);
        prev_min_b = std::min(prev_min_b, group_min_b);
      } else {
        prev_max_b = group_max_b;
        prev_min_b = group_min_b;
      }
      have_prev = true;
      i = j;
    }
    if (out.swap && out.a_varies && out.b_varies) return out;  // early exit
  }
  return out;
}

/// The canonical rules (see `DiscoverCanonical`) for `SetLevelWalk`;
/// `kSwaps` iff the spec checks a polarity.
template <bool kSwaps>
class CanonicalRules {
 public:
  using State = CanonicalState<kSwaps>;
  using Node = SetNode<State>;
  static constexpr int kPhases = 2;  // constancy, then swaps

  CanonicalRules(const rel::CodedRelation& relation, const CanonicalSpec& spec,
                 std::vector<BidCanonicalOd>& ods)
      : relation_(relation),
        spec_(spec),
        universe_(AttrSet::FullUniverse(relation.num_columns())),
        ods_(ods) {
    if (spec.polarities != Polarities::kNone) anti_.push_back(false);
    if (spec.polarities == Polarities::kBoth) anti_.push_back(true);
  }

  bool reads_contexts() const { return !anti_.empty(); }
  State Seed() const { return State{universe_, {}}; }

  template <typename Count>
  void Check(int phase, Node& node, const SetHistory& history,
             Count&& count) {
    State& s = node.state;
    if (phase == 0) {
      for (std::size_t a : node.set.Intersect(s.cc).ToVector()) {
        const AttrSet lhs = node.set.WithoutAttr(a);
        auto it = history.errors.find(lhs);
        if (it == history.errors.end()) continue;  // the subset was dropped
        count(spec_.constancy_point);
        if (it->second != node.partition.error()) continue;
        ods_.push_back({BidCanonicalOd::Kind::kConstancy, lhs.ToVector(), 0,
                        a});
        s.cc.Remove(a);
        s.cc = s.cc.Without(universe_.Without(node.set));
      }
      return;
    }
    if constexpr (kSwaps) CheckSwaps(node, history, count);
  }

  bool Keep(const Node& node) const {
    if constexpr (kSwaps) {
      if (!node.state.swaps.falsified.empty()) return true;
    }
    return !node.state.cc.empty();
  }

  /// The child's C⁺ is its subsets' intersection; a pair is active iff
  /// every immediate subset holding both attributes falsified it, so each
  /// pair of a two-attribute child starts active.
  std::optional<State> Join(const std::vector<std::size_t>& attrs,
                            const std::vector<const Node*>& subsets) const {
    State s{universe_, {}};
    for (const Node* sub : subsets) s.cc = s.cc.Intersect(sub->state.cc);
    if constexpr (kSwaps) {
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        for (std::size_t j = i + 1; j < attrs.size(); ++j) {
          for (bool anti : anti_) {
            const Pair pair{static_cast<std::uint8_t>(attrs[i]),
                            static_cast<std::uint8_t>(attrs[j]), anti};
            bool active = true;
            for (std::size_t k = 0; k < attrs.size() && active; ++k) {
              if (k == i || k == j) continue;
              const std::vector<Pair>& f = subsets[k]->state.swaps.falsified;
              active = std::find(f.begin(), f.end(), pair) != f.end();
            }
            if (active) s.swaps.swap_pairs.push_back(pair);
          }
        }
      }
      if (!s.swaps.swap_pairs.empty()) return s;
    }
    if (s.cc.empty()) return std::nullopt;
    return s;
  }

 private:
  template <typename Count>
  void CheckSwaps(Node& node, const SetHistory& history, Count&& count) {
    Swaps& s = node.state.swaps;
    for (const Pair& pair : s.swap_pairs) {
      const AttrSet context = node.set.WithoutAttr(pair.a).WithoutAttr(pair.b);
      auto it = history.contexts.find(context);
      if (it == history.contexts.end()) continue;
      count(spec_.swap_point);
      const SwapOutcome outcome =
          CheckSwap(relation_, it->second, pair.a, pair.b, pair.anti);
      if (outcome.swap) {
        s.falsified.push_back(pair);
      } else if (outcome.a_varies && outcome.b_varies) {
        // Valid and not implied by a constancy OD over this context.
        ods_.push_back({pair.anti ? BidCanonicalOd::Kind::kAntiConcordant
                                  : BidCanonicalOd::Kind::kConcordant,
                        context.ToVector(), pair.a, pair.b});
      }
    }
  }

  const rel::CodedRelation& relation_;
  const CanonicalSpec& spec_;
  const AttrSet universe_;
  std::vector<bool> anti_;  ///< the polarities checked
  std::vector<BidCanonicalOd>& ods_;
};

void WriteSet(ByteWriter& w, const AttrSet& s) {
  w.U64(s.lo);
  w.U64(s.hi);
}

AttrSet ReadSet(ByteReader& r) {
  AttrSet s;
  s.lo = r.U64();
  s.hi = r.U64();
  return s;
}

void WritePairs(ByteWriter& w, const std::vector<Pair>& pairs) {
  w.U32(static_cast<std::uint32_t>(pairs.size()));
  for (const Pair& p : pairs) {
    w.U32(static_cast<std::uint32_t>(p.a));
    w.U32(static_cast<std::uint32_t>(p.b));
  }
}

/// Snapshots carry concordant pairs only: FASTOD-BID does not checkpoint.
std::vector<Pair> ReadPairs(ByteReader& r) {
  std::vector<Pair> pairs;
  const std::uint32_t count = r.U32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const auto a = static_cast<std::uint8_t>(r.U32());
    pairs.push_back(Pair{a, static_cast<std::uint8_t>(r.U32()), false});
  }
  return pairs;
}

template <typename SetMap>
void WriteSets(ByteWriter& w, const SetMap& sets) {
  w.U32(static_cast<std::uint32_t>(sets.size()));
  for (const auto& entry : sets) WriteSet(w, entry.first);
}

std::vector<AttrSet> ReadSets(ByteReader& r) {
  std::vector<AttrSet> sets;
  const std::uint32_t count = r.U32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    sets.push_back(ReadSet(r));
  }
  return sets;
}

/// `DiscoverCanonical` under `CanonicalRules<kSwaps>`.
template <bool kSwaps>
CanonicalResult Walk(const rel::CodedRelation& relation,
                     const CanonicalSpec& spec, RunContext* run_context,
                     std::size_t max_level,
                     const CheckpointConfig& checkpoint) {
  using Rules = CanonicalRules<kSwaps>;
  CanonicalResult result;
  RunContext local_ctx;
  RunContext& ctx = run_context != nullptr ? *run_context : local_ctx;
  Rules rules(relation, spec, result.ods);
  SetLevelWalk<Rules> walk(spec.name, rules, relation, ctx, result,
                           max_level);

  // Crash-safe checkpoints (docs/checkpointing.md): the state at a level
  // boundary. Partitions are refolded from the sets on resume.
  CheckpointStats& ck = result.checkpoint_stats;
  ck.enabled = checkpoint.enabled();
  std::unique_ptr<SnapshotStore> snap;
  const std::uint64_t fingerprint = ck.enabled ? relation.Fingerprint() : 0;
  if (ck.enabled) {
    snap = std::make_unique<SnapshotStore>(checkpoint.dir, spec.name);
  }

  auto encode_state = [&](bool completed_flag) {
    SnapshotBuilder b;
    ByteWriter meta;
    meta.U32(spec.state_version);
    meta.U64(fingerprint);
    meta.U64(walk.current_level());
    meta.U64(result.num_checks);
    meta.U8(completed_flag ? 1 : 0);
    b.AddSection("meta", meta.Take());
    ByteWriter fr;
    fr.U32(static_cast<std::uint32_t>(walk.level().size()));
    for (const typename Rules::Node& node : walk.level()) {
      WriteSet(fr, node.set);
      WriteSet(fr, node.state.cc);
      if constexpr (kSwaps) {
        WritePairs(fr, node.state.swaps.swap_pairs);
        WritePairs(fr, node.state.swaps.falsified);
      } else {
        // TANE's format 2 keeps the two pair lists, always empty.
        WritePairs(fr, {});
        WritePairs(fr, {});
      }
    }
    b.AddSection("frontier", fr.Take());
    ByteWriter hw;
    WriteSets(hw, walk.history().errors);
    WriteSets(hw, walk.history().contexts);
    b.AddSection("hist", hw.Take());
    ByteWriter ow;
    ow.U32(static_cast<std::uint32_t>(result.ods.size()));
    for (const BidCanonicalOd& dep : result.ods) {
      ow.U8(static_cast<std::uint8_t>(dep.kind));
      ow.IdVec(dep.context);
      ow.U32(static_cast<std::uint32_t>(dep.left));
      ow.U32(static_cast<std::uint32_t>(dep.right));
    }
    b.AddSection("ods", ow.Take());
    return b.Encode();
  };

  auto write_snapshot = [&](const std::string& blob) {
    Result<std::uint64_t> gen = snap->Write(blob, checkpoint.keep_generations);
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
    if (meta_s == nullptr) {
      ck.warning = "resume skipped: snapshot missing sections";
      return false;
    }
    ByteReader meta(*meta_s);
    // TANE's format 1 names its sections `errors` and `fds`, stores no
    // pairs, and numbers a level by its LHS size, one less than |X|.
    const std::uint32_t version = meta.U32();
    const bool tane_v1 = version == 1 && spec.polarities == Polarities::kNone;
    if (version != spec.state_version && !tane_v1) {
      ck.warning = "resume skipped: unknown snapshot state version";
      return false;
    }
    if (meta.U64() != fingerprint) {
      ck.warning = "resume skipped: snapshot is for a different relation";
      return false;
    }
    const std::uint64_t s_level = meta.U64() + (tane_v1 ? 1 : 0);
    const std::uint64_t s_checks = meta.U64();
    meta.U8();  // completed flag; an empty frontier says the same thing
    if (!meta.ok()) {
      ck.warning = "resume skipped: snapshot meta damaged";
      return false;
    }
    const std::string* fr_s = view.Find("frontier");
    const std::string* hist_s = view.Find(tane_v1 ? "errors" : "hist");
    const std::string* ods_s = view.Find(tane_v1 ? "fds" : "ods");
    if (fr_s == nullptr || hist_s == nullptr || ods_s == nullptr) {
      ck.warning = "resume skipped: snapshot missing sections";
      return false;
    }
    ByteReader fr(*fr_s);
    std::vector<typename Rules::Node> nodes;
    const std::uint32_t num_nodes = fr.U32();
    for (std::uint32_t i = 0; i < num_nodes && fr.ok(); ++i) {
      typename Rules::Node node;
      node.set = ReadSet(fr);
      node.state.cc = ReadSet(fr);
      if (!tane_v1) {
        std::vector<Pair> swap_pairs = ReadPairs(fr);
        std::vector<Pair> falsified = ReadPairs(fr);
        if constexpr (kSwaps) {
          node.state.swaps = Swaps{std::move(swap_pairs), std::move(falsified)};
        }
      }
      nodes.push_back(std::move(node));
    }
    if (!fr.ok()) {
      ck.warning = "resume skipped: snapshot frontier damaged";
      return false;
    }
    ByteReader hr(*hist_s);
    std::vector<AttrSet> below;
    std::vector<AttrSet> two_below;
    if (tane_v1) {
      const std::uint32_t num_errors = hr.U32();
      for (std::uint32_t i = 0; i < num_errors && hr.ok(); ++i) {
        below.push_back(ReadSet(hr));
        hr.U64();  // the error, refolded with the partition
      }
    } else {
      below = ReadSets(hr);
      two_below = ReadSets(hr);
    }
    if (!hr.ok()) {
      ck.warning = "resume skipped: snapshot history damaged";
      return false;
    }
    ByteReader orr(*ods_s);
    std::vector<BidCanonicalOd> ods;
    const std::uint32_t num_ods = orr.U32();
    for (std::uint32_t i = 0; i < num_ods && orr.ok(); ++i) {
      BidCanonicalOd dep;
      if (!tane_v1) {
        dep.kind = static_cast<BidCanonicalOd::Kind>(
            std::min<std::uint8_t>(orr.U8(), 2));
      }
      dep.context = orr.IdVec();
      if (!tane_v1) dep.left = orr.U32();
      dep.right = orr.U32();
      ods.push_back(std::move(dep));
    }
    if (!orr.ok()) {
      ck.warning = "resume skipped: snapshot ods damaged";
      return false;
    }
    // Commit: the walk refolds and charges the partitions.
    walk.Resume(static_cast<std::size_t>(s_level), std::move(nodes), below,
                two_below);
    result.num_checks = s_checks;
    result.ods = std::move(ods);
    return true;
  };

  bool resumed = false;
  if (snap && checkpoint.resume) {
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

  // The state at the start of the level in flight: written on cadence,
  // and at drain when the run stops mid-level.
  std::string pending_blob;
  bool pending_written = true;
  walk.Run([&] {
    if (!snap) return;
    pending_blob = encode_state(false);
    pending_written = false;
    if (ctx.CheckpointDue()) pending_written = write_snapshot(pending_blob);
  });
  // A finished run writes a final generation (empty frontier), so resuming
  // it is a no-op that returns the full result.
  if (snap) {
    if (result.completed) {
      write_snapshot(encode_state(true));
    } else if (!pending_written && !pending_blob.empty()) {
      write_snapshot(pending_blob);
    }
  }

  od::SortUnique(result.ods);
  return result;
}

}  // namespace

CanonicalResult DiscoverCanonical(const rel::CodedRelation& relation,
                                  const CanonicalSpec& spec,
                                  RunContext* run_context,
                                  std::size_t max_level,
                                  const CheckpointConfig& checkpoint) {
  return spec.polarities == Polarities::kNone
             ? Walk<false>(relation, spec, run_context, max_level, checkpoint)
             : Walk<true>(relation, spec, run_context, max_level, checkpoint);
}

}  // namespace ocdd::algo
