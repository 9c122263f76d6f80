#ifndef OCDD_ALGO_SET_WALK_H_
#define OCDD_ALGO_SET_WALK_H_

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/attr_set.h"
#include "algo/partition/stripped_partition.h"
#include "common/run_context.h"
#include "core/level_walk.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

/// A set of the level in flight: its attributes, its stripped partition
/// π̂(X) and what the rules track for it.
template <typename State>
struct SetNode {
  AttrSet set;
  StrippedPartition partition;
  State state;
};

using SetPartitions =
    std::unordered_map<AttrSet, StrippedPartition, AttrSetHash>;

/// The kept sets of the levels below the level in flight, as the rules
/// read them.
struct SetHistory {
  /// e(π(X)) of each kept set one level below.
  std::unordered_map<AttrSet, std::size_t, AttrSetHash> errors;
  /// π̂(X) of each kept set two levels below, when the rules read these
  /// swap contexts.
  SetPartitions contexts;
};

/// The breadth-first walk over the attribute-set lattice that TANE,
/// FASTOD, FASTOD-BID and UCC share: `core::LevelWalk`'s counterpart for
/// sets. Level ℓ holds sets with ℓ attributes; level 1 holds the single
/// columns, with ∅ as the level below. Per level it runs the
/// level-boundary hook; makes `Rules::kPhases` check passes over the level,
/// polling the stops before each set; drops the sets `Rules::Keep`
/// rejects; and joins the rest. Two kept sets equal but for their largest
/// attribute (a prefix block) make their union a child when every
/// immediate subset of it was kept and `Rules::Join` gives it a state; its
/// partition is the product of its parents'. At level `max_level` such a
/// child stops the walk with `kLevelCap` instead, building nothing. A
/// level stays in lexicographic order of its attribute vectors, so a
/// prefix block is a run of neighbours and a stop leaves the same partial
/// result whatever the run. Injection points `<name>.level` and
/// `<name>.generate` mark each level and each child built; the rules name
/// their checks' points.
///
/// The walk keeps the errors of the kept sets one level below, and, when
/// `Rules::reads_contexts()`, the partitions of the kept sets one and two
/// levels below, moved out of their levels. Partitions are charged to the
/// memory budget from when they are built until they are dropped: two
/// levels below once the checks of a level are done.
///
/// `Rules` supplies:
///
///     using State = ...;                 // what it tracks per set
///     static constexpr int kPhases;      // check passes per level
///     bool reads_contexts() const;       // Check reads history.contexts
///     State Seed() const;                // a single column's state
///     template <typename Count>          // count(point) before each check
///     void Check(int phase, SetNode<State>&, const SetHistory& history,
///                Count&& count);
///     bool Keep(const SetNode<State>&) const;
///     // subsets[k]: the kept set of `attrs` without attrs[k]
///     std::optional<State> Join(const std::vector<std::size_t>& attrs,
///         const std::vector<const SetNode<State>*>& subsets) const;
template <typename Rules>
class SetLevelWalk {
 public:
  using Node = SetNode<typename Rules::State>;

  /// Reports into `counters`; `max_level` 0 = no level cap. A relation
  /// wider than `AttrSet::kMaxAttrs` is not walked and reports
  /// `completed = false`.
  SetLevelWalk(const char* name, Rules& rules,
               const rel::CodedRelation& relation, RunContext& ctx,
               core::WalkCounters& counters, std::size_t max_level)
      : rules_(rules),
        relation_(relation),
        ctx_(ctx),
        counters_(counters),
        max_level_(max_level),
        level_point_(std::string(name) + ".level"),
        generate_point_(std::string(name) + ".generate") {}

  /// Level 1, one set per column. A refused charge latches
  /// `kMemoryBudget`, which ends the walk.
  void Seed() {
    if (!Walkable()) return;
    Remember(AttrSet{}, StrippedPartition::ForEmptySet(relation_.num_rows()));
    for (std::size_t a = 0; a < relation_.num_columns(); ++a) {
      Node node{AttrSet::Single(a), StrippedPartition::ForColumn(relation_, a),
                rules_.Seed()};
      if (!Add(level_, level_bytes_, std::move(node))) break;
    }
    counters_.candidates_generated += level_.size();
  }

  /// Resumes at the boundary of level `level`, whose sets are `nodes`,
  /// with the kept sets of the two levels below. Partitions are refolded
  /// from the columns.
  void Resume(std::size_t level, std::vector<Node> nodes,
              const std::vector<AttrSet>& below,
              const std::vector<AttrSet>& two_below) {
    level_number_ = level;
    for (const AttrSet& s : below) Remember(s, Fold(s));
    for (const AttrSet& s : two_below) {
      if (!rules_.reads_contexts()) break;
      KeepContext(history_.contexts, contexts_bytes_, s, Fold(s));
    }
    for (Node& node : nodes) {
      node.partition = Fold(node.set);
      if (!Add(level_, level_bytes_, std::move(node))) break;
    }
  }

  /// Walks until a level is empty or the walk stops, then fills the
  /// counters. `at_level()` runs at each level boundary. Every stop but
  /// the cap is latched on the RunContext.
  template <typename AtLevel>
  void Run(AtLevel&& at_level) {
    if (!Walkable()) {
      counters_.completed = relation_.num_columns() == 0;
      return;
    }
    auto count = [this](const char* point) {
      ctx_.AtInjectionPoint(point);
      ++counters_.num_checks;
      ctx_.CountCheck(1);
    };
    StopReason cap = StopReason::kNone;
    std::vector<Node> next;
    std::size_t next_bytes = 0;
    try {
      while (!level_.empty() && ctx_.stop_reason() == StopReason::kNone) {
        at_level();
        ctx_.AtInjectionPoint(level_point_.c_str());
        bool stopped = false;
        for (int phase = 0; phase < Rules::kPhases && !stopped; ++phase) {
          for (Node& node : level_) {
            if ((stopped = ctx_.ShouldStop())) break;
            rules_.Check(phase, node, history_, count);
          }
        }
        if (stopped) break;
        counters_.levels_completed = level_number_;

        std::vector<Node> kept;
        kept.reserve(level_.size());
        for (Node& node : level_) {
          if (rules_.Keep(node)) {
            kept.push_back(std::move(node));
          } else {
            const std::size_t bytes = node.partition.MemoryBytes();
            ctx_.ReleaseMemory(bytes);
            level_bytes_ -= bytes;
          }
        }
        level_ = std::move(kept);
        // Only this level's checks read two levels below.
        ctx_.ReleaseMemory(contexts_bytes_);
        history_.contexts = {};
        contexts_bytes_ = 0;

        // The prefix-block join; the last level only looks for a child.
        std::unordered_map<AttrSet, std::size_t, AttrSetHash> index;
        index.reserve(level_.size());
        for (std::size_t i = 0; i < level_.size(); ++i) {
          index.emplace(level_[i].set, i);
        }
        const bool last_level =
            max_level_ != 0 && level_number_ >= max_level_;
        std::vector<const Node*> subsets;
        for (std::size_t begin = 0, end = 0; begin < level_.size() && !stopped;
             begin = end) {
          const AttrSet prefix = level_[begin].set.WithoutLargest();
          end = begin + 1;
          while (end < level_.size() &&
                 level_[end].set.WithoutLargest() == prefix) {
            ++end;
          }
          for (std::size_t i = begin; i < end && !stopped; ++i) {
            for (std::size_t j = i + 1; j < end; ++j) {
              if ((stopped = ctx_.ShouldStop())) break;
              const AttrSet y = level_[i].set.Union(level_[j].set);
              const std::vector<std::size_t> attrs = y.ToVector();
              subsets.clear();
              for (std::size_t c : attrs) {
                auto it = index.find(y.WithoutAttr(c));
                if (it == index.end()) break;
                subsets.push_back(&level_[it->second]);
              }
              if (subsets.size() < attrs.size()) continue;
              std::optional<typename Rules::State> state =
                  rules_.Join(attrs, subsets);
              if (!state) continue;
              if (last_level) {
                cap = StopReason::kLevelCap;
                stopped = true;
                break;
              }
              ctx_.AtInjectionPoint(generate_point_.c_str());
              Node child{y,
                         StrippedPartition::Product(level_[i].partition,
                                                    level_[j].partition,
                                                    relation_.num_rows()),
                         std::move(*state)};
              if (!Add(next, next_bytes, std::move(child))) {
                stopped = true;
                break;
              }
            }
          }
        }
        if (cap != StopReason::kNone) {
          // Capped: report the level not built, as a completed walk does.
          ctx_.ReleaseMemory(level_bytes_);
          level_bytes_ = 0;
          level_.clear();
          ++level_number_;
        }
        if (stopped) break;

        // This level's kept sets become the level below; the join's
        // index becomes their errors.
        for (auto& entry : index) {
          entry.second = level_[entry.second].partition.error();
        }
        history_.errors = std::move(index);
        history_.contexts = std::move(below_contexts_);
        contexts_bytes_ = below_contexts_bytes_;
        below_contexts_ = {};
        below_contexts_bytes_ = 0;
        if (rules_.reads_contexts()) {
          below_contexts_.reserve(level_.size());
          for (Node& node : level_) {
            below_contexts_.emplace(node.set, std::move(node.partition));
          }
          below_contexts_bytes_ = level_bytes_;
        } else {
          ctx_.ReleaseMemory(level_bytes_);
        }
        level_ = std::move(next);
        level_bytes_ = next_bytes;
        next = {};
        next_bytes = 0;
        counters_.candidates_generated += level_.size();
        ++level_number_;
      }
    } catch (const FaultInjectedError&) {
      // A `throw` fault; the emitted prefix is sound.
      ctx_.RequestStop(StopReason::kFaultInjected);
    }
    ctx_.ReleaseMemory(level_bytes_ + next_bytes + below_contexts_bytes_ +
                       contexts_bytes_);
    level_bytes_ = below_contexts_bytes_ = contexts_bytes_ = 0;

    counters_.completed = !ctx_.stop_requested() && cap == StopReason::kNone;
    counters_.stop_reason = ctx_.stop_reason() != StopReason::kNone
                                ? ctx_.stop_reason()
                                : cap;
    counters_.stop_state.checks = counters_.num_checks;
    counters_.stop_state.level = level_number_;
    counters_.stop_state.frontier_size = level_.size();
  }

  /// The level in flight, its number and the levels below it.
  const std::vector<Node>& level() const { return level_; }
  std::size_t current_level() const { return level_number_; }
  const SetHistory& history() const { return history_; }

 private:
  bool Walkable() const {
    const std::size_t n = relation_.num_columns();
    return n > 0 && n <= AttrSet::kMaxAttrs;
  }

  /// Charges `node`'s partition to `bytes` and appends it to `nodes`;
  /// false when the charge is refused.
  bool Add(std::vector<Node>& nodes, std::size_t& bytes, Node node) {
    const std::size_t b = node.partition.MemoryBytes();
    if (!ctx_.ChargeMemory(b)) return false;
    bytes += b;
    nodes.push_back(std::move(node));
    return true;
  }

  /// Records `set` one level below, with its partition when the rules
  /// read contexts.
  void Remember(const AttrSet& set, StrippedPartition partition) {
    history_.errors.emplace(set, partition.error());
    if (rules_.reads_contexts()) {
      KeepContext(below_contexts_, below_contexts_bytes_, set,
                  std::move(partition));
    }
  }

  /// Keeps `partition` in `contexts`, charged to `bytes`, unless the
  /// charge is refused.
  void KeepContext(SetPartitions& contexts, std::size_t& bytes,
                   const AttrSet& set, StrippedPartition partition) {
    const std::size_t b = partition.MemoryBytes();
    if (!ctx_.ChargeMemory(b)) return;
    bytes += b;
    contexts.emplace(set, std::move(partition));
  }

  /// π̂(s), folded from its columns.
  StrippedPartition Fold(const AttrSet& s) const {
    const std::size_t m = relation_.num_rows();
    StrippedPartition p = StrippedPartition::ForEmptySet(m);
    for (std::size_t a : s.ToVector()) {
      p = StrippedPartition::Product(
          p, StrippedPartition::ForColumn(relation_, a), m);
    }
    return p;
  }

  Rules& rules_;
  const rel::CodedRelation& relation_;
  RunContext& ctx_;
  core::WalkCounters& counters_;
  const std::size_t max_level_;
  const std::string level_point_;
  const std::string generate_point_;
  std::vector<Node> level_;
  std::size_t level_bytes_ = 0;
  SetHistory history_;
  std::size_t contexts_bytes_ = 0;
  /// The partitions of the level below, contexts from the next level on.
  SetPartitions below_contexts_;
  std::size_t below_contexts_bytes_ = 0;
  std::size_t level_number_ = 1;
};

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_SET_WALK_H_
