#ifndef OCDD_CORE_LEVEL_WALK_H_
#define OCDD_CORE_LEVEL_WALK_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/prof.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/partition_checker.h"
#include "od/attribute_list.h"

namespace ocdd::core {

/// Cap on the children of one level, counted as (side, column) pairs
/// before deduplication: a memory backstop for quasi-constant blow-ups
/// (§5.3.2), where the paper sees levels with millions of candidates. A
/// level with more children is emitted in full and builds none of them;
/// the walk stops with `kLevelCap`, as at `max_level`.
inline constexpr std::size_t kMaxCandidatesPerLevel = 4'000'000;

/// The side of a candidate `x ~ y` that a child extends by one column.
enum class Side : std::uint8_t { kX, kY };

/// The claims of a list walk by id, in emission order: OCDs `x ~ y` and ODs
/// `x → y`. The walk copies no list per claim; `SortPairs` orders the
/// claims once, after the walk, and only the output materialises lists.
struct IdClaims {
  std::vector<Candidate> ocds;
  std::vector<Candidate> ods;
};

/// The counters every lattice walk reports; each walk's result extends it.
struct WalkCounters {
  /// Checks performed — the `#checks` column of Table 6.
  std::uint64_t num_checks = 0;
  std::uint64_t candidates_generated = 0;
  /// Highest level checked and emitted in full. In the list walks level ℓ
  /// holds the candidates with |X| + |Y| = ℓ, from 2; in the set walk
  /// (`algo::SetLevelWalk`) it holds the sets of ℓ attributes, from 1.
  std::size_t levels_completed = 0;
  /// False when a budget, a cap, cancellation or a fault stopped the walk.
  bool completed = true;
  /// `kNone` when `completed`; both caps report `kLevelCap`.
  StopReason stop_reason = StopReason::kNone;
  /// The level in flight and its candidate count. A stop inside level ℓ
  /// reports ℓ and its size; a cap stop reports the level it did not
  /// build, with size 0, as a completed walk does.
  StopState stop_state;
};

/// The breadth-first lattice walk of Algorithm 1, which ORDER (§5.3.1) and
/// polarized discovery run too. Per level it runs the level-boundary hook
/// and polls the stops; checks every candidate with `Rules::Check`, on
/// `pool` when given (§4.2.2); counts the children `Rules::Expand` names
/// for every checked candidate, on the pool too; emits every checked
/// candidate with `Rules::Emit`, in level order on the calling thread; then
/// stops with `kLevelCap`, building nothing, when level `max_level` has a
/// child or the level has more than `kMaxCandidatesPerLevel`, and otherwise
/// lists the children on the pool and interns them in level order, so
/// list ids and the next level's order never depend on the thread count.
/// Injection points `<name>.level`, `<name>.check` and `<name>.generate`
/// (once per emitted candidate) mark the three phases. A stop keeps every
/// dependency emitted so far; a level whose checks were cut short builds
/// nothing.
///
/// `Rules` supplies the algorithm's check and lattice rules:
///
///     using Outcome = ...;                  // one candidate's check result
///     static constexpr bool kMemoizeChecks;  // Check reads its memo slot
///     std::vector<std::pair<rel::ColumnId, rel::ColumnId>> SeedPairs() const;
///     Outcome Check(const PartitionChecker&, Candidate,
///                   PartitionChecker::CheckSlot*) const;  // thread-safe
///     void Emit(Candidate, const Outcome&);
///     template <typename Child>  // child(Side, rel::ColumnId), in order
///     void Expand(Candidate, const Outcome&,
///                 Child&& child) const;  // thread-safe
template <typename Rules>
class LevelWalk {
 public:
  /// Reports into `counters`; `max_level` 0 = no level cap.
  LevelWalk(const char* name, Rules& rules, PartitionChecker& checker,
            RunContext& ctx, WalkCounters& counters, std::size_t max_level,
            ThreadPool* pool = nullptr)
      : rules_(rules),
        checker_(checker),
        ctx_(ctx),
        counters_(counters),
        max_level_(max_level),
        pool_(pool),
        level_point_(std::string(name) + ".level"),
        check_point_(std::string(name) + ".check"),
        generate_point_(std::string(name) + ".generate"),
        level_(checker.lists(), ctx) {}

  /// Level 2: a candidate of two one-column lists per `SeedPairs` pair.
  /// A refused charge latches `kMemoryBudget`, which ends the walk.
  void Seed() {
    ListTable& lists = checker_.lists();
    for (const auto& [x, y] : rules_.SeedPairs()) {
      if (!level_.Add(lists.Child(kNoListId, x), lists.Child(kNoListId, y))) {
        break;
      }
    }
    counters_.candidates_generated += level_.size();
  }

  /// Resumes at the boundary of level `level`, whose candidates are
  /// `frontier`.
  void Resume(std::size_t level,
              const std::vector<std::pair<od::AttributeList,
                                          od::AttributeList>>& frontier) {
    ListTable& lists = checker_.lists();
    for (const auto& [x, y] : frontier) {
      if (!level_.Add(lists.Intern(x), lists.Intern(y))) break;
    }
    current_level_ = level;
  }

  /// Walks until a level has no children or the walk stops, then fills
  /// the counters. `at_level()` runs at each level boundary. Every
  /// stop but a cap is latched on the RunContext.
  template <typename AtLevel>
  void Run(AtLevel&& at_level) {
    StopReason cap = StopReason::kNone;
    try {
      // A refused seed has latched its stop; a Cancel() latches at the
      // level boundary.
      while (!level_.empty() && ctx_.stop_reason() == StopReason::kNone) {
        at_level();
        ctx_.AtInjectionPoint(level_point_.c_str());
        if (ctx_.ShouldStop()) break;
        // The check phase, in parallel when the walk has a pool.
        const std::vector<PartitionChecker::CheckSlot*> slots =
            checker_.Prepare(level_.candidates(), pool_,
                             Rules::kMemoizeChecks);
        const std::size_t n = level_.size();
        std::vector<Checked> checked(n);
        // The one poll of a check; counting it polls again only under a
        // check budget.
        if (!ForEach(n, [&](std::size_t i) {
              if (ctx_.ShouldStop()) return;
              ctx_.AtInjectionPoint(check_point_.c_str());
              checked[i] = rules_.Check(checker_, level_[i], slots[i]);
            })) {
          // A check threw on a worker; the pool contained it.
          ctx_.RequestStop(StopReason::kFaultInjected);
        }
        const bool interrupted = ctx_.stop_requested();

        // The children of the checked candidates, counted on the pool: any
        // child of the capped last level stops the walk, elsewhere more
        // than the candidate cap do. Then emission, in level order.
        const bool last_level =
            max_level_ != 0 && current_level_ >= max_level_;
        const std::size_t room = last_level ? 0 : kMaxCandidatesPerLevel;
        prof::ScopedTimer generate_timer(prof::Phase::kGenerate);
        // Candidate i's children are children[first[i], first[i + 1]),
        // each its column shifted left once, plus 1 on side y.
        std::vector<std::size_t> first(n + 1, 0);
        std::vector<std::uint32_t> children;
        bool expanded =
            !interrupted && ForEach(n, [&](std::size_t i) {
              if (!checked[i]) return;
              rules_.Expand(level_[i], *checked[i],
                            [&](Side, rel::ColumnId) { ++first[i + 1]; });
            });
        std::partial_sum(first.begin(), first.end(), first.begin());
        const bool capped = first.back() > room;
        if (expanded && !capped && first.back() > 0) {
          children.resize(first.back());
          expanded = ForEach(n, [&](std::size_t i) {
            if (!checked[i]) return;
            std::uint32_t* out = children.data() + first[i];
            rules_.Expand(level_[i], *checked[i],
                          [&](Side side, rel::ColumnId a) {
                            *out++ = static_cast<std::uint32_t>(a) << 1 |
                                     (side == Side::kY ? 1u : 0u);
                          });
          });
        }
        if (!interrupted && !expanded) {
          // An expansion threw on a worker; the pool contained it.
          ctx_.RequestStop(StopReason::kFaultInjected);
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!checked[i]) continue;
          ctx_.AtInjectionPoint(generate_point_.c_str());
          rules_.Emit(level_[i], *checked[i]);
        }
        if (!expanded) break;
        counters_.levels_completed = current_level_;
        ++current_level_;
        if (capped) cap = StopReason::kLevelCap;

        // Intern the children in level order, until a charge is refused.
        ListTable& lists = checker_.lists();
        Frontier next(lists, ctx_);
        next.Reserve(children.size());
        bool ok = !children.empty();
        for (std::size_t i = 0; i < n && ok; ++i) {
          const Candidate c = level_[i];
          for (std::size_t k = first[i]; k < first[i + 1] && ok; ++k) {
            const rel::ColumnId a = children[k] >> 1;
            ok = (children[k] & 1) != 0 ? next.Add(c.x, lists.Child(c.y, a))
                                        : next.Add(lists.Child(c.x, a), c.y);
          }
        }
        counters_.candidates_generated += next.size();
        level_ = std::move(next);
      }
    } catch (const FaultInjectedError&) {
      // A `throw` fault in the sequential path; the emitted prefix is sound.
      ctx_.RequestStop(StopReason::kFaultInjected);
    }

    counters_.num_checks = checker_.num_checks();
    counters_.completed = !ctx_.stop_requested() && cap == StopReason::kNone;
    counters_.stop_reason = ctx_.stop_reason() != StopReason::kNone
                                ? ctx_.stop_reason()
                                : cap;
    counters_.stop_state.checks = counters_.num_checks;
    counters_.stop_state.level = current_level_;
    counters_.stop_state.frontier_size = level_.size();
  }

  /// The level in flight and its number.
  const Frontier& level() const { return level_; }
  std::size_t current_level() const { return current_level_; }

 private:
  // Empty when a stop came before the check.
  using Checked = std::optional<typename Rules::Outcome>;

  /// Runs `fn(i)` for every i below `n`, on the pool when the walk has one;
  /// false when a call threw on a worker (the pool contained it). Without
  /// a pool a throw propagates.
  template <typename Fn>
  bool ForEach(std::size_t n, const Fn& fn) const {
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return true;
    }
    return pool_->ParallelFor(n, fn).ok();
  }

  Rules& rules_;
  PartitionChecker& checker_;
  RunContext& ctx_;
  WalkCounters& counters_;
  const std::size_t max_level_;
  ThreadPool* const pool_;
  const std::string level_point_;
  const std::string check_point_;
  const std::string generate_point_;
  Frontier level_;
  std::size_t current_level_ = 2;
};

}  // namespace ocdd::core

#endif  // OCDD_CORE_LEVEL_WALK_H_
