#include "algo/incremental/incremental.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/timer.h"

namespace ocdd::algo {

namespace {

using od::AttributeList;
using od::AttributeListHash;

/// Lexicographic three-way comparison of two rows under an attribute list,
/// on dictionary codes. Encoding is order-preserving with the library's
/// NULL semantics (NULL = NULL, NULLS FIRST) baked into the code space, so
/// this is exactly the comparison the walk's own checks make — and it costs
/// one int32 compare per column instead of a boxed Value comparison, which
/// is what keeps the warm-state bookkeeping (perm builds, witness scans,
/// append merges) cheap relative to the walk it accelerates.
int CompareUnder(const rel::CodedRelation& r, const AttributeList& list,
                 std::uint32_t a, std::uint32_t b) {
  for (rel::ColumnId c : list.ids()) {
    const std::int32_t ca = r.code(a, c), cb = r.code(b, c);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  return 0;
}

/// Sorted permutation of rows [0, n) under `list`, by LSD radix over the
/// list's columns: one stable counting sort per column, least-significant
/// (last) column first. Codes are dense ranks in [0, num_distinct), so each
/// pass is O(n + d) array writes — roughly the cost of two linear scans,
/// where a comparison sort pays n log n multi-column compares. This is what
/// makes cold perm-cache misses (first batch after bootstrap or reopen)
/// cheap enough to absorb mid-walk.
std::vector<std::uint32_t> BuildPerm(const rel::CodedRelation& r,
                                     const AttributeList& list,
                                     std::size_t n) {
  std::vector<std::uint32_t> perm(n), tmp(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint32_t> cnt;
  const auto& ids = list.ids();
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const rel::CodedColumn& col = r.column(*it);
    cnt.assign(static_cast<std::size_t>(col.num_distinct) + 1, 0u);
    for (std::size_t row = 0; row < n; ++row) {
      ++cnt[static_cast<std::size_t>(col.codes[row]) + 1];
    }
    for (std::size_t k = 1; k < cnt.size(); ++k) cnt[k] += cnt[k - 1];
    for (std::uint32_t row : perm) {
      tmp[cnt[static_cast<std::size_t>(col.codes[row])]++] = row;
    }
    perm.swap(tmp);
  }
  return perm;
}

/// Scans a permutation sorted under X for a split pair: two adjacent rows
/// equal under X but different under Y. Exists whenever the OCD holds and
/// the OD X → Y does not (the only remaining violation is a split).
WitnessPair FindSplit(const rel::CodedRelation& r, const AttributeList& x,
                      const AttributeList& y,
                      const std::vector<std::uint32_t>& perm) {
  for (std::size_t k = 1; k < perm.size(); ++k) {
    if (CompareUnder(r, x, perm[k - 1], perm[k]) == 0 &&
        CompareUnder(r, y, perm[k - 1], perm[k]) != 0) {
      return WitnessPair{perm[k - 1], perm[k]};
    }
  }
  return WitnessPair{};
}

/// Scans a permutation sorted under X for a swap pair (Theorem 4.1): rows
/// s, t with s strictly below t under X and t strictly below s under Y.
/// Exists whenever the OCD does not hold. One pass with the running max-Y
/// row over all strictly lower X-groups.
WitnessPair FindSwap(const rel::CodedRelation& r, const AttributeList& x,
                     const AttributeList& y,
                     const std::vector<std::uint32_t>& perm) {
  bool have_best = false, have_pending = false;
  std::uint32_t best = 0, pending = 0;
  for (std::size_t k = 0; k < perm.size(); ++k) {
    std::uint32_t t = perm[k];
    if (k > 0 && CompareUnder(r, x, perm[k - 1], t) != 0) {
      if (have_pending &&
          (!have_best || CompareUnder(r, y, pending, best) > 0)) {
        best = pending;
        have_best = true;
      }
      have_pending = false;
    }
    if (have_best && CompareUnder(r, y, best, t) > 0) {
      return WitnessPair{best, t};
    }
    if (!have_pending || CompareUnder(r, y, t, pending) > 0) {
      pending = t;
      have_pending = true;
    }
  }
  return WitnessPair{};
}

/// Everything the append fast path needs about one attribute list for one
/// batch: per appended row, how many surviving old rows sit strictly below
/// (`cnt_lt`) and not above (`cnt_le`) it under the list; plus the appended
/// rows' own sorted order and dense ranks under the list.
struct ListDelta {
  bool ok = false;
  std::vector<std::uint32_t> cnt_lt;
  std::vector<std::uint32_t> cnt_le;
  std::vector<std::uint32_t> order;  // append positions sorted under the list
  std::vector<std::uint32_t> rank;   // dense rank per append position
};

/// Append counting argument (see docs/incremental.md §fast-paths).
///
/// Old rows are swap-free under (X, Y), so the Y-values of the rows in the
/// lowest k X-groups are exactly the k smallest old Y-values. A new row t
/// then swaps with some old row iff fewer old rows are Y-≤ t than are
/// X-< t (pigeonhole, exact both ways), or symmetrically with X and Y
/// exchanged. New/new pairs are swept in X-order against the running max
/// Y-rank of strictly lower X-groups.
bool AppendKeepsOcd(const ListDelta& dx, const ListDelta& dy, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i) {
    if (dy.cnt_le[i] < dx.cnt_lt[i] || dx.cnt_le[i] < dy.cnt_lt[i]) {
      return false;
    }
  }
  bool have_done = false;
  std::uint32_t max_done = 0;     // max Y-rank over strictly lower X-groups
  bool have_pending = false;
  std::uint32_t max_pending = 0;  // max Y-rank within the current X-group
  for (std::size_t k = 0; k < b; ++k) {
    std::uint32_t p = dx.order[k];
    if (k > 0 && dx.rank[p] != dx.rank[dx.order[k - 1]]) {
      if (have_pending && (!have_done || max_pending > max_done)) {
        max_done = max_pending;
        have_done = true;
      }
      have_pending = false;
    }
    if (have_done && dy.rank[p] < max_done) return false;
    if (!have_pending || dy.rank[p] > max_pending) {
      max_pending = dy.rank[p];
      have_pending = true;
    }
  }
  return true;
}

/// OD stability under appends, assuming the OD X → Y held before the batch
/// and `AppendKeepsOcd` already accepted the batch. A new row joining an
/// existing X-group (cnt_le > cnt_lt) must carry exactly the group's Y
/// constant: with A old rows strictly X-below the group, that constant is
/// the (A+1)-th smallest old Y-value, so the row matches iff at most A old
/// rows are strictly Y-below it and at least A+1 are Y-≤ it. New X-groups
/// only need internal Y-constancy (split check over the appended rows).
bool AppendKeepsOd(const ListDelta& dx, const ListDelta& dy, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i) {
    if (dx.cnt_le[i] > dx.cnt_lt[i]) {
      std::uint32_t a = dx.cnt_lt[i];
      if (!(dy.cnt_lt[i] <= a && dy.cnt_le[i] >= a + 1)) return false;
    }
  }
  for (std::size_t k = 1; k < b; ++k) {
    std::uint32_t p = dx.order[k], q = dx.order[k - 1];
    if (dx.rank[p] == dx.rank[q] && dy.rank[p] != dy.rank[q]) return false;
  }
  return true;
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(std::uint64_t u) {
  double d = 0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

constexpr char kStateName[] = "incremental";
constexpr std::uint32_t kStateVersion = 1;

}  // namespace

/// Private-member access for the free-standing machinery below.
struct SessionOps {
  using CandKey = IncrementalSession::CandKey;
  using OutcomeMap = IncrementalSession::OutcomeMap;

  /// How many delete epochs a cached perm may lag before PrunePerms drops
  /// it instead of keeping its remaps alive. Replaying one epoch is a
  /// single O(n) int pass (~40× cheaper than a rebuild), so the lag cap is
  /// generous — it exists to bound the remap log, not to save replay time.
  /// Delete-only streams in particular never touch the append-path perms,
  /// which therefore age one epoch per batch without being refreshed.
  static constexpr std::uint64_t kMaxEpochLag = 16;

  /// Folds current-relation rows [perm.size(), n) into a sorted prefix
  /// permutation: sort the fresh tail, then place each fresh id by binary
  /// search with chunked copies between placements. O(b log n + n) with
  /// memcpy-speed data movement, vs O(n) comparisons for an element-wise
  /// merge.
  static void FoldTail(const rel::CodedRelation& coded,
                       const AttributeList& list, std::size_t n,
                       std::vector<std::uint32_t>* perm) {
    const std::size_t old = perm->size();
    std::vector<std::uint32_t> fresh(n - old);
    std::iota(fresh.begin(), fresh.end(), static_cast<std::uint32_t>(old));
    auto below = [&](std::uint32_t a, std::uint32_t b) {
      return CompareUnder(coded, list, a, b) < 0;
    };
    std::sort(fresh.begin(), fresh.end(), below);
    std::vector<std::uint32_t> out(n);
    std::size_t i = 0, o = 0;
    for (std::uint32_t id : fresh) {
      const std::size_t pos = static_cast<std::size_t>(
          std::lower_bound(perm->begin() + static_cast<std::ptrdiff_t>(i),
                           perm->end(), id, below) -
          perm->begin());
      std::copy(perm->begin() + static_cast<std::ptrdiff_t>(i),
                perm->begin() + static_cast<std::ptrdiff_t>(pos),
                out.begin() + static_cast<std::ptrdiff_t>(o));
      o += pos - i;
      i = pos;
      out[o++] = id;
    }
    std::copy(perm->begin() + static_cast<std::ptrdiff_t>(i), perm->end(),
              out.begin() + static_cast<std::ptrdiff_t>(o));
    *perm = std::move(out);
  }

  /// Returns the remap composition `from → delete_epoch_` (memoized in
  /// `composed_remaps_`), or nullptr when the log no longer reaches back to
  /// `from`. Composing once per distinct staleness costs O(epochs · n);
  /// every perm at that staleness then catches up in a single pass.
  static const std::vector<std::uint32_t>* GetComposedRemap(
      IncrementalSession& s, std::uint64_t from) {
    auto hit = s.composed_remaps_.find(from);
    if (hit != s.composed_remaps_.end()) return &hit->second;
    auto base = s.remap_log_.find(from);
    if (base == s.remap_log_.end()) return nullptr;
    std::vector<std::uint32_t> out = base->second;
    for (std::uint64_t e = from + 1; e < s.delete_epoch_; ++e) {
      auto next = s.remap_log_.find(e);
      if (next == s.remap_log_.end()) return nullptr;
      for (std::uint32_t& v : out) {
        if (v != kNoWitnessRow) v = next->second[v];
      }
    }
    auto [pos, _] = s.composed_remaps_.emplace(from, std::move(out));
    return &pos->second;
  }

  /// Returns the cached permutation for `list` over rows [0, n) of the
  /// *current* relation, bringing a stale entry current first (replay the
  /// delete remaps it missed, fold the row tail it has not seen) or
  /// building it fresh under the byte budget; nullptr when over budget
  /// (callers fall back to a data-backed check — never an error).
  static const std::vector<std::uint32_t>* GetPerm(IncrementalSession& s,
                                                   const AttributeList& list,
                                                   std::size_t n) {
    auto it = s.perms_.find(list);
    if (it != s.perms_.end()) {
      IncrementalSession::PermEntry& e = it->second;
      bool usable = true;
      if (e.epoch < s.delete_epoch_) {
        const std::vector<std::uint32_t>* rm =
            GetComposedRemap(s, e.epoch);
        if (rm == nullptr) {
          usable = false;  // log truncated under it: rebuild from scratch
        } else {
          std::size_t kept = 0;
          for (std::uint32_t r : e.rows) {
            const std::uint32_t nr = (*rm)[r];
            if (nr != kNoWitnessRow) e.rows[kept++] = nr;
          }
          s.perm_bytes_ -= (e.rows.size() - kept) * sizeof(std::uint32_t);
          e.rows.resize(kept);
          e.epoch = s.delete_epoch_;
        }
      }
      // A current entry always covers a prefix of [0, n); covering more
      // would mean the caller's row count and the session disagree.
      if (usable && e.rows.size() > n) usable = false;
      if (usable) {
        if (e.rows.size() < n) {
          const std::size_t bytes =
              (n - e.rows.size()) * sizeof(std::uint32_t);
          if (s.options_.max_perm_cache_bytes != 0 &&
              s.perm_bytes_ + bytes > s.options_.max_perm_cache_bytes) {
            return nullptr;
          }
          FoldTail(s.coded_, list, n, &e.rows);
          s.perm_bytes_ += bytes;
        }
        return &e.rows;
      }
      s.perm_bytes_ -= e.rows.size() * sizeof(std::uint32_t);
      s.perms_.erase(it);
    }
    const std::size_t bytes = n * sizeof(std::uint32_t);
    if (s.options_.max_perm_cache_bytes != 0 &&
        s.perm_bytes_ + bytes > s.options_.max_perm_cache_bytes) {
      return nullptr;
    }
    s.perm_bytes_ += bytes;
    auto [pos, _] = s.perms_.emplace(
        list, IncrementalSession::PermEntry{BuildPerm(s.coded_, list, n),
                                            s.delete_epoch_});
    return &pos->second.rows;
  }

  /// Drops cached permutations whose list no candidate references anymore
  /// or that lag too many delete epochs behind, then garbage-collects the
  /// remap log down to the oldest epoch a surviving perm still needs.
  static void PrunePerms(IncrementalSession& s) {
    std::unordered_set<AttributeList, AttributeListHash> live;
    for (const auto& [key, w] : s.outcomes_) {
      live.insert(key.x);
      live.insert(key.y);
    }
    std::uint64_t oldest = s.delete_epoch_;
    for (auto it = s.perms_.begin(); it != s.perms_.end();) {
      const bool lagging =
          it->second.epoch + kMaxEpochLag < s.delete_epoch_;
      if (lagging || live.count(it->first) == 0) {
        s.perm_bytes_ -= it->second.rows.size() * sizeof(std::uint32_t);
        it = s.perms_.erase(it);
      } else {
        oldest = std::min(oldest, it->second.epoch);
        ++it;
      }
    }
    s.remap_log_.erase(s.remap_log_.begin(),
                       s.remap_log_.lower_bound(oldest));
  }

  /// Extracts violation witnesses for every warm entry that needs one but
  /// has none (fresh observations, counting-path flips). Without a witness
  /// an entry cannot be served across a delete batch; with one, service is
  /// O(1).
  ///
  /// Jobs are grouped by the list whose sorted permutation drives the scan,
  /// so each list is sorted once per repair pass. The permutations are
  /// deliberately NOT inserted into the perm cache: most lists repaired
  /// here (every invalid candidate's LHS at bootstrap) are never consulted
  /// by the append fast path, and caching them evicts the delta perms that
  /// path actually needs — a cached perm that already exists is refreshed
  /// and reused, everything else is built transiently and dropped.
  static void RepairWitnesses(IncrementalSession& s) {
    const std::size_t n = s.coded_.num_rows();
    // kind 0: swap scan (perm under x); 1: split x→y (perm under x);
    // 2: split y→x (perm under y).
    struct Job {
      const CandKey* key;
      CandidateWarmth* w;
      int kind;
    };
    std::unordered_map<AttributeList, std::vector<Job>, AttributeListHash>
        work;
    for (auto& [key, w] : s.outcomes_) {
      if (!w.ocd_valid) {
        if (!w.swap_w.known()) work[key.x].push_back({&key, &w, 0});
        continue;
      }
      if (!w.od_xy && !w.split_xy.known()) {
        work[key.x].push_back({&key, &w, 1});
      }
      if (!w.od_yx && !w.split_yx.known()) {
        work[key.y].push_back({&key, &w, 2});
      }
    }
    std::vector<std::uint32_t> transient;
    for (auto& [list, jobs] : work) {
      const std::vector<std::uint32_t>* perm = nullptr;
      if (s.perms_.count(list) != 0) perm = GetPerm(s, list, n);
      if (perm == nullptr) {
        transient = BuildPerm(s.coded_, list, n);
        perm = &transient;
      }
      for (const Job& job : jobs) {
        switch (job.kind) {
          case 0:
            job.w->swap_w = FindSwap(s.coded_, job.key->x, job.key->y, *perm);
            break;
          case 1:
            job.w->split_xy =
                FindSplit(s.coded_, job.key->x, job.key->y, *perm);
            break;
          default:
            job.w->split_yx =
                FindSplit(s.coded_, job.key->y, job.key->x, *perm);
            break;
        }
      }
    }
  }

  static core::OcdDiscoverOptions WalkOptions(const IncrementalSession& s,
                                              RunContext* ctx,
                                              core::CandidateCheckHook* hook) {
    core::OcdDiscoverOptions w;
    w.run_context = ctx;
    w.num_threads = s.options_.num_threads;
    w.max_level = s.options_.max_level;
    w.use_sorted_partitions = s.options_.use_sorted_partitions;
    w.max_partition_cache_bytes = s.options_.max_partition_cache_bytes;
    w.check_hook = hook;
    return w;
  }

  static std::string EncodeState(const IncrementalSession& s);
  static Status DecodeState(const SnapshotView& view, IncrementalSession& s);

  static bool WriteState(IncrementalSession& s, std::string* warning) {
    if (!s.store_) return false;
    Result<std::uint64_t> gen =
        s.store_->Write(EncodeState(s), s.options_.keep_generations);
    if (!gen.ok()) {
      *warning = "warm-state snapshot not written: " + gen.status().message();
      return false;
    }
    return true;
  }
};

namespace {

/// Start-time hook: serves nothing, records every data-backed outcome so
/// the first batch already has a full warm cache.
struct RecordingHook : core::CandidateCheckHook {
  SessionOps::OutcomeMap* map = nullptr;

  bool Lookup(const AttributeList&, const AttributeList&,
              core::CandidateOutcome*) override {
    return false;
  }
  void Observe(const AttributeList& x, const AttributeList& y,
               const core::CandidateOutcome& o) override {
    CandidateWarmth w;
    w.ocd_valid = o.ocd_valid;
    w.od_xy = o.od_xy;
    w.od_yx = o.od_yx;
    (*map)[SessionOps::CandKey{x, y}] = w;
  }
};

/// Batch-walk hook: the incremental core. Serves candidates whose outcome
/// the warm state proves, collects the next warm map as it goes.
struct WarmHook : core::CandidateCheckHook {
  IncrementalSession* session = nullptr;
  /// Coded merged relation (the walk's own input); all delta comparisons
  /// run on its codes.
  const rel::CodedRelation* coded = nullptr;
  const SessionOps::OutcomeMap* old_map = nullptr;
  /// Old row id → merged row id; kNoWitnessRow for deleted rows. Identity
  /// (empty vector) when the batch has no deletes.
  std::vector<std::uint32_t> remap;
  std::size_t survivors = 0;  // old rows surviving the batch
  std::size_t appended = 0;   // rows appended by the batch

  SessionOps::OutcomeMap next;
  std::unordered_map<AttributeList, ListDelta, AttributeListHash> deltas;

  const ListDelta* GetDelta(const AttributeList& list) {
    auto it = deltas.find(list);
    if (it != deltas.end()) return it->second.ok ? &it->second : nullptr;
    ListDelta& d = deltas[list];
    if (appended == 0) {
      d.ok = true;
      return &d;
    }
    const std::vector<std::uint32_t>* perm =
        SessionOps::GetPerm(*session, list, survivors);
    if (perm == nullptr) return nullptr;  // over budget: candidates miss
    d.cnt_lt.resize(appended);
    d.cnt_le.resize(appended);
    auto below = [&](std::uint32_t a, std::uint32_t b) {
      return CompareUnder(*coded, list, a, b) < 0;
    };
    for (std::size_t i = 0; i < appended; ++i) {
      std::uint32_t id = static_cast<std::uint32_t>(survivors + i);
      d.cnt_lt[i] = static_cast<std::uint32_t>(
          std::lower_bound(perm->begin(), perm->end(), id, below) -
          perm->begin());
      d.cnt_le[i] = static_cast<std::uint32_t>(
          std::upper_bound(perm->begin(), perm->end(), id, below) -
          perm->begin());
    }
    d.order.resize(appended);
    std::iota(d.order.begin(), d.order.end(), 0u);
    std::sort(d.order.begin(), d.order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return below(static_cast<std::uint32_t>(survivors + a),
                             static_cast<std::uint32_t>(survivors + b));
              });
    d.rank.resize(appended);
    std::uint32_t r = 0;
    for (std::size_t k = 0; k < appended; ++k) {
      if (k > 0 &&
          CompareUnder(*coded, list,
                       static_cast<std::uint32_t>(survivors + d.order[k - 1]),
                       static_cast<std::uint32_t>(survivors + d.order[k])) !=
              0) {
        ++r;
      }
      d.rank[d.order[k]] = r;
    }
    d.ok = true;
    return &d;
  }

  /// Remaps one witness through the delete set; false = witness row gone
  /// (or never known), the bit it guards is no longer provable.
  bool KeepWitness(WitnessPair* w) const {
    if (!w->known()) return false;
    if (remap.empty()) return true;  // no deletes: ids unchanged
    std::uint32_t na = remap[w->a], nb = remap[w->b];
    if (na == kNoWitnessRow || nb == kNoWitnessRow) return false;
    *w = WitnessPair{na, nb};
    return true;
  }

  bool Lookup(const AttributeList& x, const AttributeList& y,
              core::CandidateOutcome* out) override {
    CandidateWarmth w;
    auto it = old_map->find(SessionOps::CandKey{x, y});
    if (it != old_map->end()) {
      w = it->second;
    } else {
      // The walk can visit the candidate with its sides in the other role
      // when the reduced universe changed; the mirrored outcome is exact
      // (a swap is symmetric, the ODs exchange).
      auto mit = old_map->find(SessionOps::CandKey{y, x});
      if (mit == old_map->end()) return false;
      const CandidateWarmth& m = mit->second;
      w.ocd_valid = m.ocd_valid;
      w.od_xy = m.od_yx;
      w.od_yx = m.od_xy;
      w.swap_w = m.swap_w;
      w.split_xy = m.split_yx;
      w.split_yx = m.split_xy;
    }

    const bool has_deletes = !remap.empty();
    // Delete phase: true bits survive deletion for free; false bits need a
    // surviving witness or the entry misses.
    if (!w.ocd_valid) {
      if (has_deletes && !KeepWitness(&w.swap_w)) return false;
    } else {
      if (has_deletes) {
        if (!w.od_xy && !KeepWitness(&w.split_xy)) return false;
        if (!w.od_yx && !KeepWitness(&w.split_yx)) return false;
      }
    }

    // Append phase: false bits stay false (the witness rows are still
    // there); true bits go through the counting argument.
    if (appended > 0 && w.ocd_valid) {
      const ListDelta* dx = GetDelta(x);
      const ListDelta* dy = GetDelta(y);
      if (dx == nullptr || dy == nullptr) return false;
      if (!AppendKeepsOcd(*dx, *dy, appended)) {
        w = CandidateWarmth{};  // all false, witnesses unknown (repaired later)
      } else {
        if (w.od_xy && !AppendKeepsOd(*dx, *dy, appended)) {
          w.od_xy = false;
          w.split_xy = WitnessPair{};
        }
        if (w.od_yx && !AppendKeepsOd(*dy, *dx, appended)) {
          w.od_yx = false;
          w.split_yx = WitnessPair{};
        }
      }
    }

    out->ocd_valid = w.ocd_valid;
    out->od_xy = w.od_xy;
    out->od_yx = w.od_yx;
    next[SessionOps::CandKey{x, y}] = w;
    return true;
  }

  void Observe(const AttributeList& x, const AttributeList& y,
               const core::CandidateOutcome& o) override {
    CandidateWarmth w;
    w.ocd_valid = o.ocd_valid;
    w.od_xy = o.od_xy;
    w.od_yx = o.od_yx;
    next[SessionOps::CandKey{x, y}] = w;
  }
};

}  // namespace

core::OcdDiscoverResult DiscoverFromScratch(const rel::Relation& relation,
                                            const IncrementalOptions& options,
                                            RunContext* ctx) {
  rel::CodedRelation coded = rel::CodedRelation::Encode(relation);
  core::OcdDiscoverOptions w;
  w.run_context = ctx;
  w.num_threads = options.num_threads;
  w.max_level = options.max_level;
  w.use_sorted_partitions = options.use_sorted_partitions;
  w.max_partition_cache_bytes = options.max_partition_cache_bytes;
  return core::DiscoverOcds(coded, w);
}

Result<IncrementalSession> IncrementalSession::Start(
    rel::Relation base, const IncrementalOptions& options, RunContext* ctx) {
  IncrementalSession s;
  s.options_ = options;
  s.relation_ = std::move(base);
  s.coded_ = rel::CodedRelation::Encode(s.relation_);

  RecordingHook hook;
  hook.map = &s.outcomes_;
  s.last_ = core::DiscoverOcds(s.coded_,
                               SessionOps::WalkOptions(s, ctx, &hook));
  SessionOps::RepairWitnesses(s);

  if (!options.state_dir.empty()) {
    // Deep state paths (e.g. <root>/incremental/<tenant>/<state>) are
    // created here; SnapshotStore itself only makes the leaf.
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    s.store_ = std::make_unique<SnapshotStore>(options.state_dir, kStateName);
    std::string warning;
    SessionOps::WriteState(s, &warning);
    if (!warning.empty()) s.open_warning_ = warning;
  }
  return s;
}

Result<IncrementalSession> IncrementalSession::Open(
    const IncrementalOptions& options,
    const std::function<Result<rel::Relation>()>& base_loader,
    RunContext* ctx) {
  std::string why;
  if (!options.state_dir.empty()) {
    auto store = std::make_unique<SnapshotStore>(options.state_dir,
                                                 kStateName);
    Result<LoadedSnapshot> loaded = store->Load();
    if (loaded.ok()) {
      IncrementalSession s;
      s.options_ = options;
      Status st = SessionOps::DecodeState(loaded->view, s);
      if (st.ok()) {
        s.store_ = std::move(store);
        s.resumed_ = true;
        if (loaded->corrupt_skipped > 0) {
          s.open_warning_ = "skipped " +
                            std::to_string(loaded->corrupt_skipped) +
                            " corrupt warm-state generation(s)";
        }
        return s;
      }
      why = st.message();
    } else {
      why = loaded.status().message();
    }
  } else {
    why = "no state_dir configured";
  }

  // Degradation: no usable warm state — bootstrap from the base source
  // rather than failing (docs/incremental.md §degradation).
  if (!base_loader) {
    return Status::NotFound("no usable warm state (" + why +
                            ") and no base source to fall back to");
  }
  Result<rel::Relation> base = base_loader();
  if (!base.ok()) {
    return Status::NotFound("no usable warm state (" + why +
                            ") and the base source failed to load: " +
                            base.status().message());
  }
  Result<IncrementalSession> s = Start(std::move(base).value(), options, ctx);
  if (s.ok()) {
    s->open_warning_ = "warm state unusable (" + why +
                       "); rebuilt from scratch from the base source";
  }
  return s;
}

Result<BatchApplyStats> IncrementalSession::ApplyBatch(
    const rel::RowBatch& batch, RunContext* ctx) {
  WallTimer timer;
  Result<rel::Relation> merged_r = rel::ApplyBatch(relation_, batch);
  if (!merged_r.ok()) return merged_r.status();
  rel::Relation merged = std::move(merged_r).value();

  const std::size_t old_rows = relation_.num_rows();
  const std::size_t survivors = old_rows - batch.deletes.size();

  WarmHook hook;
  hook.session = this;
  hook.old_map = &outcomes_;
  hook.survivors = survivors;
  hook.appended = batch.appends.size();
  if (!batch.deletes.empty()) {
    hook.remap.assign(old_rows, kNoWitnessRow);
    std::size_t next_delete = 0, out = 0;
    for (std::size_t r = 0; r < old_rows; ++r) {
      if (next_delete < batch.deletes.size() &&
          batch.deletes[next_delete] == r) {
        ++next_delete;
        continue;
      }
      hook.remap[r] = static_cast<std::uint32_t>(out++);
    }
    // Cached permutations are NOT filtered here: the remap is logged and
    // each perm catches up lazily on its next access (GetPerm), so a batch
    // pays only for the lists it actually consults.
    remap_log_[delete_epoch_] = hook.remap;
    ++delete_epoch_;
    composed_remaps_.clear();
  }

  rel::CodedRelation coded = rel::CodedRelation::Encode(merged);

  // `relation_`/`coded_` must describe the merged data while the hook runs:
  // perm builds and comparisons go through them. Commit them first; on this
  // path nothing below can fail.
  relation_ = std::move(merged);
  coded_ = std::move(coded);
  hook.coded = &coded_;

  last_ = core::DiscoverOcds(coded_, SessionOps::WalkOptions(*this, ctx,
                                                             &hook));
  outcomes_ = std::move(hook.next);
  ++batch_seq_;

  // Appended rows are likewise folded into each permutation lazily, on the
  // perm's next access — see SessionOps::FoldTail.
  SessionOps::PrunePerms(*this);
  SessionOps::RepairWitnesses(*this);

  BatchApplyStats stats;
  stats.batch_seq = batch_seq_;
  stats.deletes = batch.deletes.size();
  stats.appends = batch.appends.size();
  stats.num_rows = relation_.num_rows();
  stats.result = last_;
  stats.snapshot_written = SessionOps::WriteState(*this, &stats.warning);
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

// ---------------------------------------------------------------------------
// Warm-state snapshot codec (docs/incremental.md §warm-state-format).
// Sections: meta (version, batch_seq, fingerprint, shape, completed flag),
// schema (names + types), rows (typed binary values + null flags — not CSV,
// so types cannot drift on reload), claims (ods/ocds of the last walk),
// stats (walk counters), outcomes (candidate bits + witnesses).
// ---------------------------------------------------------------------------

std::string SessionOps::EncodeState(const IncrementalSession& s) {
  SnapshotBuilder b;

  ByteWriter meta;
  meta.U32(kStateVersion);
  meta.U64(s.batch_seq_);
  meta.U64(s.coded_.Fingerprint());
  meta.U64(s.relation_.num_rows());
  meta.U32(static_cast<std::uint32_t>(s.relation_.num_columns()));
  meta.U8(s.last_.completed ? 1 : 0);
  b.AddSection("meta", meta.Take());

  ByteWriter sc;
  sc.U32(static_cast<std::uint32_t>(s.relation_.num_columns()));
  for (std::size_t c = 0; c < s.relation_.num_columns(); ++c) {
    const rel::Attribute& a = s.relation_.schema().attribute(c);
    sc.Str(a.name);
    sc.U8(static_cast<std::uint8_t>(a.type));
  }
  b.AddSection("schema", sc.Take());

  ByteWriter rows;
  const std::size_t m = s.relation_.num_rows();
  for (std::size_t c = 0; c < s.relation_.num_columns(); ++c) {
    const rel::Column& col = s.relation_.column(c);
    for (std::size_t r = 0; r < m; ++r) {
      if (col.is_null(r)) {
        rows.U8(0);
        continue;
      }
      rows.U8(1);
      switch (col.type()) {
        case rel::DataType::kInt:
          rows.U64(static_cast<std::uint64_t>(col.int_at(r)));
          break;
        case rel::DataType::kDouble:
          rows.U64(DoubleBits(col.double_at(r)));
          break;
        case rel::DataType::kString:
          rows.Str(col.string_at(r));
          break;
      }
    }
  }
  b.AddSection("rows", rows.Take());

  ByteWriter cl;
  cl.U32(static_cast<std::uint32_t>(s.last_.ods.size()));
  for (const od::OrderDependency& d : s.last_.ods) {
    cl.IdVec(d.lhs.ids());
    cl.IdVec(d.rhs.ids());
  }
  cl.U32(static_cast<std::uint32_t>(s.last_.ocds.size()));
  for (const od::OrderCompatibility& d : s.last_.ocds) {
    cl.IdVec(d.lhs.ids());
    cl.IdVec(d.rhs.ids());
  }
  b.AddSection("claims", cl.Take());

  ByteWriter st;
  st.U64(s.last_.num_checks);
  st.U64(s.last_.candidates_generated);
  st.U64(s.last_.levels_completed);
  st.U64(s.last_.hook_served);
  st.U64(s.last_.hook_recomputed);
  b.AddSection("stats", st.Take());

  ByteWriter oc;
  oc.U32(static_cast<std::uint32_t>(s.outcomes_.size()));
  for (const auto& [key, w] : s.outcomes_) {
    oc.IdVec(key.x.ids());
    oc.IdVec(key.y.ids());
    oc.U8(static_cast<std::uint8_t>((w.ocd_valid ? 1 : 0) |
                                    (w.od_xy ? 2 : 0) | (w.od_yx ? 4 : 0)));
    oc.U32(w.swap_w.a);
    oc.U32(w.swap_w.b);
    oc.U32(w.split_xy.a);
    oc.U32(w.split_xy.b);
    oc.U32(w.split_yx.a);
    oc.U32(w.split_yx.b);
  }
  b.AddSection("outcomes", oc.Take());

  return b.Encode();
}

Status SessionOps::DecodeState(const SnapshotView& view,
                               IncrementalSession& s) {
  const std::string* meta_s = view.Find("meta");
  const std::string* sc_s = view.Find("schema");
  const std::string* rows_s = view.Find("rows");
  const std::string* cl_s = view.Find("claims");
  const std::string* st_s = view.Find("stats");
  const std::string* oc_s = view.Find("outcomes");
  if (meta_s == nullptr || sc_s == nullptr || rows_s == nullptr ||
      cl_s == nullptr || st_s == nullptr || oc_s == nullptr) {
    return Status::ParseError("warm state: missing sections");
  }

  ByteReader meta(*meta_s);
  if (meta.U32() != kStateVersion) {
    return Status::ParseError("warm state: unknown version");
  }
  std::uint64_t batch_seq = meta.U64();
  std::uint64_t fingerprint = meta.U64();
  std::uint64_t num_rows = meta.U64();
  std::uint32_t num_cols = meta.U32();
  bool completed = meta.U8() != 0;
  if (!meta.ok()) return Status::ParseError("warm state: meta damaged");

  ByteReader sc(*sc_s);
  if (sc.U32() != num_cols) {
    return Status::ParseError("warm state: schema/meta width mismatch");
  }
  rel::Schema schema;
  for (std::uint32_t c = 0; c < num_cols && sc.ok(); ++c) {
    std::string name = sc.Str();
    std::uint8_t type = sc.U8();
    if (type > static_cast<std::uint8_t>(rel::DataType::kString)) {
      return Status::ParseError("warm state: bad column type");
    }
    schema.AddAttribute(
        rel::Attribute{std::move(name), static_cast<rel::DataType>(type)});
  }
  if (!sc.ok()) return Status::ParseError("warm state: schema damaged");

  ByteReader rows(*rows_s);
  std::vector<rel::Column> columns;
  columns.reserve(num_cols);
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    rel::DataType type = schema.attribute(c).type;
    rel::Column col(type);
    for (std::uint64_t r = 0; r < num_rows && rows.ok(); ++r) {
      if (rows.U8() == 0) {
        col.Append(rel::Value::Null());
        continue;
      }
      switch (type) {
        case rel::DataType::kInt:
          col.Append(rel::Value::Int(static_cast<std::int64_t>(rows.U64())));
          break;
        case rel::DataType::kDouble:
          col.Append(rel::Value::Double(BitsDouble(rows.U64())));
          break;
        case rel::DataType::kString:
          col.Append(rel::Value::String(rows.Str()));
          break;
      }
    }
    columns.push_back(std::move(col));
  }
  if (!rows.ok()) return Status::ParseError("warm state: rows damaged");
  Result<rel::Relation> relation =
      rel::Relation::FromColumns(std::move(schema), std::move(columns));
  if (!relation.ok()) {
    return Status::ParseError("warm state: relation rebuild failed: " +
                              relation.status().message());
  }

  rel::CodedRelation coded = rel::CodedRelation::Encode(relation.value());
  if (coded.Fingerprint() != fingerprint) {
    return Status::ParseError("warm state: fingerprint mismatch");
  }

  ByteReader cl(*cl_s);
  core::OcdDiscoverResult last;
  std::uint32_t num_ods = cl.U32();
  for (std::uint32_t i = 0; i < num_ods && cl.ok(); ++i) {
    AttributeList lhs(cl.IdVec());
    AttributeList rhs(cl.IdVec());
    last.ods.push_back(od::OrderDependency{std::move(lhs), std::move(rhs)});
  }
  std::uint32_t num_ocds = cl.U32();
  for (std::uint32_t i = 0; i < num_ocds && cl.ok(); ++i) {
    AttributeList lhs(cl.IdVec());
    AttributeList rhs(cl.IdVec());
    last.ocds.push_back(
        od::OrderCompatibility{std::move(lhs), std::move(rhs)});
  }
  if (!cl.ok()) return Status::ParseError("warm state: claims damaged");

  ByteReader st(*st_s);
  last.num_checks = st.U64();
  last.candidates_generated = st.U64();
  last.levels_completed = static_cast<std::size_t>(st.U64());
  last.hook_served = st.U64();
  last.hook_recomputed = st.U64();
  last.completed = completed;
  if (!st.ok()) return Status::ParseError("warm state: stats damaged");

  ByteReader oc(*oc_s);
  OutcomeMap outcomes;
  std::uint32_t num_entries = oc.U32();
  for (std::uint32_t i = 0; i < num_entries && oc.ok(); ++i) {
    CandKey key{AttributeList(oc.IdVec()), AttributeList(oc.IdVec())};
    std::uint8_t bits = oc.U8();
    CandidateWarmth w;
    w.ocd_valid = (bits & 1) != 0;
    w.od_xy = (bits & 2) != 0;
    w.od_yx = (bits & 4) != 0;
    w.swap_w = WitnessPair{oc.U32(), oc.U32()};
    w.split_xy = WitnessPair{oc.U32(), oc.U32()};
    w.split_yx = WitnessPair{oc.U32(), oc.U32()};
    // A witness must point into the relation; damaged ids degrade to
    // "unknown" rather than out-of-bounds reads later.
    auto clamp = [&](WitnessPair* p) {
      if (p->known() && (p->a >= num_rows || p->b >= num_rows)) {
        *p = WitnessPair{};
      }
    };
    clamp(&w.swap_w);
    clamp(&w.split_xy);
    clamp(&w.split_yx);
    outcomes[std::move(key)] = w;
  }
  if (!oc.ok()) return Status::ParseError("warm state: outcomes damaged");

  s.relation_ = std::move(relation).value();
  s.coded_ = std::move(coded);
  s.last_ = std::move(last);
  s.batch_seq_ = batch_seq;
  s.outcomes_ = std::move(outcomes);
  return Status::OK();
}

}  // namespace ocdd::algo
