#include "core/partition_checker.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/prof.h"

namespace ocdd::core {

using od::AttributeList;

namespace {

/// Key of a refine-memo entry (parent id, column) or of a check-memo slot
/// (lower id, higher id).
std::uint64_t PairKey(PartId a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::uint64_t SlotKey(PartId x, PartId y) {
  return x <= y ? PairKey(x, y) : PairKey(y, x);
}

AttributeList Prefix(const AttributeList& list, std::size_t k) {
  return AttributeList(std::vector<rel::ColumnId>(list.ids().begin(),
                                                  list.ids().begin() + k));
}

}  // namespace

PartitionChecker::PartitionChecker(const rel::CodedRelation& relation,
                                   RunContext& ctx,
                                   std::size_t max_cache_bytes,
                                   bool use_partitions)
    : relation_(relation),
      ctx_(ctx),
      max_cache_bytes_(max_cache_bytes),
      use_partitions_(use_partitions),
      sorter_(relation) {}

PartitionChecker::~PartitionChecker() { ctx_.ReleaseMemory(cache_bytes_); }

PartId PartitionChecker::IdOf(const AttributeList& list) const {
  auto it = ids_.find(list);
  return it == ids_.end() ? kNoPartId : it->second;
}

bool PartitionChecker::Charge(std::size_t bytes) {
  if (max_cache_bytes_ != 0 && cache_bytes_ + bytes > max_cache_bytes_) {
    return false;
  }
  const std::size_t budget = ctx_.memory_budget();
  if (budget != 0 && (cache_bytes_ + bytes > budget / 2 ||
                      ctx_.memory_used() + bytes > budget)) {
    return false;
  }
  if (!ctx_.ChargeMemory(bytes)) return false;
  prof::AddAlloc(bytes);
  cache_bytes_ += bytes;
  return true;
}

void PartitionChecker::Count(std::uint64_t n) const {
  checks_.fetch_add(n, std::memory_order_relaxed);
  ctx_.CountCheck(n);
}

void PartitionChecker::Prepare(const std::vector<Candidate>& level,
                               ThreadPool* pool,
                               const std::vector<char>* skip,
                               bool memoize_checks) {
  if (!use_partitions_) return;
  // Missing lists (and prefixes) by length, deduplicated, in level order.
  std::vector<std::vector<AttributeList>> layers;
  {
    prof::ScopedTimer plan_timer(prof::Phase::kPlan);
    ReleaseSlots(level, skip);
    std::unordered_set<AttributeList, od::AttributeListHash> planned;
    // Longest prefix first: the cache and the plan are both prefix-closed,
    // so the first prefix found in either ends the walk.
    auto plan = [&](const AttributeList& list) {
      if (ids_.count(list) != 0) return;
      for (std::size_t k = list.size(); k >= 1; --k) {
        AttributeList prefix = Prefix(list, k);
        if ((k < list.size() && ids_.count(prefix) != 0) ||
            !planned.insert(prefix).second) {
          return;
        }
        if (layers.size() <= k) layers.resize(k + 1);
        layers[k].push_back(std::move(prefix));
      }
    };
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (skip != nullptr && (*skip)[i] != 0) continue;
      plan(level[i].x);
      plan(level[i].y);
    }
  }

  for (std::vector<AttributeList>& layer : layers) {
    if (layer.empty()) continue;
    if (ctx_.ShouldStop()) return;  // also notices a passed deadline
    if (!RefineLayer(layer, pool)) return;
  }

  if (!memoize_checks) return;
  prof::ScopedTimer publish_timer(prof::Phase::kPublish);
  for (std::size_t i = 0; i < level.size(); ++i) {
    if (skip != nullptr && (*skip)[i] != 0) continue;
    const PartId x = IdOf(level[i].x);
    const PartId y = IdOf(level[i].y);
    if (x == kNoPartId || y == kNoPartId) continue;
    const std::uint64_t key = SlotKey(x, y);
    if (slots_.count(key) != 0 || !Charge(kSlotBytes)) continue;
    slots_.try_emplace(key);
  }
}

void PartitionChecker::ReleaseSlots(const std::vector<Candidate>& level,
                                    const std::vector<char>* skip) {
  if (slots_.empty()) return;
  std::unordered_set<std::uint64_t> again;
  for (std::size_t i = 0; i < level.size(); ++i) {
    if (skip != nullptr && (*skip)[i] != 0) continue;
    const PartId x = IdOf(level[i].x);
    const PartId y = IdOf(level[i].y);
    if (x != kNoPartId && y != kNoPartId) again.insert(SlotKey(x, y));
  }
  std::size_t released = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (again.count(it->first) != 0) {
      ++it;
      continue;
    }
    it = slots_.erase(it);
    released += kSlotBytes;
  }
  cache_bytes_ -= released;
  ctx_.ReleaseMemory(released);
}

bool PartitionChecker::RefineLayer(std::vector<AttributeList>& lists,
                                   ThreadPool* pool) {
  // Resolve each list to (parent id, last column). Pairs the refine memo
  // already holds need no work; a list whose parent a budget refused stays
  // uncached.
  std::vector<std::pair<AttributeList*, std::uint64_t>> waiting;
  std::vector<std::uint64_t> keys;
  {
    prof::ScopedTimer plan_timer(prof::Phase::kPlan);
    for (AttributeList& list : lists) {
      PartId parent = kNoPartId;
      if (list.size() > 1) {
        parent = IdOf(Prefix(list, list.size() - 1));
        if (parent == kNoPartId) continue;
      }
      const std::uint64_t key = PairKey(parent, list[list.size() - 1]);
      auto hit = refined_.find(key);
      if (hit != refined_.end()) {
        ids_.emplace(std::move(list), hit->second);
        continue;
      }
      waiting.emplace_back(&list, key);
      keys.push_back(key);
    }
    // Sorted by (parent id, column): deterministic, and siblings adjacent.
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  if (keys.empty()) return true;

  // One task per parent: its children refine back to back on one thread,
  // reusing the parent's rank histogram. Single columns have no parent
  // and are one task each.
  std::vector<std::size_t> family_begin;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const auto parent = static_cast<PartId>(keys[j] >> 32);
    if (j == 0 || parent == kNoPartId ||
        parent != static_cast<PartId>(keys[j - 1] >> 32)) {
      family_begin.push_back(j);
    }
  }
  family_begin.push_back(keys.size());

  struct Job {
    ListPartition result;
    std::uint64_t hash = 0;
    bool aliases_parent = false;
  };
  std::vector<Job> jobs(keys.size());
  auto refine_family = [&](std::size_t f) {
    thread_local RefineScratch scratch;
    scratch.histogram_of = kNoPartId;  // ids are only unique per cache
    for (std::size_t j = family_begin[f]; j < family_begin[f + 1]; ++j) {
      const PartId parent = static_cast<PartId>(keys[j] >> 32);
      const auto column = static_cast<rel::ColumnId>(keys[j] & 0xFFFFFFFFu);
      Job& job = jobs[j];
      if (parent == kNoPartId) {
        job.result = ListPartition::ForColumn(relation_, column);
      } else {
        const ListPartition& p = parts_[parent];
        job.result =
            p.Refine(relation_, column, &scratch, RefinePath::kAuto, parent);
        // A refinement that splits no group renumbers nothing: its ranks
        // are the parent's.
        if (job.result.num_groups() == p.num_groups()) {
          job.aliases_parent = true;
          job.result = ListPartition();
          continue;
        }
      }
      // Shrunk so the budgets are charged for real heap use, not
      // allocator slack.
      prof::ScopedTimer publish_timer(prof::Phase::kPublish);
      job.result.ShrinkToFit();
      job.hash = job.result.ContentHash();
    }
  };
  const std::size_t families = family_begin.size() - 1;
  if (pool != nullptr && families > 1) {
    Status status = pool->ParallelFor(families, refine_family);
    if (!status.ok()) {
      // A refinement threw (allocation failure or similar): contained by
      // the pool; stop the run and let the level unwind.
      ctx_.RequestStop(StopReason::kFaultInjected);
      return false;
    }
  } else {
    for (std::size_t f = 0; f < families; ++f) refine_family(f);
  }

  // Publish in key order: the content index, the budgets and the id
  // numbering see the same sequence at every thread count.
  prof::ScopedTimer publish_timer(prof::Phase::kPublish);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    Job& job = jobs[j];
    const PartId id =
        job.aliases_parent ? static_cast<PartId>(keys[j] >> 32)
                           : Publish(std::move(job.result), job.hash);
    if (id != kNoPartId) refined_.emplace(keys[j], id);
  }
  for (auto& [list, key] : waiting) {
    auto hit = refined_.find(key);
    if (hit != refined_.end()) ids_.emplace(std::move(*list), hit->second);
  }
  return true;
}

PartId PartitionChecker::Publish(ListPartition&& result, std::uint64_t hash) {
  auto [first, last] = by_content_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (parts_[it->second].SameContent(result)) return it->second;
  }
  if (!Charge(result.MemoryBytes())) return kNoPartId;
  const auto id = static_cast<PartId>(parts_.size());
  parts_.push_back(std::move(result));
  by_content_.emplace(hash, id);
  return id;
}

PartitionChecker::CheckSlot* PartitionChecker::SlotOf(PartId x,
                                                      PartId y) const {
  auto it = slots_.find(SlotKey(x, y));
  return it == slots_.end() ? nullptr : &it->second;
}

CandidateOutcome PartitionChecker::CheckOcdAndOds(
    const AttributeList& x, const AttributeList& y) const {
  CandidateOutcome out;
  const PartId ix = IdOf(x);
  const PartId iy = IdOf(y);
  Count(1);
  if (ix != kNoPartId && iy != kNoPartId) {
    // One row pass fills both directions' extremes: the swap bit answers
    // the OCD single check, the full outcomes both embedded ODs.
    OdCheckOutcome xy;
    OdCheckOutcome yx;
    if (CheckSlot* slot = SlotOf(ix, iy)) {
      const PartId lo = std::min(ix, iy);
      const PartId hi = std::max(ix, iy);
      std::call_once(slot->once, [&] {
        ListPartition::CheckOdBoth(parts_[lo], parts_[hi], &slot->both[0],
                                   &slot->both[1]);
      });
      const bool x_is_lo = ix == lo;
      xy = slot->both[x_is_lo ? 0 : 1];
      yx = slot->both[x_is_lo ? 1 : 0];
    } else {
      ListPartition::CheckOdBoth(parts_[ix], parts_[iy], &xy, &yx);
    }
    out.ocd_valid = !xy.has_swap;
    if (out.ocd_valid) {
      Count(2);
      out.od_xy = xy.valid();
      out.od_yx = yx.valid();
    }
    return out;
  }
  out.ocd_valid = sorter_.HoldsOcd(x, y);
  if (out.ocd_valid) {
    Count(2);
    out.od_xy = sorter_.HoldsOd(x, y);
    out.od_yx = sorter_.HoldsOd(y, x);
  }
  return out;
}

OdCheckOutcome PartitionChecker::CheckOd(const AttributeList& lhs,
                                         const AttributeList& rhs) const {
  const PartId il = IdOf(lhs);
  const PartId ir = IdOf(rhs);
  Count(1);
  if (il == kNoPartId || ir == kNoPartId) {
    return sorter_.CheckOd(lhs, rhs, /*early_exit=*/false);
  }
  return ListPartition::CheckOd(parts_[il], parts_[ir]);
}

}  // namespace ocdd::core
