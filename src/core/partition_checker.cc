#include "core/partition_checker.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/prof.h"

namespace ocdd::core {

using od::AttributeList;

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

const ListPartition* PartitionChecker::Find(const AttributeList& list) const {
  auto it = cache_.find(list);
  return it == cache_.end() ? nullptr : &it->second;
}

bool PartitionChecker::Fits(std::size_t bytes) const {
  if (max_cache_bytes_ != 0 && cache_bytes_ + bytes > max_cache_bytes_) {
    return false;
  }
  const std::size_t budget = ctx_.memory_budget();
  return budget == 0 || (cache_bytes_ + bytes <= budget / 2 &&
                         ctx_.memory_used() + bytes <= budget);
}

void PartitionChecker::Count(std::uint64_t n) const {
  checks_.fetch_add(n, std::memory_order_relaxed);
  ctx_.CountCheck(n);
}

void PartitionChecker::Prepare(const std::vector<Candidate>& level,
                               ThreadPool* pool,
                               const std::vector<char>* skip) {
  if (!use_partitions_) return;
  struct Job {
    AttributeList list;
    ListPartition result;
    bool computed = false;
  };
  std::vector<Job> jobs;
  std::vector<std::vector<Job*>> layers;
  {
    prof::ScopedTimer plan_timer(prof::Phase::kPlan);
    std::unordered_set<AttributeList, od::AttributeListHash> planned;
    auto plan = [&](const AttributeList& list) {
      for (std::size_t k = 1; k <= list.size(); ++k) {
        AttributeList prefix(std::vector<rel::ColumnId>(
            list.ids().begin(), list.ids().begin() + k));
        if (cache_.count(prefix) != 0 || !planned.insert(prefix).second) {
          continue;
        }
        jobs.push_back(Job{std::move(prefix), ListPartition{}, false});
      }
    };
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (skip != nullptr && (*skip)[i] != 0) continue;
      plan(level[i].x);
      plan(level[i].y);
    }
    if (jobs.empty()) return;
    std::size_t max_len = 0;
    for (const Job& j : jobs) max_len = std::max(max_len, j.list.size());
    layers.resize(max_len + 1);
    for (Job& j : jobs) layers[j.list.size()].push_back(&j);
  }

  auto compute_job = [&](Job& job) {
    if (job.list.size() == 1) {
      job.result = ListPartition::ForColumn(relation_, job.list[0]);
      job.computed = true;
      return;
    }
    AttributeList prefix(std::vector<rel::ColumnId>(
        job.list.ids().begin(), job.list.ids().end() - 1));
    const ListPartition* parent = Find(prefix);
    if (parent == nullptr) return;  // refused by a budget
    thread_local RefineScratch scratch;
    job.result =
        parent->Refine(relation_, job.list[job.list.size() - 1], &scratch);
    job.computed = true;
  };

  for (std::vector<Job*>& layer : layers) {
    if (layer.empty()) continue;
    if (ctx_.ShouldStop()) return;  // also notices a passed deadline
    // Siblings become adjacent, so one worker's contiguous block reuses
    // the parent histogram. Pure list comparison: thread-count-stable.
    std::stable_sort(layer.begin(), layer.end(),
                     [](const Job* a, const Job* b) {
                       return a->list.ids() < b->list.ids();
                     });
    if (pool != nullptr && layer.size() > 1) {
      Status status = pool->ParallelFor(
          layer.size(), [&](std::size_t i) { compute_job(*layer[i]); });
      if (!status.ok()) {
        // A refinement threw (allocation failure or similar): contained
        // by the pool; stop the run and let the level unwind.
        ctx_.RequestStop(StopReason::kFaultInjected);
        return;
      }
    } else {
      for (Job* j : layer) compute_job(*j);
    }
    // Publish in the sorted (deterministic) order, shrunk so the budgets
    // are charged for real heap use, not allocator slack.
    prof::ScopedTimer publish_timer(prof::Phase::kPublish);
    for (Job* j : layer) {
      if (!j->computed) continue;
      j->result.ShrinkToFit();
      const std::size_t bytes = j->result.MemoryBytes();
      if (!Fits(bytes) || !ctx_.ChargeMemory(bytes)) continue;
      prof::AddAlloc(bytes);
      cache_bytes_ += bytes;
      cache_.emplace(std::move(j->list), std::move(j->result));
    }
  }
}

CandidateOutcome PartitionChecker::CheckOcdAndOds(
    const AttributeList& x, const AttributeList& y) const {
  CandidateOutcome out;
  const ListPartition* px = Find(x);
  const ListPartition* py = Find(y);
  Count(1);
  if (px != nullptr && py != nullptr) {
    // One row pass fills both directions' extremes: the swap bit answers
    // the OCD single check, the full outcomes both embedded ODs.
    OdCheckOutcome xy;
    OdCheckOutcome yx;
    ListPartition::CheckOdBoth(*px, *py, &xy, &yx);
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
  const ListPartition* pl = Find(lhs);
  const ListPartition* pr = Find(rhs);
  Count(1);
  if (pl != nullptr && pr != nullptr) return ListPartition::CheckOd(*pl, *pr);
  return sorter_.CheckOd(lhs, rhs, /*early_exit=*/false);
}

}  // namespace ocdd::core
