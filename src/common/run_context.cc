#include "common/run_context.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "common/io_env.h"

namespace ocdd {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCheckBudget:
      return "check_budget";
    case StopReason::kMemoryBudget:
      return "memory_budget";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kFaultInjected:
      return "fault_injected";
    case StopReason::kLevelCap:
      return "level_cap";
  }
  return "unknown";
}

namespace {

/// The decimal number at the start of `text` after blanks; 0 when none.
std::size_t LeadingNumber(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  std::size_t value = 0;
  const std::size_t start = i;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i) {
    const std::size_t digit = static_cast<std::size_t>(text[i] - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return std::numeric_limits<std::size_t>::max();
    }
    value = value * 10 + digit;
  }
  return i == start ? 0 : value;
}

std::string ReadSmallFile(const char* path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// `<root><path>/<file>` for `path` and each of its ancestors, innermost
/// first, ending with `<root>/<file>`.
void AppendWithAncestors(std::string_view root, std::string_view path,
                         std::string_view file,
                         std::vector<std::string>* out) {
  while (!path.empty() && path.back() == '/') path.remove_suffix(1);
  while (true) {
    out->push_back(std::string(root) + std::string(path) + "/" +
                   std::string(file));
    if (path.empty()) return;
    const std::size_t slash = path.rfind('/');
    path = path.substr(0, slash == std::string_view::npos ? 0 : slash);
  }
}

/// Threads that have counted a check on any RunContext, in the order of
/// their first count; each takes the tally of its order modulo the slots.
std::atomic<std::size_t> g_threads_counting{0};

}  // namespace

std::size_t DefaultMemoryBudget(std::string_view cgroup_memory_max,
                                std::string_view meminfo) {
  std::size_t limit = LeadingNumber(cgroup_memory_max);  // "max" -> 0
  constexpr std::string_view kTotal = "MemTotal:";
  const std::size_t at = meminfo.find(kTotal);
  if (at != std::string_view::npos) {
    const std::size_t kib = LeadingNumber(meminfo.substr(at + kTotal.size()));
    const std::size_t ram =
        kib > std::numeric_limits<std::size_t>::max() / 1024
            ? std::numeric_limits<std::size_t>::max()
            : kib * 1024;
    if (ram != 0) limit = limit == 0 ? ram : std::min(limit, ram);
  }
  return limit / 2;
}

std::vector<std::string> CgroupMemoryLimitFiles(
    std::string_view proc_self_cgroup) {
  // Each line is "hierarchy-id:controller-list:path".
  std::string_view v2_path;
  std::string_view v1_path;
  std::string_view rest = proc_self_cgroup;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    const std::size_t first = line.find(':');
    if (first == std::string_view::npos) continue;
    const std::size_t second = line.find(':', first + 1);
    if (second == std::string_view::npos) continue;
    const std::string_view id = line.substr(0, first);
    const std::string_view controllers =
        line.substr(first + 1, second - first - 1);
    const std::string_view path = line.substr(second + 1);
    if (id == "0" && controllers.empty()) {
      v2_path = path;
      continue;
    }
    std::string_view list = controllers;
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      if (list.substr(0, comma) == "memory") v1_path = path;
      list = comma == std::string_view::npos ? std::string_view()
                                             : list.substr(comma + 1);
    }
  }
  std::vector<std::string> files;
  AppendWithAncestors("/sys/fs/cgroup", v2_path, "memory.max", &files);
  AppendWithAncestors("/sys/fs/cgroup/memory", v1_path,
                      "memory.limit_in_bytes", &files);
  return files;
}

std::size_t HostMemoryBudget() {
  const std::string meminfo = ReadSmallFile("/proc/meminfo");
  std::size_t budget = DefaultMemoryBudget("", meminfo);
  for (const std::string& path :
       CgroupMemoryLimitFiles(ReadSmallFile("/proc/self/cgroup"))) {
    const std::string limit = ReadSmallFile(path.c_str());
    if (limit.empty()) continue;  // no such cgroup here
    const std::size_t b = DefaultMemoryBudget(limit, meminfo);
    if (b != 0 && (budget == 0 || b < budget)) budget = b;
  }
  return budget;
}

std::vector<std::string> RunBudgets::ToCliFlags() const {
  std::vector<std::string> flags;
  if (time_limit_seconds > 0.0) {
    // %.6g keeps sub-second limits exact without trailing-zero noise.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", time_limit_seconds);
    flags.push_back("--time-limit");
    flags.push_back(buf);
  }
  if (max_checks != 0) {
    flags.push_back("--max-checks");
    flags.push_back(std::to_string(max_checks));
  }
  if (memory_bytes != 0) {
    const std::size_t mib = (memory_bytes + (1u << 20) - 1) >> 20;
    flags.push_back("--memory-limit");
    flags.push_back(std::to_string(mib));
  }
  return flags;
}

void RunContext::set_time_limit_seconds(double seconds) {
  if (seconds <= 0.0) {
    has_deadline_.store(false, std::memory_order_relaxed);
    return;
  }
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  has_deadline_.store(true, std::memory_order_release);
}

void RunContext::set_deadline(std::chrono::steady_clock::time_point deadline) {
  deadline_ = deadline;
  has_deadline_.store(true, std::memory_order_release);
}

void RunContext::set_check_budget(std::uint64_t checks) {
  check_budget_.store(checks, std::memory_order_relaxed);
}

void RunContext::set_memory_budget(std::size_t bytes) {
  memory_budget_.store(bytes, std::memory_order_relaxed);
}

bool RunContext::RequestStop(StopReason reason) {
  if (reason == StopReason::kNone) return false;
  int expected = static_cast<int>(StopReason::kNone);
  // compare_exchange is the whole precedence contract: exactly one caller
  // transitions kNone -> reason; every later caller (even with a different
  // reason) loses the race and must not overwrite.
  return stop_reason_.compare_exchange_strong(expected,
                                              static_cast<int>(reason),
                                              std::memory_order_relaxed);
}

std::size_t RunContext::ThreadSlot() {
  // Release pairs with SlotsInUse's acquire: a reader that sees a thread's
  // add to its tally also sees the slot it took.
  thread_local const std::size_t slot =
      g_threads_counting.fetch_add(1, std::memory_order_release) %
      kCheckSlots;
  return slot;
}

std::size_t RunContext::SlotsInUse() {
  return std::min(g_threads_counting.load(std::memory_order_acquire),
                  kCheckSlots);
}

std::uint64_t RunContext::checks() const {
  std::uint64_t sum = budget_spent_.load(std::memory_order_relaxed);
  for (std::size_t i = 0, n = SlotsInUse(); i < n; ++i) {
    sum += tallies_[i].checks.load(std::memory_order_relaxed);
  }
  return sum;
}

bool RunContext::ShouldStop() { return Poll(/*budget_spent=*/false); }

bool RunContext::Poll(bool budget_spent) {
  if (stop_reason_.load(std::memory_order_relaxed) !=
      static_cast<int>(StopReason::kNone)) {
    return true;
  }
  if (cancelled_.load(std::memory_order_relaxed)) {
    RequestStop(StopReason::kCancelled);
    return true;
  }
  if (budget_spent) {
    RequestStop(StopReason::kCheckBudget);
    return true;
  }
  if (has_deadline_.load(std::memory_order_acquire) &&
      std::chrono::steady_clock::now() >= deadline_) {
    RequestStop(StopReason::kDeadline);
    return true;
  }
  return false;
}

bool RunContext::CountCheck(std::uint64_t n) {
  const std::uint64_t budget = check_budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    tallies_[ThreadSlot()].checks.fetch_add(n, std::memory_order_relaxed);
    return false;
  }
  // One add on the shared counter; its total order makes exactly one add
  // the first to reach the budget, and that add's poll latches it.
  return Poll(budget_spent_.fetch_add(n, std::memory_order_relaxed) + n >=
              budget);
}

bool RunContext::ChargeMemory(std::size_t bytes) {
  std::size_t budget = memory_budget_.load(std::memory_order_relaxed);
  std::size_t used =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget != 0 && used > budget) {
    memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
    RequestStop(StopReason::kMemoryBudget);
    return false;
  }
  std::size_t peak = memory_peak_.load(std::memory_order_relaxed);
  while (used > peak &&
         !memory_peak_.compare_exchange_weak(peak, used,
                                             std::memory_order_relaxed)) {
  }
  return true;
}

void RunContext::ReleaseMemory(std::size_t bytes) {
  memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

void RunContext::AtInjectionPoint(const char* point) {
  if (!IoEnv::RunFaultsArmed()) return;
  switch (IoEnv::Get().PollRunPoint(point)) {
    case IoFaultKind::kCancel:
      RequestStop(StopReason::kFaultInjected);
      return;
    case IoFaultKind::kAlloc:
      RequestStop(StopReason::kMemoryBudget);
      return;
    case IoFaultKind::kThrow:
      throw FaultInjectedError(std::string("fault injected at ") + point);
    default:
      return;
  }
}

void RunContext::set_checkpoint_cadence(std::uint64_t every_checks,
                                        double every_seconds) {
  checkpoint_every_checks_.store(every_checks, std::memory_order_relaxed);
  std::int64_t ns = 0;
  if (every_seconds > 0.0) {
    ns = static_cast<std::int64_t>(every_seconds * 1e9);
  }
  checkpoint_every_ns_.store(ns, std::memory_order_relaxed);
  MarkCheckpointed();
}

bool RunContext::CheckpointDue() const {
  const std::uint64_t every_checks =
      checkpoint_every_checks_.load(std::memory_order_relaxed);
  const std::int64_t every_ns =
      checkpoint_every_ns_.load(std::memory_order_relaxed);
  if (every_checks == 0 && every_ns == 0) return true;
  if (every_checks != 0) {
    const std::uint64_t since =
        checks() - checkpoint_checks_mark_.load(std::memory_order_relaxed);
    if (since >= every_checks) return true;
  }
  if (every_ns != 0) {
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now_ns - checkpoint_time_mark_ns_.load(std::memory_order_relaxed) >=
        every_ns) {
      return true;
    }
  }
  return false;
}

void RunContext::MarkCheckpointed() {
  checkpoint_checks_mark_.store(checks(), std::memory_order_relaxed);
  checkpoint_time_mark_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

void RunContext::Reset() {
  stop_reason_.store(static_cast<int>(StopReason::kNone),
                     std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  budget_spent_.store(0, std::memory_order_relaxed);
  for (Tally& tally : tallies_) tally.checks.store(0);
  memory_used_.store(0, std::memory_order_relaxed);
  memory_peak_.store(0, std::memory_order_relaxed);
  MarkCheckpointed();
}

}  // namespace ocdd
