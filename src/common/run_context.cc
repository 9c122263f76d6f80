#include "common/run_context.h"

#include <cstdio>
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

bool RunContext::ShouldStop() {
  if (stop_reason_.load(std::memory_order_relaxed) !=
      static_cast<int>(StopReason::kNone)) {
    return true;
  }
  if (cancelled_.load(std::memory_order_relaxed)) {
    RequestStop(StopReason::kCancelled);
    return true;
  }
  std::uint64_t budget = check_budget_.load(std::memory_order_relaxed);
  if (budget != 0 && checks_.load(std::memory_order_relaxed) >= budget) {
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
  checks_.fetch_add(n, std::memory_order_relaxed);
  return ShouldStop();
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
        checks_.load(std::memory_order_relaxed) -
        checkpoint_checks_mark_.load(std::memory_order_relaxed);
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
  checkpoint_checks_mark_.store(checks_.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
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
  checks_.store(0, std::memory_order_relaxed);
  memory_used_.store(0, std::memory_order_relaxed);
  memory_peak_.store(0, std::memory_order_relaxed);
  MarkCheckpointed();
}

}  // namespace ocdd
