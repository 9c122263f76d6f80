#include "common/prof.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace ocdd::prof {

namespace {

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kNumPhases);

std::uint64_t Now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// One thread's counters. Relaxed atomics: the owning thread adds, the
/// snapshot thread reads; no ordering between counters is needed.
struct Slab {
  std::atomic<std::uint64_t> cycles[kNumPhases];
  std::atomic<std::uint64_t> bytes[kNumPhases];
  std::atomic<std::uint64_t> calls[kNumPhases];
  std::atomic<std::uint64_t> alloc_bytes{0};
  std::atomic<std::uint64_t> alloc_calls{0};

  Slab() {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      cycles[p].store(0, std::memory_order_relaxed);
      bytes[p].store(0, std::memory_order_relaxed);
      calls[p].store(0, std::memory_order_relaxed);
    }
  }

  void Zero() {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      cycles[p].store(0, std::memory_order_relaxed);
      bytes[p].store(0, std::memory_order_relaxed);
      calls[p].store(0, std::memory_order_relaxed);
    }
    alloc_bytes.store(0, std::memory_order_relaxed);
    alloc_calls.store(0, std::memory_order_relaxed);
  }

  void FoldInto(Slab* into) const {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      into->cycles[p].fetch_add(cycles[p].load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
      into->bytes[p].fetch_add(bytes[p].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      into->calls[p].fetch_add(calls[p].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    }
    into->alloc_bytes.fetch_add(alloc_bytes.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
    into->alloc_calls.fetch_add(alloc_calls.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
  }
};

struct Registry {
  std::mutex mu;
  std::vector<Slab*> live;
  Slab retired;  // folded-in slabs of exited threads
  std::uint64_t rows_checked = 0;
  std::uint64_t rows_input = 0;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

/// Registers on first use, folds into `retired` and returns the slab to a
/// freelist on thread exit so long-running servers don't leak one slab per
/// short-lived worker thread.
struct TlsSlab {
  Slab* slab;

  TlsSlab() {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    slab = new Slab();
    reg.live.push_back(slab);
  }

  ~TlsSlab() {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    slab->FoldInto(&reg.retired);
    for (std::size_t i = 0; i < reg.live.size(); ++i) {
      if (reg.live[i] == slab) {
        reg.live.erase(reg.live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    delete slab;
  }
};

Slab& TlsCounters() {
  thread_local TlsSlab tls;
  return *tls.slab;
}

/// -1 unresolved, 0 disabled, 1 enabled. Resolved from OCDD_PROFILE on the
/// first probe unless SetEnabled ran first.
std::atomic<int> g_enabled{-1};

/// One-time TSC frequency calibration against the steady clock.
double CyclesPerSecond() {
  static const double hz = [] {
    auto wall0 = std::chrono::steady_clock::now();
    std::uint64_t t0 = Now();
    // ~2ms busy calibration window: short enough to be invisible at
    // report time, long enough for a stable estimate.
    for (;;) {
      auto wall1 = std::chrono::steady_clock::now();
      if (wall1 - wall0 >= std::chrono::milliseconds(2)) {
        std::uint64_t t1 = Now();
        double secs = std::chrono::duration<double>(wall1 - wall0).count();
        return secs > 0 ? static_cast<double>(t1 - t0) / secs : 1e9;
      }
    }
  }();
  return hz;
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kIngest: return "ingest";
    case Phase::kSynthesize: return "synthesize";
    case Phase::kEncode: return "encode";
    case Phase::kPlan: return "partition.plan";
    case Phase::kRefine: return "partition.refine";
    case Phase::kPublish: return "partition.publish";
    case Phase::kCheckFill: return "check.fill";
    case Phase::kCheckScan: return "check.scan";
    case Phase::kSortIndex: return "check.sort_index";
    case Phase::kSortCheck: return "check.sort_walk";
    case Phase::kGenerate: return "generate";
    case Phase::kCheckpoint: return "checkpoint";
    case Phase::kSerialize: return "serialize";
    case Phase::kNumPhases: break;
  }
  return "unknown";
}

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  const char* env = std::getenv("OCDD_PROFILE");
  bool on = env != nullptr && *env != '\0' && *env != '0';
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

void SetEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void Reset() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (Slab* s : reg.live) s->Zero();
  reg.retired.Zero();
  reg.rows_checked = reg.rows_input = 0;
}

void SetRows(std::uint64_t checked, std::uint64_t input) {
  if (!Enabled()) return;
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.rows_checked = checked;
  reg.rows_input = input;
}

void AddBytes(Phase phase, std::uint64_t bytes) {
  if (!Enabled()) return;
  TlsCounters().bytes[static_cast<std::size_t>(phase)].fetch_add(
      bytes, std::memory_order_relaxed);
}

void AddAlloc(std::uint64_t bytes) {
  if (!Enabled()) return;
  Slab& s = TlsCounters();
  s.alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  s.alloc_calls.fetch_add(1, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Phase phase)
    : phase_(phase), armed_(Enabled()), start_(armed_ ? Now() : 0) {}

ScopedTimer::~ScopedTimer() {
  if (!armed_) return;
  std::uint64_t elapsed = Now() - start_;
  Slab& s = TlsCounters();
  std::size_t p = static_cast<std::size_t>(phase_);
  s.cycles[p].fetch_add(elapsed, std::memory_order_relaxed);
  s.calls[p].fetch_add(1, std::memory_order_relaxed);
}

Report Snapshot() {
  Report out;
  out.enabled = Enabled();
  out.cycles_per_second = CyclesPerSecond();
  Slab sum;
  {
    Registry& reg = GetRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const Slab* s : reg.live) s->FoldInto(&sum);
    reg.retired.FoldInto(&sum);
    out.rows_checked = reg.rows_checked;
    out.rows_input = reg.rows_input;
  }
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    std::uint64_t calls = sum.calls[p].load(std::memory_order_relaxed);
    std::uint64_t bytes = sum.bytes[p].load(std::memory_order_relaxed);
    if (calls == 0 && bytes == 0) continue;
    PhaseStats stats;
    stats.name = PhaseName(static_cast<Phase>(p));
    stats.cycles = sum.cycles[p].load(std::memory_order_relaxed);
    stats.seconds = out.cycles_per_second > 0
                        ? static_cast<double>(stats.cycles) /
                              out.cycles_per_second
                        : 0.0;
    stats.bytes = bytes;
    stats.calls = calls;
    out.phases.push_back(stats);
  }
  out.alloc_bytes = sum.alloc_bytes.load(std::memory_order_relaxed);
  out.alloc_calls = sum.alloc_calls.load(std::memory_order_relaxed);
  return out;
}

double PhaseSeconds(const Report& report, Phase phase) {
  const char* name = PhaseName(phase);
  for (const PhaseStats& p : report.phases) {
    if (p.name == name) return p.seconds;
  }
  return 0.0;
}

std::string ToJson(const Report& report) {
  char buf[160];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"cycles_per_second\":%.0f,",
                report.cycles_per_second);
  out += buf;
  out += "\"phases\":[";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseStats& p = report.phases[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"cycles\":%llu,\"seconds\":%.6f,"
        "\"bytes\":%llu,\"calls\":%llu}",
        i == 0 ? "" : ",", p.name, static_cast<unsigned long long>(p.cycles),
        p.seconds, static_cast<unsigned long long>(p.bytes),
        static_cast<unsigned long long>(p.calls));
    out += buf;
  }
  out += "],";
  std::snprintf(buf, sizeof(buf), "\"alloc\":{\"bytes\":%llu,\"calls\":%llu}",
                static_cast<unsigned long long>(report.alloc_bytes),
                static_cast<unsigned long long>(report.alloc_calls));
  out += buf;
  if (report.rows_input > 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"rows\":{\"checked\":%llu,\"input\":%llu}",
                  static_cast<unsigned long long>(report.rows_checked),
                  static_cast<unsigned long long>(report.rows_input));
    out += buf;
  }
  if (report.wall_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"wall_seconds\":%.6f,\"unattributed_seconds\":%.6f",
                  report.wall_seconds, report.unattributed_seconds);
    out += buf;
  }
  if (report.run_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"run_seconds\":%.6f,\"busy_ratio\":%.4f",
                  report.run_seconds, report.busy_ratio);
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace ocdd::prof
