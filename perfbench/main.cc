// perfbench — the end-to-end benchmark of ocdd (see README.md).
//
//   perfbench --workload lattice|lineitem --seed N --seconds S
//             --trace 0|1 --cli PATH --workdir DIR
//
// Sets the workload up five times (set-up time is the median), then runs
// closed-loop ops for S seconds with the phase profiler off and reports the
// end-to-end metrics. With --trace 1 it spends the first half of S untraced
// and the second half with the profiler on, and reports the per-layer
// metrics instead; a traced lineitem run then also drives the serve daemon
// for S/2 seconds to measure the serving layers. Every op is checked
// against an independent reference.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; a human readable table goes to stderr.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/prof.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/registry.h"
#include "engine/supervisor.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_writer.h"
#include "serve/client.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using ocdd::report::JsonValue;
using namespace perfbench;

/// Set-up runs this many times; `setup_s` is the median.
constexpr int kSetupRepeats = 5;
/// The host probe's time, in ms, on the host speed that `setup_s` is
/// stated at (a probe takes about this long on a calm 4-vCPU KVM guest).
constexpr double kNominalProbeMs = 25.0;
/// A run never measures for longer than this, however slow the ops: the
/// whole run must finish well inside three minutes.
constexpr double kMaxMeasureSeconds = 60.0;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string cli;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.cli.empty() || args.workdir.empty()) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--cli PATH --workdir DIR");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Every metric the benchmark prints, with its unit. `layer` marks the
/// per-layer metrics of a traced run; the others are the end-to-end ones.
/// BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
  bool layer;
};

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", false},
    {"latency_p50_ref", "ref", false},
    {"throughput_ops_ref", "1/ref", false},
    {"peak_rss_mb", "MB", false},
    {"latency_p50_ms", "ms", true},
    {"throughput_ops_s", "1/s", true},
    {"relation.ingest_ms", "ms", true},
    {"relation.ingest_mb_s", "MB/s", true},
    {"relation.encode_ms", "ms", true},
    {"relation.rows_rejected", "count", true},
    {"core.discover_ms", "ms", true},
    {"core.refine_cpu_ms", "ms", true},
    {"core.check_fill_cpu_ms", "ms", true},
    {"core.check_scan_cpu_ms", "ms", true},
    {"core.plan_cpu_ms", "ms", true},
    {"core.publish_cpu_ms", "ms", true},
    {"core.generate_cpu_ms", "ms", true},
    {"core.sort_cpu_ms", "ms", true},
    {"core.encode_cpu_ms", "ms", true},
    {"core.busy_ratio", "ratio", true},
    {"core.check_fill_mb", "MB", true},
    {"core.refine_mb", "MB", true},
    {"core.alloc_mb", "MB", true},
    {"core.unattributed_ms", "ms", true},
    {"core.checks", "count", true},
    {"core.candidates", "count", true},
    {"core.levels", "count", true},
    {"core.useful_ratio", "ratio", true},
    {"core.partition_cache_mb", "MB", true},
    {"report.serialize_ms", "ms", true},
    {"report.json_kb", "KB", true},
    {"serve.latency_p50_ms", "ms", true},
    {"serve.throughput_ops_s", "1/s", true},
    {"serve.hit_p50_ms", "ms", true},
    {"serve.miss_p50_ms", "ms", true},
    {"serve.apply_p50_ms", "ms", true},
    {"serve.latency_p90_ms", "ms", true},
    {"serve.ping_p50_ms", "ms", true},
    {"serve.hit_ops", "count", true},
    {"serve.miss_ops", "count", true},
    {"serve.apply_ops", "count", true},
    {"serve.cache_hits", "count", true},
    {"serve.cache_misses", "count", true},
    {"serve.hit_ratio", "ratio", true},
    {"serve.evictions", "count", true},
    {"serve.rejected", "count", true},
    {"serve.retries", "count", true},
    {"engine.worker_run_ms", "ms", true},
    {"engine.worker_spawns", "count", true},
    {"engine.worker_crashes", "count", true},
    {"incremental.hook_served_ratio", "ratio", true},
    {"storage.snapshot_writes", "count", true},
    {"storage.warm_state_kb", "KB", true},
    {"storage.cache_dir_kb", "KB", true},
    {"bench.trace_overhead_ratio", "ratio", true},
    {"bench.host_ref_ms", "ms", true},
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void Add(const std::string& name, double value) {
    if (std::none_of(std::begin(kMetrics), std::end(kMetrics),
                     [&](const MetricDef& m) { return name == m.name; })) {
      Die("unlisted metric " + name);
    }
    values[name] = value;
  }
};

/// Prints the end-to-end metrics, or with `trace` the per-layer ones. A
/// layer the workload does not run prints as 0, so every workload prints
/// the same names.
void PrintResult(const RunResult& r, bool trace) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char num[64];
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if (m.layer != trace) continue;
    auto it = r.values.find(m.name);
    if (it == r.values.end() && !m.layer) {
      Die(std::string("end-to-end metric ") + m.name + " was not measured");
    }
    const double value = it == r.values.end() ? 0.0 : it->second;
    std::snprintf(num, sizeof(num), "%.17g", value);
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name, value, m.unit);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::fprintf(stderr, "  ops attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::printf("%s\n", json.c_str());
}

/// Starts a new peak-RSS interval: Linux resets the process's resident
/// high-water mark (VmHWM) when "5" is written to /proc/self/clear_refs.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the peak RSS through /proc/self/clear_refs");
}

/// Peak resident memory since the last ResetPeakRss, in MB (MiB).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  Die("no VmHWM line in /proc/self/status");
}

/// Host speed probe: two fixed kernels that share no code with ocdd, so
/// their time moves only with the speed of the host. One sorts integers in
/// cache; the other formats, allocates and parses strings, as CSV ingest
/// does. The probe is sampled around every set-up, at the start and end of
/// a run and throughout the measured window, and gives the unit of the
/// gated metrics: an interval's wall time is divided by the probe time
/// around it, which cancels most of the drift in host speed that this class
/// of machine shows over seconds to minutes (README.md).
///
/// The probe runs between ops, while the program is idle, and is timed on
/// the wall clock. A busier program therefore cannot slow the probe and
/// cancel its own cost, while time the host takes the guest's cores away
/// (steal) slows the probe as it slows the ops.
class HostProbe {
 public:
  /// Times one sort of 2^17 pseudo-random 64-bit keys plus formatting and
  /// parsing 15,000 numbers as strings (about 25 ms together).
  void Sample() {
    std::vector<std::uint64_t> v(1u << 17);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (auto& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    const Clock::time_point t0 = Clock::now();
    std::sort(v.begin(), v.end());
    std::vector<std::string> cells;
    cells.reserve(15000);
    for (std::size_t i = 0; i < 15000; ++i) {
      cells.push_back(std::to_string(static_cast<double>(v[i] % 1000000) / 7.0) +
                      ",field");
    }
    double sum = 0.0;
    for (const std::string& c : cells) sum += std::strtod(c.c_str(), nullptr);
    const double ms = MsSince(t0);
    if (!std::is_sorted(v.begin(), v.end()) || !(sum > 0.0)) {
      Die("host probe failed");
    }
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back({t0 + (Clock::now() - t0) / 2, ms});
  }
  void SampleTimes(int n) {
    for (int i = 0; i < n; ++i) Sample();
  }
  double MedianMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> ms;
    for (const Point& p : samples_) ms.push_back(p.ms);
    return Median(ms);
  }
  /// Median of the first and of the last `n` samples, for the drift note.
  std::pair<double, double> Ends(std::size_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    n = std::min(n, samples_.size());
    std::vector<double> first, last;
    for (std::size_t i = 0; i < n; ++i) {
      first.push_back(samples_[i].ms);
      last.push_back(samples_[samples_.size() - 1 - i].ms);
    }
    return {Median(first), Median(last)};
  }
  /// The interval [t0, t1] in probe times: the integral of dt / probe(t),
  /// with probe(t) interpolated linearly between samples.
  double RefUnits(Clock::time_point t0, Clock::time_point t1) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Clock::time_point> cuts{t0};
    for (const Point& p : samples_) {
      if (p.at > t0 && p.at < t1) cuts.push_back(p.at);
    }
    cuts.push_back(t1);
    double units = 0.0;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double ms =
          std::chrono::duration<double, std::milli>(cuts[i + 1] - cuts[i])
              .count();
      units += ms / At(cuts[i] + (cuts[i + 1] - cuts[i]) / 2);
    }
    return units;
  }

 private:
  struct Point {
    Clock::time_point at;
    double ms;
  };

  /// Probe time at `t`; callers hold `mu_` and have taken a sample.
  double At(Clock::time_point t) const {
    auto next = std::find_if(samples_.begin(), samples_.end(),
                             [&](const Point& p) { return p.at >= t; });
    if (next == samples_.begin()) return next->ms;
    if (next == samples_.end()) return samples_.back().ms;
    const Point& prev = *(next - 1);
    const double span =
        std::chrono::duration<double>(next->at - prev.at).count();
    const double w = std::chrono::duration<double>(t - prev.at).count() / span;
    return prev.ms + (next->ms - prev.ms) * w;
  }

  mutable std::mutex mu_;
  std::vector<Point> samples_;  ///< in time order
};

/// Runs `setup` kSetupRepeats times, each time with a probe sample before
/// and after it, and returns the median set-up time in seconds at the
/// nominal host speed: each set-up's wall time in probe times, times
/// kNominalProbeMs.
double TimeSetup(HostProbe* probe, const std::function<void()>& setup) {
  std::vector<double> raw_s, nominal_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    probe->Sample();
    const Clock::time_point t0 = Clock::now();
    setup();
    const Clock::time_point t1 = Clock::now();
    probe->Sample();
    raw_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    nominal_s.push_back(probe->RefUnits(t0, t1) * kNominalProbeMs / 1000.0);
  }
  std::fprintf(stderr,
               "set-up: %zu times, median %.3f s wall, %.3f s at nominal "
               "speed\n",
               raw_s.size(), Median(raw_s), Median(nominal_s));
  return Median(nominal_s);
}

/// The median, after checking the sample count rule (stats.h).
double CheckedMedian(const std::vector<double>& v, const char* what) {
  if (v.size() < MinSamplesFor(0.5)) {
    Die(std::string("too few samples for the median of ") + what + " (" +
        std::to_string(v.size()) + ")");
  }
  return Median(v);
}

bool KeepMeasuring(Clock::time_point start, double seconds, std::size_t ops,
                   std::size_t min_ops) {
  const double elapsed = MsSince(start) / 1000.0;
  if (elapsed >= kMaxMeasureSeconds) return false;
  return elapsed < seconds || ops < min_ops;
}

// ---------------------------------------------------------------------------
// lattice / lineitem: CSV file -> JSON bytes, in-process
// ---------------------------------------------------------------------------

using Span = std::pair<Clock::time_point, Clock::time_point>;

struct DiscoveryPhase {
  std::vector<double> total_ms, ingest_ms, ingest_mb_s, encode_ms,
      discover_ms, serialize_ms, busy_ratio, unattributed_ms;
  std::map<std::string, std::vector<double>> phase_cpu_ms;
  std::vector<double> fill_mb, refine_mb, alloc_mb;
  std::vector<double> peak_rss_mb;  ///< peak RSS during each op
  std::vector<Span> spans;  ///< start and end of each timed op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows_rejected = 0;
  Counts counts;
  DiscoveryOp last;
};

const char* const kCorePhases[][2] = {
    {"partition.refine", "core.refine_cpu_ms"},
    {"check.fill", "core.check_fill_cpu_ms"},
    {"check.scan", "core.check_scan_cpu_ms"},
    {"partition.plan", "core.plan_cpu_ms"},
    {"partition.publish", "core.publish_cpu_ms"},
    {"generate", "core.generate_cpu_ms"},
};

/// The named phase of a profile; an all-zero phase when it never ran.
ocdd::prof::PhaseStats Phase(const ocdd::prof::Report& report,
                             const std::string& name) {
  for (const auto& p : report.phases) {
    if (name == p.name) return p;
  }
  return {};
}

double PhaseMs(const ocdd::prof::Report& report, const std::string& name) {
  return Phase(report, name).seconds * 1000.0;
}

double PhaseMb(const ocdd::prof::Report& report, const std::string& name) {
  return static_cast<double>(Phase(report, name).bytes) / 1e6;
}

DiscoveryPhase RunDiscoveryPhase(const std::string& csv, double csv_mb,
                                 const DiscoverySpec& spec,
                                 const Expected& expected, double seconds,
                                 bool traced, HostProbe* probe) {
  DiscoveryPhase phase;
  const Clock::time_point start = Clock::now();
  while (KeepMeasuring(start, seconds, phase.attempted,
                       MinSamplesFor(0.5))) {
    probe->Sample();
    ++phase.attempted;
    // Every op starts from an allocator holding no free memory, so its peak
    // is what the op itself needs. Without this the peak also counted memory
    // that earlier work had left free in some thread's arena: it took one
    // of two values per process (206 or 253 MB on lattice).
    malloc_trim(0);
    ResetPeakRss();
    const Clock::time_point op_start = Clock::now();
    ocdd::Result<DiscoveryOp> op = RunDiscoveryOp(csv, spec.threads, traced);
    const Clock::time_point op_end = Clock::now();
    phase.peak_rss_mb.push_back(PeakRssMb());
    if (!op.ok()) {
      std::fprintf(stderr, "op failed: %s\n", op.status().ToString().c_str());
      ++phase.failed;
      continue;
    }
    Counts counts;
    if (!PassesGate(op->json, expected, &counts) || op->rows_rejected != 0) {
      ++phase.failed;
    }
    phase.counts = counts;
    phase.rows_rejected += op->rows_rejected;
    const OpTimings& t = op->t;
    phase.total_ms.push_back(t.total_ms);
    phase.spans.push_back({op_start, op_end});
    phase.ingest_ms.push_back(t.ingest_ms);
    phase.ingest_mb_s.push_back(csv_mb / (t.ingest_ms / 1000.0));
    phase.encode_ms.push_back(t.encode_ms);
    phase.discover_ms.push_back(t.discover_ms);
    phase.serialize_ms.push_back(t.serialize_ms);
    if (traced) {
      const ocdd::prof::Report& d = op->discover_profile;
      double busy_ms = 0.0;
      for (const auto& p : d.phases) busy_ms += p.seconds * 1000.0;
      const double threads = static_cast<double>(spec.threads);
      phase.busy_ratio.push_back(busy_ms / (threads * t.discover_ms));
      phase.unattributed_ms.push_back(t.discover_ms - busy_ms / threads);
      for (const auto& [prof_name, metric] : kCorePhases) {
        phase.phase_cpu_ms[metric].push_back(PhaseMs(d, prof_name));
      }
      phase.phase_cpu_ms["core.sort_cpu_ms"].push_back(
          PhaseMs(d, "check.sort_index") + PhaseMs(d, "check.sort_walk"));
      phase.phase_cpu_ms["core.encode_cpu_ms"].push_back(
          PhaseMs(op->encode_profile, "encode"));
      phase.fill_mb.push_back(PhaseMb(d, "check.fill"));
      phase.refine_mb.push_back(PhaseMb(d, "partition.refine"));
      phase.alloc_mb.push_back(static_cast<double>(d.alloc_bytes) / 1e6);
    }
    phase.last = std::move(*op);
  }
  probe->Sample();  // brackets the last op
  return phase;
}

/// The relation/core/report layer metrics of a traced discovery phase.
void AddDiscoveryLayers(const DiscoveryPhase& t, RunResult* r) {
  r->Add("relation.ingest_ms", Median(t.ingest_ms));
  r->Add("relation.ingest_mb_s", Median(t.ingest_mb_s));
  r->Add("relation.encode_ms", Median(t.encode_ms));
  r->Add("relation.rows_rejected", static_cast<double>(t.rows_rejected));
  r->Add("core.discover_ms", Median(t.discover_ms));
  for (const auto& [metric, ms] : t.phase_cpu_ms) r->Add(metric, Median(ms));
  r->Add("core.busy_ratio", Median(t.busy_ratio));
  r->Add("core.check_fill_mb", Median(t.fill_mb));
  r->Add("core.refine_mb", Median(t.refine_mb));
  r->Add("core.alloc_mb", Median(t.alloc_mb));
  r->Add("core.unattributed_ms", Median(t.unattributed_ms));
  r->Add("core.checks", static_cast<double>(t.counts.checks));
  r->Add("core.candidates", static_cast<double>(t.last.candidates));
  r->Add("core.levels", static_cast<double>(t.last.levels));
  r->Add("core.useful_ratio",
         t.counts.checks == 0
             ? 0.0
             : static_cast<double>(t.counts.ocds + t.counts.ods) /
                   static_cast<double>(t.counts.checks));
  r->Add("core.partition_cache_mb",
         static_cast<double>(t.last.partition_cache_bytes) / 1e6);
  r->Add("report.serialize_ms", Median(t.serialize_ms));
  r->Add("report.json_kb", static_cast<double>(t.last.json.size()) / 1024.0);
}

/// What every workload measures in its untraced window, raw and in probe
/// times (`*_ref`, see HostProbe).
struct Window {
  double p50_ms = 0.0;
  double ops_per_s = 0.0;
  double p50_ref = 0.0;
  double ops_per_ref = 0.0;
  /// Peak RSS of the benchmark process: the median of each op's peak.
  double peak_rss_mb = 0.0;
};

/// The median op of `spans` in probe times.
double MedianRefUnits(const HostProbe& probe, const std::vector<Span>& spans) {
  std::vector<double> units;
  for (const Span& s : spans) units.push_back(probe.RefUnits(s.first, s.second));
  return Median(units);
}

/// Seconds each window measures: a traced run splits its time between the
/// untraced and the traced window; a traced lineitem run gives the serve
/// mix one more window of the same length.
double WindowSeconds(const Args& args) {
  return args.trace ? args.seconds / 2.0 : args.seconds;
}

/// Completes and prints the run's result. With --trace 0: the end-to-end
/// metrics, where `*_ref` are latency and throughput in units of the host
/// probe's time. With --trace 1: the raw latency and throughput of the
/// untraced window and the tracing overhead, beside the layer metrics the
/// workload has added to `r`.
void Finish(const Args& args, double setup_s, const Window& plain,
            double traced_p50_ms, const HostProbe& probe, RunResult* r) {
  const auto [start, end] = probe.Ends(3);
  const double ref_ms = probe.MedianMs();
  std::fprintf(stderr,
               "host probe: %.3f ms at start, %.3f ms at end, median %.3f ms; "
               "untraced p50 %.3f ms, %.3f ops/s\n",
               start, end, ref_ms, plain.p50_ms, plain.ops_per_s);
  if (!args.trace) {
    r->Add("setup_s", setup_s);
    r->Add("latency_p50_ref", plain.p50_ref);
    r->Add("throughput_ops_ref", plain.ops_per_ref);
    r->Add("peak_rss_mb", plain.peak_rss_mb);
  } else {
    r->Add("latency_p50_ms", plain.p50_ms);
    r->Add("throughput_ops_s", plain.ops_per_s);
    r->Add("bench.trace_overhead_ratio", traced_p50_ms / plain.p50_ms);
    r->Add("bench.host_ref_ms", ref_ms);
  }
  PrintResult(*r, args.trace);
}

// ---------------------------------------------------------------------------
// The serving layers: an in-process daemon with real worker processes
// ---------------------------------------------------------------------------

/// The serve set-up: inputs on disk, a started daemon with warm hit sources
/// and bootstrapped client warm states, and the in-process references the
/// gate compares against.
struct ServeRig {
  ServeInputs inputs;
  std::vector<std::uint64_t> hit_digests;
  std::vector<ocdd::rel::Relation> bases;  ///< each client's base, as read
  std::string dir;
  std::unique_ptr<ocdd::serve::Server> server;
  std::thread run_thread;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { Stop(); }

  /// Drains the daemon (which persists its result cache) and joins it.
  void Stop() {
    if (!run_thread.joinable()) return;
    server->RequestStop();
    run_thread.join();
  }
  std::string cache_dir() const { return dir + "/cache"; }
  std::string checkpoint_root() const { return dir + "/ckpt"; }
  std::string state_dir(int client) const {
    return checkpoint_root() + "/incremental/default/c" +
           std::to_string(client);
  }
};

ocdd::serve::ClientOptions ClientOpts() {
  ocdd::serve::ClientOptions opts;
  opts.io_timeout_seconds = 60.0;
  return opts;
}

ocdd::serve::ServeRequest HitRequest(const ServeRig& rig, std::size_t i) {
  ocdd::serve::ServeRequest req;
  req.kind = "run";
  req.source = rig.inputs.hit_csvs[i];
  return req;
}

ocdd::serve::ServeRequest ApplyRequest(const ServeRig& rig, int client,
                                       const std::string& batch_path) {
  ocdd::serve::ServeRequest req;
  req.kind = "apply_batch";
  req.state = "c" + std::to_string(client);
  req.source = rig.inputs.base_csvs[static_cast<std::size_t>(client)];
  req.batch = batch_path;
  return req;
}

std::unique_ptr<ServeRig> StartServeRig(const Args& args) {
  auto rig = std::make_unique<ServeRig>();
  rig->dir = args.workdir + "/serve";
  fs::remove_all(rig->dir);
  fs::create_directories(rig->dir);
  ocdd::Result<ServeInputs> inputs = WriteServeInputs(args.seed, rig->dir);
  if (!inputs.ok()) Die("serve inputs: " + inputs.status().ToString());
  rig->inputs = std::move(*inputs);
  for (const std::string& csv : rig->inputs.hit_csvs) {
    ocdd::Result<ocdd::rel::CsvRead> read =
        ocdd::rel::ReadCsvFileWithReport(csv);
    if (!read.ok()) Die("hit source: " + read.status().ToString());
    rig->hit_digests.push_back(
        InProcessDigest(read->relation, true, &read->report));
  }
  for (const std::string& csv : rig->inputs.base_csvs) {
    ocdd::Result<ocdd::rel::Relation> base = ocdd::rel::ReadCsvFile(csv);
    if (!base.ok()) Die("client base: " + base.status().ToString());
    rig->bases.push_back(std::move(*base));
  }

  ocdd::serve::ServerOptions opts;
  opts.socket_path = rig->dir + "/s.sock";
  opts.num_executors = 2;
  // Small enough that the misses fill it within seconds: from then on every
  // miss evicts one, so memory stops growing with the run's op count (and
  // with host speed), and the eviction path is part of the workload.
  opts.cache_capacity_bytes = 1u << 20;
  opts.cache_dir = rig->cache_dir();
  opts.checkpoint_root = rig->checkpoint_root();
  opts.worker_argv_prefix = {args.cli, "run"};
  opts.batch_worker_argv_prefix = {args.cli, "apply-batch"};
  rig->server = std::make_unique<ocdd::serve::Server>(std::move(opts));
  ocdd::Status started = rig->server->Start();
  if (!started.ok()) Die("daemon: " + started.ToString());
  rig->run_thread = std::thread([server = rig->server.get()] {
    ocdd::Status ran = server->Run();
    if (!ran.ok()) Die("daemon: " + ran.ToString());
  });

  // Warm every hit source and bootstrap every client's warm state.
  const ocdd::serve::Endpoint& ep = rig->server->endpoint();
  for (std::size_t i = 0; i < rig->inputs.hit_csvs.size(); ++i) {
    auto resp = ocdd::serve::SendRequestOnce(ep, HitRequest(*rig, i),
                                             ClientOpts());
    if (!resp.ok() || resp->status != "ok" ||
        ReportDigest(resp->report, true) != rig->hit_digests[i]) {
      Die("warming hit source " + std::to_string(i) + " failed");
    }
  }
  for (int c = 0; c < kServeClients; ++c) {
    auto resp = ocdd::serve::SendRequestOnce(ep, ApplyRequest(*rig, c, ""),
                                             ClientOpts());
    if (!resp.ok() || resp->status != "ok") {
      Die("bootstrapping client " + std::to_string(c) + " failed");
    }
  }
  return rig;
}

struct ApplyRecord {
  std::string batch_text;
  std::uint64_t served_digest = 0;
  bool ok = false;
};

struct MissRecord {
  std::uint64_t seed = 0;
  std::uint64_t served_digest = 0;
};

/// A closed-loop client of the serve mix.
struct ClientState {
  int id = 0;
  OpSchedule schedule{0};
  ocdd::Rng rng{0};
  std::uint64_t misses_sent = 0;
  ocdd::rel::Relation pool;
  std::size_t pool_next = 0;
  std::vector<ApplyRecord> applies;  ///< every apply, in order
};

struct MixPhase {
  std::vector<double> all_ms;
  Span window;
  std::map<OpKind, std::vector<double>> by_kind_ms;
  std::vector<MissRecord> misses;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t worker_spawns = 0;
  std::uint64_t hook_served = 0;
  std::uint64_t hook_recomputed = 0;
  std::uint64_t snapshot_writes = 0;

  double WallSeconds() const {
    return std::chrono::duration<double>(window.second - window.first)
        .count();
  }

  void Merge(MixPhase&& o) {
    all_ms.insert(all_ms.end(), o.all_ms.begin(), o.all_ms.end());
    for (auto& [kind, v] : o.by_kind_ms) {
      by_kind_ms[kind].insert(by_kind_ms[kind].end(), v.begin(), v.end());
    }
    misses.insert(misses.end(), o.misses.begin(), o.misses.end());
    attempted += o.attempted;
    failed += o.failed;
    worker_spawns += o.worker_spawns;
    hook_served += o.hook_served;
    hook_recomputed += o.hook_recomputed;
    snapshot_writes += o.snapshot_writes;
  }
};

/// One client's closed loop until `deadline`. Answers are checked here
/// when the reference is at hand (hits) and recorded for checking after
/// the run otherwise (misses, applies).
MixPhase RunClient(const ServeRig& rig, const Args& args, ClientState* st,
                   Clock::time_point deadline) {
  MixPhase out;
  const ocdd::serve::Endpoint& ep = rig.server->endpoint();
  const ocdd::rel::Relation& base = rig.bases[static_cast<std::size_t>(st->id)];
  const std::string batch_path =
      rig.dir + "/batch" + std::to_string(st->id) + ".txt";
  while (Clock::now() < deadline) {
    const OpKind kind = st->schedule.Next();
    ocdd::serve::ServeRequest req;
    std::size_t hit_index = 0;
    std::string batch_text;
    if (kind == OpKind::kHit) {
      hit_index = st->rng.Uniform(rig.inputs.hit_csvs.size());
      req = HitRequest(rig, hit_index);
    } else if (kind == OpKind::kMiss) {
      req.kind = "run";
      req.source = "DBTESMA_1K";
      req.seed = MissSeed(args.seed, st->id, st->misses_sent++);
    } else {
      const ocdd::rel::RowBatch batch = MakeApplyBatch(
          st->rng.Next(), base.num_rows(), st->pool, &st->pool_next);
      batch_text = ocdd::rel::WriteBatchText(batch, base.schema());
      std::ofstream(batch_path, std::ios::binary | std::ios::trunc)
          << batch_text;
      req = ApplyRequest(rig, st->id, batch_path);
    }

    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    ocdd::Result<ocdd::serve::ServeResponse> resp =
        ocdd::serve::SendRequestOnce(ep, req, ClientOpts());
    const double ms = MsSince(t0);
    out.all_ms.push_back(ms);
    out.by_kind_ms[kind].push_back(ms);

    const bool answered = resp.ok() && resp->status == "ok";
    if (answered) out.worker_spawns += static_cast<std::uint64_t>(resp->attempts);
    bool good = answered;
    if (kind == OpKind::kHit) {
      good = good && resp->cache == "hit" &&
             ReportDigest(resp->report, true) == rig.hit_digests[hit_index];
    } else if (kind == OpKind::kMiss) {
      good = good && resp->cache == "miss";
      if (good) {
        out.misses.push_back({req.seed, ReportDigest(resp->report, true)});
      }
    } else {
      ApplyRecord rec;
      rec.batch_text = std::move(batch_text);
      rec.ok = answered && resp->report["applied"].bool_value();
      good = rec.ok;
      if (rec.ok) {
        rec.served_digest = ReportDigest(resp->report["report"], false);
        out.hook_served += static_cast<std::uint64_t>(
            resp->report["hook_served"].number_value());
        out.hook_recomputed += static_cast<std::uint64_t>(
            resp->report["hook_recomputed"].number_value());
        if (resp->report["snapshot_written"].bool_value()) {
          ++out.snapshot_writes;
        }
      }
      st->applies.push_back(std::move(rec));
    }
    if (!good) {
      ++out.failed;
      std::fprintf(stderr, "serve op %s failed: %s\n", OpKindName(kind),
                   resp.ok() ? (resp->status + " " + resp->error).c_str()
                             : resp.status().ToString().c_str());
    }
  }
  return out;
}

MixPhase RunMixPhase(const ServeRig& rig, const Args& args,
                     std::vector<ClientState>* clients) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(WindowSeconds(args)));
  std::vector<MixPhase> parts(clients->size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      parts[c] = RunClient(rig, args, &(*clients)[c], deadline);
    });
  }
  for (std::thread& t : threads) t.join();

  MixPhase phase;
  phase.window = {start, Clock::now()};
  for (MixPhase& p : parts) phase.Merge(std::move(p));
  std::fprintf(stderr, "mix: %zu ops in %.1f s (ms: quartiles of all, then "
               "of hit / miss / apply)\n", phase.all_ms.size(),
               phase.WallSeconds());
  for (const auto& [name, v] :
       {std::pair{"all", phase.all_ms},
        std::pair{"hit", phase.by_kind_ms[OpKind::kHit]},
        std::pair{"miss", phase.by_kind_ms[OpKind::kMiss]},
        std::pair{"apply", phase.by_kind_ms[OpKind::kApply]}}) {
    const auto q = Quartiles(v);
    if (q) {
      std::fprintf(stderr, "  %-5s n=%zu  %.3f  %.3f  %.3f\n", name, v.size(),
                   (*q)[0], (*q)[1], (*q)[2]);
    }
  }
  return phase;
}

/// Checks everything recorded for later: each miss against an in-process
/// discovery of the same relation, each apply against a from-scratch
/// discovery of the client's replayed relation, and each client's final
/// warm state on disk against the same. Returns {attempted, failed} of the
/// warm-state checks; op failures are added to `*op_failed`.
std::pair<std::uint64_t, std::uint64_t> VerifyAfterRun(
    const ServeRig& rig, const std::vector<MissRecord>& misses,
    const std::vector<ClientState>& clients, std::uint64_t* op_failed) {
  std::atomic<std::uint64_t> failed{0};
  ocdd::ThreadPool pool(4);
  ocdd::Status checked = pool.ParallelFor(misses.size(), [&](std::size_t i) {
    ocdd::Result<ocdd::rel::Relation> rel =
        ocdd::datagen::MakeDataset("DBTESMA_1K", 0, misses[i].seed);
    if (!rel.ok() ||
        InProcessDigest(*rel, true, nullptr) != misses[i].served_digest) {
      std::fprintf(stderr, "miss seed %llu: served answer differs\n",
                   static_cast<unsigned long long>(misses[i].seed));
      ++failed;
    }
  });
  if (!checked.ok()) Die("miss check: " + checked.ToString());
  std::atomic<std::uint64_t> state_failed{0};
  checked = pool.ParallelFor(clients.size(), [&](std::size_t c) {
    ocdd::rel::Relation mirror = rig.bases[c];
    for (const ApplyRecord& rec : clients[c].applies) {
      if (!rec.ok) continue;
      auto parsed = ocdd::rel::ParseBatchText(rec.batch_text, mirror.schema());
      auto next = parsed.ok() ? ocdd::rel::ApplyBatch(mirror, parsed->batch)
                              : ocdd::Result<ocdd::rel::Relation>(
                                    parsed.status());
      if (!next.ok()) {
        std::fprintf(stderr, "client %zu: batch replay failed: %s\n", c,
                     next.status().ToString().c_str());
        ++failed;
        continue;
      }
      mirror = std::move(*next);
      if (InProcessDigest(mirror, false, nullptr) != rec.served_digest) {
        std::fprintf(stderr, "client %zu: applied answer differs\n", c);
        ++failed;
      }
    }
    const bool same =
        WarmStateMatches(rig.state_dir(static_cast<int>(c)), mirror);
    if (!same) {
      std::fprintf(stderr, "client %zu: final warm state differs\n", c);
      ++state_failed;
    }
  });
  if (!checked.ok()) Die("apply check: " + checked.ToString());
  *op_failed += failed.load();
  return {clients.size(), state_failed.load()};
}

struct StatsDelta {
  JsonValue before, after;
  double Counter(const char* key) const {
    return after["counters"][key].number_value() -
           before["counters"][key].number_value();
  }
  double Cache(const char* key) const {
    return after["cache"][key].number_value() -
           before["cache"][key].number_value();
  }
  double Rejected() const {
    double total = 0.0;
    for (const auto& [reason, v] : after["counters"]["rejected"].object()) {
      total += v.number_value() -
               before["counters"]["rejected"][reason].number_value();
    }
    return total;
  }
};

/// The serve mix: the serving layers' metrics, added to a traced run's
/// result. An in-process daemon (2 executors, real `ocdd` worker processes)
/// answers 2 closed-loop clients for one window; every block of ten
/// requests a client sends holds 7 cache hits, 2 misses that spawn a
/// worker, and 1 apply_batch that persists the client's warm state. Its
/// latencies are not gated: wake-ups and process spawns pace serving, and
/// on this class of host their cost swings by a factor of two within
/// minutes while the compute probe hardly moves (README.md, "Serving").
void ServeMix(const Args& args, RunResult* r) {
  std::unique_ptr<ServeRig> rig = StartServeRig(args);
  std::vector<ClientState> clients(kServeClients);
  for (int c = 0; c < kServeClients; ++c) {
    clients[c].id = c;
    clients[c].schedule =
        OpSchedule(args.seed * 7919 + static_cast<std::uint64_t>(c));
    clients[c].rng = ocdd::Rng(args.seed * 104729 + static_cast<std::uint64_t>(c));
    clients[c].pool = AppendPool(args.seed, c);
  }

  // Framing and transport alone: ping round trips.
  const ocdd::serve::Endpoint& ep = rig->server->endpoint();
  std::uint64_t probe_attempted = 0;
  std::uint64_t probe_failed = 0;
  std::vector<double> ping_ms;
  ocdd::serve::ServeRequest ping;
  ping.kind = "ping";
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto resp = ocdd::serve::SendRequestOnce(ep, ping, ClientOpts());
    ping_ms.push_back(MsSince(t0));
    ++probe_attempted;
    if (!resp.ok() || resp->status != "ok") ++probe_failed;
  }
  r->Add("serve.ping_p50_ms", CheckedMedian(ping_ms, "ping"));

  StatsDelta stats;
  stats.before = rig->server->StatsJson();
  MixPhase mix = RunMixPhase(*rig, args, &clients);
  stats.after = rig->server->StatsJson();

  // The worker layer alone: RunWorkerProcess on fresh miss relations.
  std::vector<double> worker_ms;
  for (std::uint64_t k = 0; k < MinSamplesFor(0.5) + 1; ++k) {
    const std::uint64_t seed = MissSeed(args.seed, kServeClients, k);
    const Clock::time_point t0 = Clock::now();
    ocdd::engine::WorkerOutcome out = ocdd::engine::RunWorkerProcess(
        {args.cli, "run", "DBTESMA_1K", "--algo", "discover", "--json",
         "--seed", std::to_string(seed)});
    worker_ms.push_back(MsSince(t0));
    ++probe_attempted;
    auto doc = ocdd::report::ParseJson(out.stdout_text);
    auto rel = ocdd::datagen::MakeDataset("DBTESMA_1K", 0, seed);
    if (out.exit_code != 0 || !doc.ok() || !rel.ok() ||
        ReportDigest(*doc, true) != InProcessDigest(*rel, true, nullptr)) {
      ++probe_failed;
    }
  }

  rig->Stop();
  std::uint64_t op_failed = mix.failed;
  auto [state_attempted, state_failed] =
      VerifyAfterRun(*rig, mix.misses, clients, &op_failed);
  r->attempted += mix.attempted + probe_attempted + state_attempted;
  r->failed += op_failed + probe_failed + state_failed;

  auto kind_ms = [&](OpKind k) {
    auto it = mix.by_kind_ms.find(k);
    return it == mix.by_kind_ms.end() ? std::vector<double>{} : it->second;
  };
  const double hits = stats.Cache("hits");
  const double misses = stats.Cache("misses");
  r->Add("serve.latency_p50_ms", CheckedMedian(mix.all_ms, "serve latency"));
  r->Add("serve.throughput_ops_s",
         static_cast<double>(mix.all_ms.size()) / mix.WallSeconds());
  r->Add("serve.hit_p50_ms", Median(kind_ms(OpKind::kHit)));
  r->Add("serve.miss_p50_ms", Median(kind_ms(OpKind::kMiss)));
  r->Add("serve.apply_p50_ms", Median(kind_ms(OpKind::kApply)));
  r->Add("serve.latency_p90_ms", Percentile(mix.all_ms, 0.9).value_or(0.0));
  r->Add("serve.hit_ops", static_cast<double>(kind_ms(OpKind::kHit).size()));
  r->Add("serve.miss_ops", static_cast<double>(kind_ms(OpKind::kMiss).size()));
  r->Add("serve.apply_ops",
         static_cast<double>(kind_ms(OpKind::kApply).size()));
  r->Add("serve.cache_hits", hits);
  r->Add("serve.cache_misses", misses);
  r->Add("serve.hit_ratio", hits / std::max(1.0, hits + misses));
  r->Add("serve.evictions", stats.Cache("evictions"));
  r->Add("serve.rejected", stats.Rejected());
  r->Add("serve.retries", stats.Counter("retries"));
  r->Add("engine.worker_run_ms", CheckedMedian(worker_ms, "worker run"));
  r->Add("engine.worker_spawns", static_cast<double>(mix.worker_spawns));
  r->Add("engine.worker_crashes", stats.Counter("worker_crashes"));
  r->Add("incremental.hook_served_ratio",
         static_cast<double>(mix.hook_served) /
             std::max(1.0, static_cast<double>(mix.hook_served +
                                               mix.hook_recomputed)));
  r->Add("storage.snapshot_writes", static_cast<double>(mix.snapshot_writes));
  r->Add("storage.warm_state_kb",
         static_cast<double>(
             DirBytes(rig->checkpoint_root() + "/incremental")) /
             1024.0);
  r->Add("storage.cache_dir_kb",
         static_cast<double>(DirBytes(rig->cache_dir())) / 1024.0);
}

int RunDiscovery(const Args& args, const DiscoverySpec& spec) {
  fs::create_directories(args.workdir);
  const std::string csv = args.workdir + "/" + spec.name + ".csv";

  HostProbe probe;
  probe.SampleTimes(3);
  std::optional<Expected> expected;
  const double setup_s = TimeSetup(&probe, [&] {
    ocdd::Status written = WriteDiscoveryInput(spec, args.seed, csv);
    if (!written.ok()) Die("input: " + written.ToString());
    ocdd::Result<Expected> ref = DiscoveryReference(spec, args.seed, csv);
    if (!ref.ok()) Die("reference: " + ref.status().ToString());
    if (expected && ref->digest != expected->digest) {
      Die("the set-up reference is not deterministic");
    }
    expected = *ref;
  });
  const double csv_mb = static_cast<double>(fs::file_size(csv)) / 1e6;

  // One untimed op first: thread pool start-up and allocator warm-up are
  // paid once per process, not per op.
  if (!RunDiscoveryOp(csv, spec.threads, false).ok()) Die("warm-up op failed");

  ocdd::prof::SetEnabled(false);
  DiscoveryPhase plain = RunDiscoveryPhase(
      csv, csv_mb, spec, *expected, WindowSeconds(args), false, &probe);
  DiscoveryPhase traced;
  if (args.trace) {
    ocdd::prof::SetEnabled(true);
    traced = RunDiscoveryPhase(csv, csv_mb, spec, *expected,
                               WindowSeconds(args), true, &probe);
    ocdd::prof::SetEnabled(false);
  }
  probe.SampleTimes(3);

  RunResult r;
  r.attempted = plain.attempted + traced.attempted;
  r.failed = plain.failed + traced.failed;
  if (args.trace && spec.serve_layers) ServeMix(args, &r);
  // A single closed-loop client: throughput is ops over the time spent in
  // them (gate checks between ops excluded).
  double busy_s = 0.0;
  double busy_ref = 0.0;
  for (std::size_t i = 0; i < plain.total_ms.size(); ++i) {
    busy_s += plain.total_ms[i] / 1000.0;
    busy_ref += probe.RefUnits(plain.spans[i].first, plain.spans[i].second);
  }
  const double ops = static_cast<double>(plain.total_ms.size());
  const Window window{CheckedMedian(plain.total_ms, "latency"), ops / busy_s,
                      MedianRefUnits(probe, plain.spans), ops / busy_ref,
                      Median(plain.peak_rss_mb)};
  if (args.trace) AddDiscoveryLayers(traced, &r);
  Finish(args, setup_s, window,
         args.trace ? CheckedMedian(traced.total_ms, "traced latency") : 0.0,
         probe, &r);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (std::optional<DiscoverySpec> spec = FindDiscoverySpec(args.workload)) {
    return RunDiscovery(args, *spec);
  }
  Die("unknown workload '" + args.workload + "'");
}
