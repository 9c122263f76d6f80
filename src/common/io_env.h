#ifndef OCDD_COMMON_IO_ENV_H_
#define OCDD_COMMON_IO_ENV_H_

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace ocdd {

/// Injectable I/O environment for every durable-write path in the tree
/// (docs/robustness.md, "Disk faults").
///
/// All code that persists state — the snapshot store (and through it the
/// serve result cache, incremental warm state, and checkpoint stores), the
/// CSV quarantine writer, report/repro writers — issues its syscalls through
/// the process-global `IoEnv` instead of calling open/write/fsync/... raw.
/// Each call names its *site* (e.g. `"snapshot.write"`, `"quarantine.open"`):
/// a stable fault-point identifier that tests and the nightly disk-fault
/// sweep arm with simulated failures (ENOSPC, EIO, EMFILE, short writes,
/// fsync failure, crash-after-N-ops) without touching the real filesystem's
/// behavior for anyone else.
///
/// The wrappers are syscall-shaped: they return what the syscall returns and
/// report failures through `errno`, so call sites keep ordinary POSIX error
/// handling and injected faults are indistinguishable from real ones.
/// `IoErrorStatus` maps a failed call to a typed Status (`ResourceExhausted`
/// for out-of-space/out-of-descriptors, `Internal` otherwise) with a
/// machine-greppable `io <op> failed` prefix.
///
/// The environment can also record an *op log* of every mutating operation
/// (`StartOpLog`/`TakeOpLog`), and `ReplayOpLog` can materialize any prefix
/// of such a log into a fresh directory with the final operation torn —
/// the crash-consistency harness replays every prefix and asserts recovery
/// (tests/crash_consistency_test.cc).
///
/// The same registry arms the discovery algorithms' fault points: the *run*
/// kinds (`cancel`, `alloc`, `throw`) fire at `RunContext::AtInjectionPoint`
/// points (`"ocd.check"`, `"tane.check"`, ...), so one grammar and one
/// environment variable cover both storage and check-loop faults.

// ---------------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------------

/// Simulated failure modes for an armed fault point. The I/O kinds match
/// only I/O call sites, the run kinds only algorithm injection points.
enum class IoFaultKind {
  kNone = 0,
  kEnospc,      ///< fail with ENOSPC (disk full)
  kEio,         ///< fail with EIO (media error; on fsync sites: fsync failure)
  kEmfile,      ///< fail with EMFILE (fd exhaustion)
  kShortWrite,  ///< write() persists only half the requested bytes
  kCrash,       ///< latch the env as crashed: this and every later op fails
  kCancel,      ///< run kind: cooperative stop, `StopReason::kFaultInjected`
  kAlloc,       ///< run kind: simulated allocation failure, memory-budget stop
  kThrow,       ///< run kind: throws FaultInjectedError from the point
};

const char* IoFaultKindName(IoFaultKind kind);

/// True for the kinds that fire at algorithm injection points.
bool IsRunFaultKind(IoFaultKind kind);

/// One armed fault: which sites it matches, what it does, and when it fires.
struct IoFaultSpec {
  /// Site pattern: exact name, or a prefix ending in '*' ("snapshot.*"),
  /// or "*" alone for every site.
  std::string site_pattern;
  IoFaultKind kind = IoFaultKind::kNone;
  /// Fires on the Nth matching call (1 = next). 0 = every matching call.
  std::uint64_t after_n = 0;
  /// Fires each matching call with this probability (seeded); < 0 disables
  /// rate mode. Mutually exclusive with after_n.
  double rate = -1.0;

  bool Matches(const char* site) const;
};

/// Parses a comma-separated fault spec string, the `OCDD_IO_FAULTS`
/// environment-variable grammar used by the nightly disk-fault sweep:
///
///   spec     := entry (',' entry)*
///   entry    := site '=' kind trigger?
///   kind     := 'enospc' | 'eio' | 'emfile' | 'short' | 'crash'   (I/O)
///             | 'cancel' | 'alloc' | 'throw'                      (run)
///   trigger  := '#' N        (one-shot, fires on the Nth matching call)
///             | '@' RATE     (probabilistic, RATE in [0,1])
///
/// Examples: "snapshot.*=enospc", "*=eio@0.05", "snapshot.rename=crash#3",
/// "ocd.check=throw#5".
Result<std::vector<IoFaultSpec>> ParseIoFaultSpecs(const std::string& text);

// ---------------------------------------------------------------------------
// Op log (crash-consistency replay)
// ---------------------------------------------------------------------------

/// One recorded mutating operation.
struct IoOp {
  enum class Kind {
    kOpenTrunc,  ///< open with O_CREAT|O_TRUNC (file now exists, empty)
    kWrite,      ///< append `data` to the file (stores route writes forward)
    kRename,     ///< path -> path2
    kUnlink,
    kMkdir,
  };
  Kind kind;
  std::string site;
  std::string path;
  std::string path2;  ///< rename target
  std::string data;   ///< written bytes (kWrite)
};

const char* IoOpKindName(IoOp::Kind kind);

/// Materializes `ops[0..count)` into the filesystem, remapping every path
/// from `from_root` to `to_root`. With `tear_last`, the final op is applied
/// torn: a write persists only half its bytes, a rename/unlink/mkdir is
/// dropped (crash before the op took effect), an open-trunc still truncates.
/// `to_root` must exist; replay is for tests and fsck tooling, it bypasses
/// fault injection.
Status ReplayOpLog(const std::vector<IoOp>& ops, std::size_t count,
                   bool tear_last, const std::string& from_root,
                   const std::string& to_root);

// ---------------------------------------------------------------------------
// The environment
// ---------------------------------------------------------------------------

/// Per-fault-point counters, for tests and the sweep harness.
struct IoEnvStats {
  std::uint64_t ops = 0;
  std::uint64_t faults_fired = 0;
};

class IoEnv {
 public:
  IoEnv() = default;
  IoEnv(const IoEnv&) = delete;
  IoEnv& operator=(const IoEnv&) = delete;

  /// The process-global environment every durable-write path uses. Faults
  /// armed here (or via OCDD_IO_FAULTS, read once on first access) apply
  /// process-wide; tests clear them with `ClearFaults`.
  static IoEnv& Get();

  // --- syscall-shaped wrappers (set errno on failure) ---------------------

  int Open(const char* site, const std::string& path, int flags, mode_t mode);
  ssize_t Write(const char* site, int fd, const void* buf, std::size_t len);
  ssize_t Read(const char* site, int fd, void* buf, std::size_t len);
  int Fsync(const char* site, int fd);
  int Close(const char* site, int fd);
  int Rename(const char* site, const std::string& from, const std::string& to);
  int Unlink(const char* site, const std::string& path);
  int Mkdir(const char* site, const std::string& path, mode_t mode);

  // --- algorithm injection points -----------------------------------------

  /// False when no run-kind fault is armed: one relaxed load, no lock, so
  /// `RunContext::AtInjectionPoint` costs next to nothing in check loops.
  /// Reads true until the process environment has been read.
  static bool RunFaultsArmed() {
    return run_armed_.load(std::memory_order_relaxed);
  }
  /// Counts a hit of algorithm point `point` and returns the run kind to
  /// apply there (kNone for a clean pass). Only run-kind specs match, so
  /// polling never advances an I/O spec's counter or its rate draws.
  IoFaultKind PollRunPoint(const char* point);

  // --- fault arming -------------------------------------------------------

  void ArmFault(IoFaultSpec spec);
  /// Parses and arms a whole spec string (see ParseIoFaultSpecs).
  Status ArmFaultString(const std::string& text);
  /// Disarms every fault and clears the crash latch and the per-site
  /// counters.
  void ClearFaults();
  /// Seed for `@rate` probabilistic faults (deterministic sweeps). I/O and
  /// run kinds draw from separate streams seeded alike.
  void SeedFaultRng(std::uint64_t seed);
  /// True once a kCrash fault fired; every subsequent op fails with EIO
  /// until ClearFaults.
  bool crashed() const;

  // --- introspection ------------------------------------------------------

  /// Every site name seen since the last `ClearFaults`, sorted — the sweep
  /// harness enumerates the injection surface from a clean recording run.
  /// Algorithm points are counted only while a run-kind fault is armed.
  std::vector<std::string> SeenSites() const;
  IoEnvStats StatsFor(const std::string& site) const;
  std::uint64_t TotalFaultsFired() const;

  // --- op log -------------------------------------------------------------

  void StartOpLog();
  /// Stops recording and returns the log.
  std::vector<IoOp> TakeOpLog();

 private:
  /// Returns the fault to apply at `site` (kNone for a clean pass) and
  /// counts the hit. `run_point` selects which class of kinds may match.
  IoFaultKind PollLocked(const char* site, bool run_point);
  IoFaultKind Poll(const char* site);
  void Record(IoOp op);

  /// True while a run-kind spec is armed, and before the environment has
  /// been read.
  static inline std::atomic<bool> run_armed_{true};

  mutable std::mutex mu_;
  std::vector<IoFaultSpec> faults_;
  std::unordered_map<std::string, std::uint64_t> site_hits_;
  std::unordered_map<std::string, std::uint64_t> site_faults_;
  /// Matching-call counters per armed spec (parallel to faults_).
  std::vector<std::uint64_t> spec_hits_;
  /// Rate-draw streams: [0] for I/O kinds, [1] for run kinds.
  std::uint64_t rng_state_[2] = {0x9e3779b97f4a7c15ull,
                                 0x9e3779b97f4a7c15ull};
  bool crashed_ = false;
  bool logging_ = false;
  std::vector<IoOp> op_log_;
  /// fd -> path, for attributing Write/Fsync/Close ops in the log.
  std::unordered_map<int, std::string> fd_paths_;
};

// ---------------------------------------------------------------------------
// Typed errors + shared durable-write helpers
// ---------------------------------------------------------------------------

/// Typed status for a failed I/O call at `site`: ENOSPC/EDQUOT/EMFILE/ENFILE
/// map to ResourceExhausted, everything else to Internal. The message is
/// `io <op> failed for <path>: <strerror>` — every swallowed-write audit
/// finding routes through this (satellite: typed IoError statuses).
Status IoErrorStatus(const char* op, const std::string& path);

/// Durably writes `len` bytes to `path` via `env` (open O_TRUNC, write loop,
/// fsync, close), naming each call `<site_prefix>.open/.write/.fsync/.close`.
Status IoWriteFileSynced(IoEnv& env, const char* site_prefix,
                         const std::string& path, const char* bytes,
                         std::size_t len);

/// Reads the whole file into one buffer sized by `fstat` (sites
/// `<site_prefix>.open/.read/.close`). A missing file is NotFound; any other
/// failure, reading a directory included, is the typed IoErrorStatus.
Result<std::string> IoReadFileAll(IoEnv& env, const char* site_prefix,
                                  const std::string& path);

/// Fsyncs a directory so renames/creates inside it are durable.
Status IoSyncDir(IoEnv& env, const char* site_prefix, const std::string& dir);

/// mkdir -p one level with a durable parent (fsyncs the parent directory so
/// power loss cannot forget the new directory entry). EEXIST is success.
Status IoEnsureDir(IoEnv& env, const char* site_prefix,
                   const std::string& dir);

}  // namespace ocdd

#endif  // OCDD_COMMON_IO_ENV_H_
