#ifndef OCDD_QA_HARNESS_H_
#define OCDD_QA_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/random_relation.h"
#include "qa/oracle.h"

namespace ocdd::qa {

struct QaOptions {
  std::uint64_t seed = 1;
  std::size_t iters = 100;
  /// Brute-force ground-truth side-length bound.
  std::size_t max_side_len = 2;
  /// Corruption to arm through the fault-injection subsystem (end-to-end
  /// harness self-test: detect → shrink → repro).
  CorruptionMode inject = CorruptionMode::kNone;
  /// Run the metamorphic transforms on instances the oracle found clean.
  bool metamorphic = true;
  /// Periodically re-run algorithms under check budgets / injected faults
  /// and assert the partial results are sound subsets of the complete ones.
  bool stopped_runs = true;
  /// Periodically stop a checkpointed run mid-lattice, resume it from its
  /// snapshot, and assert the resumed claims equal the uninterrupted run's
  /// (the crash-safety contract, docs/checkpointing.md).
  bool resume_runs = true;
  /// Splice seeded malformed rows into each instance's CSV rendering and
  /// audit the ingest boundary: skip ≡ quarantine on the surviving relation,
  /// exact per-code rejection accounting, and strict-fail erroring
  /// structurally (docs/robustness.md). Failures are shrunk line-wise.
  bool ingest = true;
  /// Periodically drive the iteration's relation through a seeded random
  /// batch schedule — append-only (fresh, duplicated, and NULL-bearing
  /// rows), delete-only, mixed, and empty batches — on an
  /// `IncrementalSession`, asserting after every batch that the
  /// incrementally maintained OD/OCD claims and column reduction equal a
  /// from-scratch discovery of the materialized relation, with a
  /// drop-and-reopen persistence leg
  /// mid-schedule (docs/incremental.md). Failing schedules are ddmin-shrunk
  /// batch- and op-wise (ShrinkFailingSchedule).
  bool incremental = true;
  /// Periodically re-run OCDDISCOVER with the check-kernel backend pinned
  /// to the scalar fallback (what `OCDD_SIMD=off` selects at startup) — in
  /// both check modes — and assert the closure is identical to the
  /// default-backend run's. Audits the SIMD dispatch layer's bit-identical
  /// promise end to end; a no-op when the scalar backend is already active
  /// (no AVX2, or `OCDD_SIMD=off` in the environment).
  bool simd_fallback = true;
  /// Path to the `ocdd` CLI binary, enabling the serve-equivalence stage:
  /// periodically serve the iteration's relation through an in-process
  /// daemon (spawning real worker processes) and assert the daemon's report
  /// is byte-identical to a direct `ocdd run` of the same CSV — both cold
  /// (cache miss) and cached (hit) — after stripping volatile keys
  /// (docs/serving.md). Empty disables the stage.
  std::string serve_cli_path;
  /// With the serve stage enabled, also replay each equivalence exchange
  /// over TCP through the in-process chaos fault proxy (ChaosProxy, mixed
  /// recoverable faults) with a retrying ServeClient — the report must
  /// still come back byte-identical despite injected resets, torn writes,
  /// latency and corruption (docs/serving.md).
  bool serve_chaos = false;
  /// Scratch directory for resume-equivalence snapshots; empty means a
  /// per-process directory under the system temp dir (removed afterwards).
  std::string checkpoint_scratch_dir;
  /// Stop collecting after this many failures (each is shrunk, which costs
  /// many oracle evaluations).
  std::size_t max_failures = 8;
  /// When non-empty, shrunk repro CSVs are written here.
  std::string repro_dir;
  datagen::RandomRelationSpec spec;
};

struct QaFailure {
  std::uint64_t iteration = 0;
  /// The per-iteration derived seed; `qa --seed <this> --iters 1` replays
  /// the failing instance exactly. (Iteration seeds are derived, not
  /// sequential — see IterationSeed.)
  std::uint64_t iteration_seed = 0;
  /// "oracle", "metamorphic/<transform>", "stopped_run", "resumed_run",
  /// "ingest", "incremental", "simd", or "serve". For "ingest" failures
  /// `csv` holds
  /// the raw corrupted text
  /// (line-shrunk when the contract violation survives shrinking) and each
  /// discrepancy names the bad-row policy it indicts.
  std::string kind;
  std::vector<Discrepancy> discrepancies;
  /// CSV of the shrunk failing relation (oracle failures) or of the base
  /// instance (metamorphic / stopped-run failures, which depend on more
  /// state than the relation alone). "incremental" failures carry the base
  /// relation here and the ddmin-shrunk batch schedule (batch wire format)
  /// in a trailing "schedule" discrepancy.
  std::string csv;
  std::size_t rows = 0;
  std::size_t cols = 0;
  /// File the CSV was written to, when QaOptions::repro_dir is set.
  std::string repro_path;
  /// Typed IoError when the repro write itself failed (disk full while
  /// saving evidence); empty on success.
  std::string repro_error;
};

struct QaSummary {
  std::uint64_t seed = 0;
  std::size_t iters_requested = 0;
  std::uint64_t iterations_run = 0;
  std::string corruption;
  std::uint64_t oracle_comparisons = 0;
  std::uint64_t metamorphic_comparisons = 0;
  std::uint64_t stopped_run_checks = 0;
  std::uint64_t resume_checks = 0;
  std::uint64_t ingest_checks = 0;
  std::uint64_t incremental_checks = 0;
  std::uint64_t simd_checks = 0;
  std::uint64_t serve_checks = 0;
  std::uint64_t skipped = 0;
  std::uint64_t shrink_evaluations = 0;
  std::vector<QaFailure> failures;

  bool clean() const { return failures.empty(); }
};

/// Seed of iteration `i` under master seed `seed` — a splitmix-style spread
/// so neighbouring iterations share no low-bit structure.
std::uint64_t IterationSeed(std::uint64_t seed, std::uint64_t i);

/// The differential/metamorphic sweep: per iteration, generate a random
/// relation from the iteration seed, run every algorithm, cross-check
/// (CrossCheckRuns), then metamorphic transforms and periodic stopped-run
/// subset checks. Failing instances are shrunk (ShrinkFailingRelation) and
/// reported with a replay seed. Fully deterministic in `options`.
QaSummary RunQa(const QaOptions& options);

/// Deterministic JSON rendering of a summary — a pure function of the
/// summary (no timing, no environment), so equal seeds yield byte-identical
/// reports.
std::string SummaryToJson(const QaSummary& summary);

}  // namespace ocdd::qa

#endif  // OCDD_QA_HARNESS_H_
