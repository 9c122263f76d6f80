#ifndef OCDD_QA_ORACLE_H_
#define OCDD_QA_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qa/claims.h"
#include "relation/coded_relation.h"

namespace ocdd::qa {

/// Deliberate result corruption (`ocdd qa --inject`): the oracle mutates
/// one algorithm's claims *after* the run and before cross-checking,
/// simulating a buggy implementation end-to-end (detection →
/// shrinking → repro). Each mode is a pure, deterministic function of the
/// relation, so a corruption-triggered failure replays bit-identically.
enum class CorruptionMode {
  kNone = 0,
  /// Drop every OCD and OD claim from OCDDISCOVER (forgotten emissions →
  /// completeness violation).
  kDropOcddiscover,
  /// Append the first semantically-invalid disjoint OD to ORDER's output
  /// (spurious emission → soundness violation, the Errata-note failure
  /// class).
  kInventOrderOd,
  /// Drop every compatibility canonical OD from FASTOD (completeness
  /// violation in the set-based vocabulary).
  kDropFastodCompat,
};

const char* CorruptionModeName(CorruptionMode mode);

/// One cross-check failure. `check` is the oracle stage ("soundness",
/// "completeness", "differential", "mapping_theorem", "constancy_vs_fds",
/// "reduction"), `algorithm` the implementation on the hook, `detail` a
/// rendering of the offending dependency.
struct Discrepancy {
  std::string check;
  std::string algorithm;
  std::string detail;

  std::string ToString() const {
    return check + "/" + algorithm + ": " + detail;
  }
};

struct OracleOptions {
  /// Side-length bound of the brute-force ground-truth enumeration.
  std::size_t max_side_len = 2;
  /// Inference-engine list bound; 0 = DefaultMaxListLen(num_columns).
  std::size_t max_list_len = 0;
  CorruptionMode corruption = CorruptionMode::kNone;
};

struct OracleReport {
  std::vector<Discrepancy> discrepancies;
  /// Dependency-level comparisons performed across all stages.
  std::uint64_t comparisons = 0;
  /// Facts or checks skipped because a list exceeded the engine bound —
  /// reduced coverage, surfaced so sweeps never silently narrow.
  std::uint64_t skipped = 0;
  /// False when some algorithm failed to complete (its checks are skipped).
  bool all_completed = true;

  bool clean() const { return discrepancies.empty(); }
};

/// Runs brute force, OCDDISCOVER, ORDER, FASTOD, and TANE over `relation`
/// and cross-checks them semantically:
///
///  1. *Soundness* — every emitted dependency holds under the brute-force
///     definitions (Definitions 2.2–2.4 / canonical-OD semantics).
///  2. *Completeness* — every brute-force-valid dependency inside an
///     algorithm's documented candidate space is derivable from that
///     algorithm's claims: J_OD closure (inference engine) for the
///     list-based algorithms, canonical closure for FASTOD.
///  3. *Exactness* — no closure derives a dependency brute force falsifies
///     (an unsound claim or an inference bug would).
///  4. *Differential* — each algorithm's claims are derivable from every
///     other algorithm's closure, scope permitting; FASTOD constancy ODs
///     must equal TANE's minimal FDs exactly.
///  5. *Mapping theorem* — the set-based decision of each candidate agrees
///     with the list-based brute force, validating the translation layer
///     itself.
OracleReport CrossCheck(const rel::CodedRelation& relation,
                        const OracleOptions& options = {});

/// CrossCheck over pre-computed runs (used by metamorphic comparisons to
/// avoid re-running algorithms). Corruption is applied to a copy.
OracleReport CrossCheckRuns(const rel::CodedRelation& relation,
                            AlgorithmRuns runs, const OracleOptions& options);

}  // namespace ocdd::qa

#endif  // OCDD_QA_ORACLE_H_
