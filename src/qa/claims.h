#ifndef OCDD_QA_CLAIMS_H_
#define OCDD_QA_CLAIMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/ocd_discover.h"
#include "od/dependency.h"
#include "od/inference.h"
#include "relation/coded_relation.h"

namespace ocdd::qa {

/// The assertions one discovery algorithm makes about a relation, normalized
/// into a common vocabulary so that the oracle can compare algorithms whose
/// native output formats differ (list OCDs/ODs vs set-based canonical ODs vs
/// FDs). Every collection is sorted and duplicate-free after a runner
/// returns.
struct ClaimSet {
  std::string algorithm;
  bool completed = true;
  StopReason stop_reason = StopReason::kNone;
  std::uint64_t num_checks = 0;

  std::vector<od::OrderDependency> ods;
  std::vector<od::OrderCompatibility> ocds;
  /// OCDDISCOVER's columnsReduction() output.
  std::vector<rel::ColumnId> constant_columns;
  std::vector<std::vector<rel::ColumnId>> equivalence_classes;
  /// FASTOD's native output.
  std::vector<od::CanonicalOd> canonical;
  /// TANE's native output.
  std::vector<od::FunctionalDependency> fds;

  void SortAll();

  /// Stable multi-line rendering (raw column ids) for subset comparisons and
  /// failure reports.
  std::vector<std::string> Render() const;
};

/// Runs one algorithm and captures its claims. `ctx` is optional; when given
/// it is used as the run's RunContext (budgets/faults included), which is how
/// the harness produces deliberately stopped runs. `checkpoint` (optional,
/// checkpointable algorithms only) enables snapshot writes / resume — the
/// resume-equivalence stage stops a checkpointed run mid-lattice, resumes it,
/// and asserts the resumed claims equal an uninterrupted run's.
ClaimSet RunOcddiscoverClaims(const rel::CodedRelation& relation,
                              RunContext* ctx = nullptr,
                              const CheckpointConfig* checkpoint = nullptr);
/// The claims of an OCDDISCOVER result produced by any options.
ClaimSet OcddiscoverClaims(const core::OcdDiscoverResult& result);
ClaimSet RunOrderClaims(const rel::CodedRelation& relation,
                        RunContext* ctx = nullptr);
ClaimSet RunFastodClaims(const rel::CodedRelation& relation,
                         RunContext* ctx = nullptr,
                         const CheckpointConfig* checkpoint = nullptr);
ClaimSet RunTaneClaims(const rel::CodedRelation& relation,
                       RunContext* ctx = nullptr,
                       const CheckpointConfig* checkpoint = nullptr);

/// All four differential voices over the same relation.
struct AlgorithmRuns {
  ClaimSet ocdd;
  ClaimSet order;
  ClaimSet fastod;
  ClaimSet tane;

  bool AllCompleted() const {
    return ocdd.completed && order.completed && fastod.completed &&
           tane.completed;
  }
};

AlgorithmRuns RunAllClaims(const rel::CodedRelation& relation);

/// Seeds a J_OD inference engine with every fact a claim set asserts,
/// translated to the list vocabulary:
///  * ODs and OCDs verbatim;
///  * order-equivalence classes as pairwise `[A] ↔ [B]`;
///  * constant columns as `[] ↔ [C]`;
///  * FDs `X ↦ A` as `X' → X'A` for every permutation X' of X;
///  * canonical constancy `ctx : [] ↦ A` like an FD, and canonical
///    compatibility `ctx : A ~ B` as `ctx'A ~ ctx'B` for every permutation
///    ctx' of the context.
///
/// Facts whose lists exceed `max_list_len` are skipped; the count of skipped
/// facts is returned through `skipped` (callers surface it as reduced
/// coverage, not as an error). ComputeClosure() has already been run on the
/// returned engine.
od::OdInferenceEngine BuildClosureEngine(std::size_t num_columns,
                                         std::size_t max_list_len,
                                         const ClaimSet& claims,
                                         std::uint64_t* skipped = nullptr);

/// The engine list-length bound the oracle uses for `num_columns`-wide
/// relations: min(num_columns, 4), except 3 when num_columns > 4 — keeping
/// the materialized lattice small enough that closure stays O(ms).
std::size_t DefaultMaxListLen(std::size_t num_columns);

}  // namespace ocdd::qa

#endif  // OCDD_QA_CLAIMS_H_
