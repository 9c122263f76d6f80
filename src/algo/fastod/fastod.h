#ifndef OCDD_ALGO_FASTOD_FASTOD_H_
#define OCDD_ALGO_FASTOD_FASTOD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/level_walk.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

struct FastodOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  std::size_t max_level = 0;  ///< the largest |X| checked (0 = unlimited)

  /// Crash-safe checkpointing at lattice-level boundaries (the natural
  /// snapshot point of the level-wise traversal); see docs/checkpointing.md.
  /// Stripped partitions are not persisted — they are recomputed from the
  /// serialized attribute sets on resume.
  CheckpointConfig checkpoint;
};

struct FastodResult : core::WalkCounters {
  /// Canonical set-based ODs: constancy (`X: [] ↦ A`, ≡ the FD `X → A`)
  /// and order compatibility (`X: A ~ B`), sorted.
  std::vector<od::CanonicalOd> ods;

  std::size_t num_constancy = 0;  ///< the `|Fd|` column of Table 6
  std::size_t num_compatible = 0;
  /// What checkpointing did (zero-initialized when disabled).
  CheckpointStats checkpoint_stats;
  double elapsed_seconds = 0.0;
};

/// Reimplementation of FASTOD (Szlichta et al. [7]): complete OD discovery
/// via the set-based canonical form, level-wise over the attribute-set
/// lattice with stripped partitions. Worst case O(2ⁿ) in the number of
/// attributes — versus OCDDISCOVER's factorial — which is the complexity
/// trade-off Table 6 probes on real data.
///
/// It is the canonical walk (`DiscoverCanonical`) checking the concordant
/// polarity: TANE's constancy checks plus swap checks `X\{A,B} : A ~ B`.
///
/// Note: the paper (§5.2.2) reports that the *original authors'* FASTOD
/// binary emits spurious ODs (e.g. on the NUMBERS dataset). This
/// implementation is correct — the NUMBERS regression test pins down the
/// sound output.
FastodResult DiscoverFastod(const rel::CodedRelation& relation,
                            const FastodOptions& options = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_FASTOD_FASTOD_H_
