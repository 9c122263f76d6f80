#ifndef OCDD_ALGO_FASTOD_FASTOD_BID_H_
#define OCDD_ALGO_FASTOD_FASTOD_BID_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "core/level_walk.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

/// Bidirectional canonical order dependencies — the extension of FASTOD the
/// paper's related work cites ([?] after [7], i.e. FASTOD-BID): the
/// compatibility form `X: A ~ B` generalizes to per-pair direction
/// polarity, `X: A↑ ~ B↑` (concordant) or `X: A↑ ~ B↓` (anti-concordant).
/// Within every equivalence class of the context X, the two attributes must
/// move together (concordant) or oppositely (anti-concordant).
///
/// Mirror symmetry (`A↓ ~ B↓` ≡ `A↑ ~ B↑`, `A↓ ~ B↑` ≡ `A↑ ~ B↓`) makes two
/// polarities per unordered pair canonical; the left attribute is always
/// ascending.
struct BidCanonicalOd {
  /// Constancy ODs are direction-free and identical to FASTOD's.
  enum class Kind { kConstancy, kConcordant, kAntiConcordant };

  Kind kind = Kind::kConstancy;
  std::vector<rel::ColumnId> context;  ///< sorted, duplicate-free
  rel::ColumnId left = 0;              ///< unused for kConstancy
  rel::ColumnId right = 0;

  std::string ToString(const rel::CodedRelation& relation) const;

  friend bool operator==(const BidCanonicalOd& a, const BidCanonicalOd& b) {
    return a.kind == b.kind && a.context == b.context && a.left == b.left &&
           a.right == b.right;
  }
  friend bool operator<(const BidCanonicalOd& a, const BidCanonicalOd& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.context != b.context) return a.context < b.context;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  }
};

struct FastodBidOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  std::size_t max_level = 0;  ///< the largest |X| checked (0 = unlimited)
};

struct FastodBidResult : core::WalkCounters {
  std::vector<BidCanonicalOd> ods;  ///< sorted
  std::size_t num_constancy = 0;
  std::size_t num_concordant = 0;
  std::size_t num_anti = 0;
  double elapsed_seconds = 0.0;
};

/// Level-wise discovery of minimal bidirectional canonical ODs: the
/// canonical walk (`DiscoverCanonical`) checking both polarities, so each
/// swap-candidate pair carries one. A polarity is emitted in the smallest
/// context where it holds non-trivially and pruned everywhere above; a
/// pair/polarity falsified in every immediate sub-context propagates.
/// Unidirectional FASTOD's output is exactly the constancy + concordant
/// subset of this algorithm's output.
FastodBidResult DiscoverFastodBid(const rel::CodedRelation& relation,
                                  const FastodBidOptions& options = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_FASTOD_FASTOD_BID_H_
