#ifndef OCDD_CORE_POLARIZED_H_
#define OCDD_CORE_POLARIZED_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "core/level_walk.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// Bidirectional ("polarized") order dependencies — the generalization the
/// paper's related work points to [15]: each attribute in a list carries its
/// own sort direction, mirroring SQL's `ORDER BY a ASC, b DESC`.
///
/// The key observation the implementation exploits: a polarized list over
/// relation r is an ordinary list over the *augmented* relation r± that
/// contains, for every column, a second copy with reversed value order.
/// Everything proved for unidirectional ODs therefore transfers verbatim,
/// and the discovery below checks through the production PartitionChecker
/// unchanged.

struct PolarizedAttribute {
  rel::ColumnId column = 0;
  bool descending = false;

  friend bool operator==(const PolarizedAttribute& a,
                         const PolarizedAttribute& b) {
    return a.column == b.column && a.descending == b.descending;
  }
  friend bool operator<(const PolarizedAttribute& a,
                        const PolarizedAttribute& b) {
    if (a.column != b.column) return a.column < b.column;
    return a.descending < b.descending;
  }
};

using PolarizedList = std::vector<PolarizedAttribute>;

/// Renders as "[a+,b-]" using the relation's column names.
std::string PolarizedListToString(const PolarizedList& list,
                                  const rel::CodedRelation& relation);

/// A polarized order compatibility `lhs ~ rhs`.
struct PolarizedOcd {
  PolarizedList lhs;
  PolarizedList rhs;

  std::string ToString(const rel::CodedRelation& relation) const;

  friend bool operator==(const PolarizedOcd& a, const PolarizedOcd& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const PolarizedOcd& a, const PolarizedOcd& b) {
    if (a.lhs != b.lhs) return a.lhs < b.lhs;
    return a.rhs < b.rhs;
  }
};

/// A polarized order dependency `lhs → rhs`.
struct PolarizedOd {
  PolarizedList lhs;
  PolarizedList rhs;

  std::string ToString(const rel::CodedRelation& relation) const;

  friend bool operator==(const PolarizedOd& a, const PolarizedOd& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const PolarizedOd& a, const PolarizedOd& b) {
    if (a.lhs != b.lhs) return a.lhs < b.lhs;
    return a.rhs < b.rhs;
  }
};

/// Builds r±: columns [0, n) are the originals, column n + i carries the
/// reversed codes of column i (rank r becomes num_distinct−1−r), so
/// ascending order on n + i is descending order on i.
rel::CodedRelation AugmentWithReversedColumns(
    const rel::CodedRelation& relation);

/// Lexicographic three-way comparison under per-attribute directions.
int CompareRowsOnPolarizedList(const rel::CodedRelation& relation,
                               const PolarizedList& list, std::uint32_t row_a,
                               std::uint32_t row_b);

/// O(m²) semantic ground truth for tests, straight from Definition 2.2
/// with the polarized comparator.
bool BruteForceHoldsPolarizedOd(const rel::CodedRelation& relation,
                                const PolarizedList& lhs,
                                const PolarizedList& rhs);

struct PolarizedDiscoverOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;
  /// Polarized trees grow 2× faster per level than unidirectional ones;
  /// the default caps candidate sides at |X| + |Y| = 4.
  std::size_t max_level = 4;
  /// Worker threads for candidate checking and expansion; 1 = sequential.
  /// Results and counts never depend on it.
  std::size_t num_threads = 1;
};

/// Output of a polarized run; the walk's counters (level_walk.h) count OCD
/// single checks plus OD checks over r±.
struct PolarizedDiscoverResult : WalkCounters {
  /// Minimal polarized OCDs, mirror-canonicalized: the head attribute of
  /// the lhs is always ascending (flipping every direction on both sides
  /// of a dependency preserves validity, so only one of the two mirror
  /// images is reported).
  std::vector<PolarizedOcd> ocds;
  std::vector<PolarizedOd> ods;
  double elapsed_seconds = 0.0;
};

/// Breadth-first discovery of polarized OCDs/ODs — the OCDDISCOVER tree
/// over direction-annotated attributes. Constant columns are skipped;
/// column reduction is not applied (inverse equivalences like
/// `age ↑ ↔ birth_year ↓` are reported as dependencies instead).
PolarizedDiscoverResult DiscoverPolarizedOcds(
    const rel::CodedRelation& relation,
    const PolarizedDiscoverOptions& options = {});

}  // namespace ocdd::core

#endif  // OCDD_CORE_POLARIZED_H_
