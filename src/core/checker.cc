#include "core/checker.h"

#include <vector>

#include "common/prof.h"
#include "common/simd_dispatch.h"
#include "relation/sorted_index.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OCDD_HAVE_AVX2_KERNELS 1
#endif

namespace ocdd::core {

namespace {

/// Per-thread reusable buffers for the sort-based checks: the row index
/// being sorted, the concatenated sort key, and the hoisted code pointers.
/// Thread-local (not per-checker) because the parallel OCDDISCOVER driver
/// runs one checker from many pool workers; the buffers live for the
/// thread's lifetime and stop the kernels from allocating per check.
struct CheckScratch {
  std::vector<std::uint32_t> index;
  std::vector<rel::ColumnId> key;
  std::vector<const std::int32_t*> cols;
};

CheckScratch& TlsCheckScratch() {
  thread_local CheckScratch scratch;
  return scratch;
}

/// Loads the code-array pointers of `attrs` into `out`.
void HoistColumns(const rel::CodedRelation& relation,
                  const std::vector<rel::ColumnId>& attrs,
                  std::vector<const std::int32_t*>* out) {
  out->clear();
  for (rel::ColumnId col : attrs) {
    out->push_back(relation.column(col).codes.data());
  }
}

/// First position in [0, cols.size()) where the two rows differ, or
/// cols.size() when they are equal on every column. The discriminator the
/// lexicographic sort already evaluated; re-deriving it on adjacent rows is
/// how CheckOd finds group boundaries without a second full-list walk.
std::size_t FirstDiff(const std::vector<const std::int32_t*>& cols,
                      std::uint32_t row_a, std::uint32_t row_b) {
  std::size_t p = 0;
  for (; p < cols.size(); ++p) {
    if (cols[p][row_a] != cols[p][row_b]) break;
  }
  return p;
}

/// Three-way comparison over hoisted columns [begin, end).
int CompareOnCols(const std::vector<const std::int32_t*>& cols,
                  std::size_t begin, std::size_t end, std::uint32_t row_a,
                  std::uint32_t row_b) {
  for (std::size_t p = begin; p < end; ++p) {
    std::int32_t a = cols[p][row_a];
    std::int32_t b = cols[p][row_b];
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

#if OCDD_HAVE_AVX2_KERNELS

/// Vectorized FirstDiff classification for 8 adjacent sorted-index pairs at
/// once. The walk never needs the exact first-diff *position* — only which
/// of three classes it falls in — so per pair it suffices to know whether
/// any lhs-prefix column differs (`lhs_mask` bit set: a group boundary) and
/// whether any key column differs at all (`any_mask` bit set: boundary or
/// split). Each column costs two 8-lane gathers (the rows of pairs
/// (index[k+j], index[k+j+1])) and a compare, replacing 16 dependent scalar
/// loads with branchy early-outs.
__attribute__((target("avx2"))) void DiffMasksAvx2(
    const std::vector<const std::int32_t*>& cols, std::size_t lhs_len,
    const std::uint32_t* idx, std::uint32_t* lhs_mask,
    std::uint32_t* any_mask) {
  __m256i va =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  __m256i vb =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + 1));
  __m256i lhs_acc = _mm256_setzero_si256();
  __m256i any_acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi32(-1);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    __m256i ga = _mm256_i32gather_epi32(cols[p], va, 4);
    __m256i gb = _mm256_i32gather_epi32(cols[p], vb, 4);
    __m256i neq = _mm256_xor_si256(_mm256_cmpeq_epi32(ga, gb), ones);
    if (p < lhs_len) lhs_acc = _mm256_or_si256(lhs_acc, neq);
    any_acc = _mm256_or_si256(any_acc, neq);
  }
  *lhs_mask = static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(lhs_acc)));
  *any_mask = static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(any_acc)));
}

/// Vectorized "is any of these 8 adjacent pairs descending on the hoisted
/// columns" test: a pair violates iff at its first differing column the
/// left row's code exceeds the right's. Branch-free first-diff semantics
/// via an "undecided" accumulator that zeroes a lane once a column has
/// discriminated its pair.
__attribute__((target("avx2"))) bool AnyDescendingAvx2(
    const std::vector<const std::int32_t*>& cols, const std::uint32_t* idx) {
  __m256i va =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  __m256i vb =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + 1));
  __m256i undecided = _mm256_set1_epi32(-1);
  __m256i viol = _mm256_setzero_si256();
  for (std::size_t p = 0; p < cols.size(); ++p) {
    __m256i ga = _mm256_i32gather_epi32(cols[p], va, 4);
    __m256i gb = _mm256_i32gather_epi32(cols[p], vb, 4);
    __m256i gt = _mm256_cmpgt_epi32(ga, gb);
    viol = _mm256_or_si256(viol, _mm256_and_si256(undecided, gt));
    __m256i eq = _mm256_cmpeq_epi32(ga, gb);
    undecided = _mm256_and_si256(undecided, eq);
  }
  return _mm256_movemask_epi8(viol) != 0;
}

#endif  // OCDD_HAVE_AVX2_KERNELS

}  // namespace

bool OrderChecker::HoldsOcd(const AttributeList& x,
                            const AttributeList& y) const {
  // Theorem 4.1: X ~ Y iff XY → YX. Sorting by the concatenation XY makes
  // the Y projection the only possible source of violations: for adjacent
  // rows a ⪯_XY b, YX(a) ≻ YX(b) iff Y(a) ≻ Y(b) (see DESIGN.md §5).
  CheckScratch& scratch = TlsCheckScratch();
  scratch.key.assign(x.ids().begin(), x.ids().end());
  scratch.key.insert(scratch.key.end(), y.ids().begin(), y.ids().end());
  rel::SortRowsByListInto(relation_, scratch.key, &scratch.index);
  HoistColumns(relation_, y.ids(), &scratch.cols);
  const std::vector<std::uint32_t>& index = scratch.index;
  prof::ScopedTimer timer(prof::Phase::kSortCheck);
  std::size_t i = 0;
#if OCDD_HAVE_AVX2_KERNELS
  if (simd::Active() == simd::Backend::kAvx2) {
    for (; i + 9 <= index.size(); i += 8) {
      if (AnyDescendingAvx2(scratch.cols, index.data() + i)) return false;
    }
  }
#endif
  for (; i + 1 < index.size(); ++i) {
    if (CompareOnCols(scratch.cols, 0, scratch.cols.size(), index[i],
                      index[i + 1]) > 0) {
      return false;
    }
  }
  return true;
}

OdCheckOutcome OrderChecker::CheckOd(const AttributeList& lhs,
                                     const AttributeList& rhs,
                                     bool early_exit) const {
  OdCheckOutcome outcome;
  std::size_t m = relation_.num_rows();
  if (m < 2) return outcome;

  // Sort by lhs, tie-broken by rhs: within an lhs-group rows are
  // rhs-ascending, so the group's rhs-minimum is its first row and its
  // rhs-maximum is its last row.
  CheckScratch& scratch = TlsCheckScratch();
  scratch.key.assign(lhs.ids().begin(), lhs.ids().end());
  scratch.key.insert(scratch.key.end(), rhs.ids().begin(), rhs.ids().end());
  rel::SortRowsByListInto(relation_, scratch.key, &scratch.index);
  HoistColumns(relation_, scratch.key, &scratch.cols);
  const std::vector<std::uint32_t>& index = scratch.index;
  const std::vector<const std::int32_t*>& cols = scratch.cols;
  const std::size_t lhs_len = lhs.size();
  const std::size_t key_len = cols.size();

  // One walk over adjacent pairs. The first differing key position tells
  // both stories at once: a difference inside the lhs prefix closes the
  // current lhs-group; a difference in the rhs suffix means two rows of one
  // group differ on rhs — a split (the group's extremes differ, since the
  // tie-break keeps rhs ascending within a group).
  bool have_prev = false;
  std::uint32_t prev_groups_max = 0;  // row with max rhs among earlier groups
  std::size_t group_begin = 0;
  auto close_group = [&](std::size_t group_end) {
    // Swap: some earlier group's rhs-max exceeds this group's rhs-min.
    if (have_prev &&
        CompareOnCols(cols, lhs_len, key_len, prev_groups_max,
                      index[group_begin]) > 0) {
      outcome.has_swap = true;
    }
    if (!have_prev || CompareOnCols(cols, lhs_len, key_len, prev_groups_max,
                                    index[group_end - 1]) < 0) {
      prev_groups_max = index[group_end - 1];
    }
    have_prev = true;
  };
  prof::ScopedTimer timer(prof::Phase::kSortCheck);
  std::size_t k = 0;
#if OCDD_HAVE_AVX2_KERNELS
  // Blocked walk: classify 8 adjacent pairs per iteration. Only the class
  // of each pair's first difference matters (lhs prefix / rhs suffix /
  // none), so two accumulated compare masks replace the scalar per-column
  // early-out — and runs of all-equal or no-boundary pairs (the common case
  // inside large groups) are skipped 8 at a time. The per-pair actions
  // below mirror the scalar loop exactly, in the same order, so outcomes
  // and early exits are bit-identical.
  if (simd::Active() == simd::Backend::kAvx2) {
    for (; k + 9 <= m; k += 8) {
      std::uint32_t lhs_mask = 0;
      std::uint32_t any_mask = 0;
      DiffMasksAvx2(cols, lhs_len, index.data() + k, &lhs_mask, &any_mask);
      if (any_mask == 0) continue;
      if (lhs_mask == 0) {
        outcome.has_split = true;
        if (early_exit) return outcome;
        continue;
      }
      for (std::size_t j = 0; j < 8; ++j) {
        if ((lhs_mask >> j) & 1u) {
          close_group(k + j + 1);
          if (early_exit && outcome.has_swap) return outcome;
          group_begin = k + j + 1;
        } else if ((any_mask >> j) & 1u) {
          outcome.has_split = true;
          if (early_exit) return outcome;
        }
      }
    }
  }
#endif
  for (; k + 1 < m; ++k) {
    std::size_t pos = FirstDiff(cols, index[k], index[k + 1]);
    if (pos < lhs_len) {
      close_group(k + 1);
      if (early_exit && outcome.has_swap) return outcome;
      group_begin = k + 1;
    } else if (pos < key_len) {
      outcome.has_split = true;
      if (early_exit) return outcome;
    }
  }
  close_group(m);
  return outcome;
}

bool OrderChecker::HoldsOd(const AttributeList& lhs,
                           const AttributeList& rhs) const {
  return CheckOd(lhs, rhs, /*early_exit=*/true).valid();
}

}  // namespace ocdd::core
