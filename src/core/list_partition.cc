#include "core/list_partition.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/prof.h"
#include "common/simd_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OCDD_HAVE_AVX2_KERNELS 1
#endif

namespace ocdd::core {

namespace {

/// Calls `f` with the partition's typed storage pointer (u8/u16/i32).
template <typename F>
decltype(auto) WithCodes(const ListPartition& p, F&& f) {
  switch (p.width()) {
    case rel::CodeWidth::k8:
      return f(p.data8());
    case rel::CodeWidth::k16:
      return f(p.data16());
    case rel::CodeWidth::k32:
      break;
  }
  return f(p.data32());
}

/// Calls `f` with the column's narrowest code array (u8/u16/i32).
template <typename F>
decltype(auto) WithColumnCodes(const rel::CodedColumn& c, F&& f) {
  if (!c.codes8.empty()) return f(c.codes8.data());
  if (!c.codes16.empty()) return f(c.codes16.data());
  return f(c.codes.data());
}

}  // namespace

void ListPartition::Allocate(std::size_t m, std::int32_t groups) {
  num_rows_ = m;
  num_groups_ = groups;
  switch (rel::WidthForDistinct(groups)) {
    case rel::CodeWidth::k8:
      c8_.resize(m);
      break;
    case rel::CodeWidth::k16:
      c16_.resize(m);
      break;
    case rel::CodeWidth::k32:
      c32_.resize(m);
      break;
  }
}

std::uint64_t ListPartition::ContentHash() const {
  // Multiply-xorshift mix over the stored ranks in four independent lanes
  // (no serial dependency between consecutive words); the group count
  // seeds it and also fixes the width, so equal bytes mean equal ranks.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  auto mix = [](std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * kMul;
    return h ^ (h >> 29);
  };
  const std::uint64_t seed = (static_cast<std::uint64_t>(num_rows_) << 32) ^
                             static_cast<std::uint32_t>(num_groups_);
  std::uint64_t lane[4] = {seed, seed + 1, seed + 2, seed + 3};
  std::uint64_t h = seed;
  WithCodes(*this, [&](const auto* codes) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(codes);
    const std::size_t n = num_rows_ * sizeof(codes[0]);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
      for (int l = 0; l < 4; ++l) {
        std::uint64_t w;
        std::memcpy(&w, bytes + i + 8 * l, 8);
        lane[l] = mix(lane[l], w);
      }
    }
    for (std::uint64_t v : lane) h = mix(h, v);
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h = mix(h, w);
    }
    std::uint64_t tail = 0;
    if (n > i) std::memcpy(&tail, bytes + i, n - i);
    h = mix(h, tail ^ n);
  });
  return h ^ (h >> 32);
}

bool ListPartition::SameContent(const ListPartition& other) const {
  if (num_rows_ != other.num_rows_ || num_groups_ != other.num_groups_) {
    return false;
  }
  if (num_rows_ == 0) return true;
  return WithCodes(*this, [&](const auto* codes) {
    const void* theirs = other.view().data;
    return std::memcmp(codes, theirs, num_rows_ * sizeof(codes[0])) == 0;
  });
}

rel::CodeView ListPartition::view() const {
  switch (width()) {
    case rel::CodeWidth::k8:
      return rel::CodeView{c8_.data(), rel::CodeWidth::k8};
    case rel::CodeWidth::k16:
      return rel::CodeView{c16_.data(), rel::CodeWidth::k16};
    case rel::CodeWidth::k32:
      break;
  }
  return rel::CodeView{c32_.data(), rel::CodeWidth::k32};
}

std::vector<std::int32_t> ListPartition::codes() const {
  std::vector<std::int32_t> out(num_rows_);
  rel::CodeView v = view();
  for (std::size_t i = 0; i < num_rows_; ++i) out[i] = v.At(i);
  return out;
}

ListPartition ListPartition::ForColumn(const rel::CodedRelation& relation,
                                       rel::ColumnId column) {
  const rel::CodedColumn& c = relation.column(column);
  ListPartition out;
  out.num_rows_ = c.codes.size();
  out.num_groups_ = c.num_distinct;
  // Prefer copying the column's narrow mirror outright; fall back to a
  // narrowing copy of the canonical codes when no mirror is populated
  // (hand-built columns that bypassed the CodedRelation factories).
  switch (rel::WidthForDistinct(c.num_distinct)) {
    case rel::CodeWidth::k8:
      if (!c.codes8.empty()) {
        out.c8_ = c.codes8;
      } else {
        out.c8_.resize(out.num_rows_);
        for (std::size_t r = 0; r < out.num_rows_; ++r) {
          out.c8_[r] = static_cast<std::uint8_t>(c.codes[r]);
        }
      }
      break;
    case rel::CodeWidth::k16:
      if (!c.codes16.empty()) {
        out.c16_ = c.codes16;
      } else {
        out.c16_.resize(out.num_rows_);
        for (std::size_t r = 0; r < out.num_rows_; ++r) {
          out.c16_[r] = static_cast<std::uint16_t>(c.codes[r]);
        }
      }
      break;
    case rel::CodeWidth::k32:
      out.c32_ = c.codes;
      break;
  }
  return out;
}

ListPartition ListPartition::ForList(const rel::CodedRelation& relation,
                                     const od::AttributeList& list) {
  ListPartition out = ForColumn(relation, list[0]);
  RefineScratch scratch;
  for (std::size_t i = 1; i < list.size(); ++i) {
    out = out.Refine(relation, list[i], &scratch);
  }
  return out;
}

ListPartition ListPartition::Refine(const rel::CodedRelation& relation,
                                    rel::ColumnId column) const {
  RefineScratch scratch;
  return Refine(relation, column, &scratch);
}

ListPartition ListPartition::Refine(const rel::CodedRelation& relation,
                                    rel::ColumnId column,
                                    RefineScratch* scratch,
                                    RefinePath path, PartId self) const {
  const rel::CodedColumn& coded = relation.column(column);
  const std::size_t domain = static_cast<std::size_t>(coded.num_distinct);
  return WithCodes(*this, [&](const auto* parent) {
    return WithColumnCodes(coded, [&](const auto* col) {
      return RefineTyped(parent, col, domain, scratch, path, self);
    });
  });
}

template <typename P, typename C>
ListPartition ListPartition::RefineTyped(const P* parent, const C* col,
                                         std::size_t domain,
                                         RefineScratch* scratch,
                                         RefinePath path,
                                         PartId self) const {
  const std::size_t m = num_rows_;
  const std::size_t groups = static_cast<std::size_t>(num_groups_);
  const std::uint64_t buckets = static_cast<std::uint64_t>(groups) * domain;

  prof::ScopedTimer timer(prof::Phase::kRefine);
  prof::AddBytes(prof::Phase::kRefine,
                 static_cast<std::uint64_t>(m) * (sizeof(P) + sizeof(C)));

  if (path == RefinePath::kAuto) {
    // The histogram path is two row passes plus a sequential bucket scan —
    // cheapest by far while g·d stays within a few multiples of m. Beyond
    // that, counting sort costs ~4 linear passes regardless of group
    // structure and comparison sort costs the bucket pass plus m·log(group
    // size): small domains mean large groups — the counting path's
    // territory; near-key columns (tiny groups) sort almost for free.
    if (buckets <= 8 * static_cast<std::uint64_t>(m)) {
      path = RefinePath::kHistogram;
    } else {
      path = domain * 4 <= m ? RefinePath::kCounting : RefinePath::kComparison;
    }
  }

  if (path == RefinePath::kHistogram) {
    // Bucket key = parent rank · d + code preserves (parent rank, code)
    // lexicographic order, so densely renumbering the occupied buckets in
    // key order yields exactly the refined ranks. The group count is known
    // before any rank is written, so the output is allocated at its final
    // width and filled directly.
    std::vector<std::uint32_t>& occupied = scratch->tmp;
    occupied.assign(static_cast<std::size_t>(buckets), 0);
    for (std::size_t row = 0; row < m; ++row) {
      occupied[static_cast<std::size_t>(parent[row]) * domain +
               static_cast<std::size_t>(col[row])] = 1;
    }
    std::uint32_t next = 0;
    for (std::uint32_t& slot : occupied) {
      if (slot != 0) slot = next++;
    }
    ListPartition out;
    out.Allocate(m, static_cast<std::int32_t>(next));
    auto fill = [&](auto* dst) {
      using D = std::remove_reference_t<decltype(dst[0])>;
      for (std::size_t row = 0; row < m; ++row) {
        dst[row] = static_cast<D>(
            occupied[static_cast<std::size_t>(parent[row]) * domain +
                     static_cast<std::size_t>(col[row])]);
      }
    };
    switch (out.width()) {
      case rel::CodeWidth::k8:
        fill(out.c8_.data());
        break;
      case rel::CodeWidth::k16:
        fill(out.c16_.data());
        break;
      case rel::CodeWidth::k32:
        fill(out.c32_.data());
        break;
    }
    return out;
  }

  // Parent-rank histogram: reused across consecutive refinements of the
  // same cached parent (the cache refines siblings back to back).
  std::vector<std::uint32_t>& offsets = scratch->rank_offsets;
  if (self == kNoPartId || scratch->histogram_of != self) {
    offsets.assign(groups + 1, 0);
    for (std::size_t row = 0; row < m; ++row) {
      ++offsets[static_cast<std::size_t>(parent[row]) + 1];
    }
    for (std::size_t g = 1; g < offsets.size(); ++g) {
      offsets[g] += offsets[g - 1];
    }
    scratch->histogram_of = self;
  }

  std::vector<std::uint32_t>& rows = scratch->rows;
  rows.resize(m);

  if (path == RefinePath::kCounting) {
    // Stable two-pass counting sort: first order rows by the new column's
    // code, then stably by parent rank — `rows` ends up sorted by
    // (parent rank, code) with no comparisons.
    std::vector<std::uint32_t>& code_offsets = scratch->code_offsets;
    code_offsets.assign(domain + 1, 0);
    for (std::size_t row = 0; row < m; ++row) {
      ++code_offsets[static_cast<std::size_t>(col[row]) + 1];
    }
    for (std::size_t d = 1; d < code_offsets.size(); ++d) {
      code_offsets[d] += code_offsets[d - 1];
    }
    std::vector<std::uint32_t>& tmp = scratch->tmp;
    tmp.resize(m);
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(code_offsets.begin(), code_offsets.end() - 1);
      for (std::uint32_t row = 0; row < m; ++row) {
        tmp[cursor[static_cast<std::size_t>(col[row])]++] = row;
      }
    }
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(offsets.begin(), offsets.end() - 1);
      for (std::size_t i = 0; i < m; ++i) {
        std::uint32_t row = tmp[i];
        rows[cursor[static_cast<std::size_t>(parent[row])]++] = row;
      }
    }
  } else {
    // Bucket rows by parent rank, then order each bucket by the new
    // column's codes.
    {
      std::vector<std::uint32_t>& cursor = scratch->cursor;
      cursor.assign(offsets.begin(), offsets.end() - 1);
      for (std::uint32_t row = 0; row < m; ++row) {
        rows[cursor[static_cast<std::size_t>(parent[row])]++] = row;
      }
    }
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint32_t begin = offsets[g];
      std::uint32_t end = offsets[g + 1];
      std::sort(rows.begin() + begin, rows.begin() + end,
                [col](std::uint32_t a, std::uint32_t b) {
                  return col[a] < col[b];
                });
    }
  }

  // `rows` is ordered by (parent rank, code): assign dense new ranks,
  // bumping at every parent-group boundary or code change within a group.
  // Ranks are staged per position so the output vector can be allocated at
  // its final width (known only once the group count is), then scattered.
  std::vector<std::uint32_t>& ranks = scratch->ranks;
  ranks.resize(m);
  std::int32_t next_rank = -1;
  std::int32_t prev_parent = -1;
  std::int32_t prev_code = 0;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t row = rows[i];
    std::int32_t p = static_cast<std::int32_t>(parent[row]);
    std::int32_t code = static_cast<std::int32_t>(col[row]);
    if (p != prev_parent || code != prev_code) {
      ++next_rank;
      prev_parent = p;
      prev_code = code;
    }
    ranks[i] = static_cast<std::uint32_t>(next_rank);
  }

  ListPartition out;
  out.Allocate(m, next_rank + 1);
  auto scatter = [&](auto* dst) {
    using D = std::remove_reference_t<decltype(dst[0])>;
    for (std::size_t i = 0; i < m; ++i) {
      dst[rows[i]] = static_cast<D>(ranks[i]);
    }
  };
  switch (out.width()) {
    case rel::CodeWidth::k8:
      scatter(out.c8_.data());
      break;
    case rel::CodeWidth::k16:
      scatter(out.c16_.data());
      break;
    case rel::CodeWidth::k32:
      scatter(out.c32_.data());
      break;
  }
  return out;
}

namespace {

/// Per-lhs-group min/max of the rhs ranks, indexed by lhs rank. Min and max
/// are adjacent in memory so the per-row random update touches one cache
/// line, not two. Thread-local so the O(groups) arrays are reused across
/// checks instead of allocated per call — the parallel check phase runs one
/// instance per pool worker.
struct MinMax {
  std::int32_t lo;
  std::int32_t hi;
};

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

/// Extremes fill: one pass over the rows, scatter-updating the per-group
/// min/max. Deliberately scalar — AVX2 has gathers but no scatter, and the
/// group index stream has same-group dependencies a conflict-free vector
/// update would need AVX-512 CD semantics for. The width templating is
/// where the traffic win lives: u8 codes stream 4x fewer bytes than i32.
template <typename L, typename R>
void FillExtremes(const L* lc, const R* rc, std::size_t m, MinMax* ext) {
  for (std::size_t row = 0; row < m; ++row) {
    MinMax& e = ext[static_cast<std::size_t>(lc[row])];
    std::int32_t r = static_cast<std::int32_t>(rc[row]);
    e.lo = std::min(e.lo, r);
    e.hi = std::max(e.hi, r);
  }
}

/// Dual-direction fill: the same single pass also scatter-updates the
/// reverse direction's extremes, so checking X→Y and Y→X streams the two
/// rank vectors once instead of twice.
template <typename L, typename R>
void FillExtremesBoth(const L* lc, const R* rc, std::size_t m, MinMax* fwd,
                      MinMax* rev) {
  for (std::size_t row = 0; row < m; ++row) {
    std::int32_t l = static_cast<std::int32_t>(lc[row]);
    std::int32_t r = static_cast<std::int32_t>(rc[row]);
    MinMax& f = fwd[static_cast<std::size_t>(l)];
    f.lo = std::min(f.lo, r);
    f.hi = std::max(f.hi, r);
    MinMax& b = rev[static_cast<std::size_t>(r)];
    b.lo = std::min(b.lo, l);
    b.hi = std::max(b.hi, l);
  }
}

struct ScanResult {
  bool has_split = false;
  bool has_swap = false;
};

/// Group scan over the packed extremes: split iff some group's rhs ranks
/// are not all equal (lo != hi), swap iff some group's lo is undercut by
/// the running max of all previous groups' hi.
ScanResult ScanExtremesScalar(const MinMax* ext, std::size_t groups) {
  ScanResult res;
  std::int32_t running_max = kI32Min;
  for (std::size_t g = 0; g < groups; ++g) {
    const MinMax& e = ext[g];
    res.has_split |= e.lo != e.hi;
    res.has_swap |= running_max > e.lo;
    running_max = std::max(running_max, e.hi);
  }
  return res;
}

#if OCDD_HAVE_AVX2_KERNELS

/// AVX2 group scan: 8 groups per iteration. The packed {lo,hi} pairs are
/// deinterleaved into a lo and a hi vector, the running max becomes an
/// exclusive in-register prefix max of hi (log-step lane shifts) with a
/// scalar carry between blocks, and the two predicates reduce to compare +
/// accumulate. Bit-identical to ScanExtremesScalar by construction: both
/// evaluate exactly `lo != hi` and `max(prev his) > lo` per group.
__attribute__((target("avx2"))) ScanResult ScanExtremesAvx2(
    const MinMax* ext, std::size_t groups) {
  ScanResult res;
  std::int32_t carry = kI32Min;
  const __m256i min_vec = _mm256_set1_epi32(kI32Min);
  // shuffle_ps picks even (lo) / odd (hi) 32-bit lanes but leaves them in
  // per-128-bit-lane order [0,1,4,5,2,3,6,7]; this permute restores
  // sequential group order (prefix max needs it).
  const __m256i reorder = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const __m256i shift1 = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
  const __m256i shift2 = _mm256_setr_epi32(0, 0, 0, 1, 2, 3, 4, 5);
  const __m256i shift4 = _mm256_setr_epi32(0, 0, 0, 0, 0, 1, 2, 3);
  __m256i eq_acc = _mm256_set1_epi32(-1);
  __m256i swap_acc = _mm256_setzero_si256();

  std::size_t g = 0;
  for (; g + 8 <= groups; g += 8) {
    __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ext + g));
    __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ext + g + 4));
    __m256 af = _mm256_castsi256_ps(a);
    __m256 bf = _mm256_castsi256_ps(b);
    __m256i lo = _mm256_permutevar8x32_epi32(
        _mm256_castps_si256(_mm256_shuffle_ps(af, bf, _MM_SHUFFLE(2, 0, 2, 0))),
        reorder);
    __m256i hi = _mm256_permutevar8x32_epi32(
        _mm256_castps_si256(_mm256_shuffle_ps(af, bf, _MM_SHUFFLE(3, 1, 3, 1))),
        reorder);

    eq_acc = _mm256_and_si256(eq_acc, _mm256_cmpeq_epi32(lo, hi));

    // Inclusive prefix max of hi across the 8 lanes.
    __m256i incl = hi;
    __m256i s = _mm256_blend_epi32(_mm256_permutevar8x32_epi32(incl, shift1),
                                   min_vec, 0x01);
    incl = _mm256_max_epi32(incl, s);
    s = _mm256_blend_epi32(_mm256_permutevar8x32_epi32(incl, shift2), min_vec,
                           0x03);
    incl = _mm256_max_epi32(incl, s);
    s = _mm256_blend_epi32(_mm256_permutevar8x32_epi32(incl, shift4), min_vec,
                           0x0F);
    incl = _mm256_max_epi32(incl, s);

    // Exclusive prefix max: lanes shift up one group, the carry (max of all
    // earlier blocks) enters at lane 0.
    __m256i excl = _mm256_blend_epi32(_mm256_permutevar8x32_epi32(incl, shift1),
                                      _mm256_set1_epi32(carry), 0x01);
    excl = _mm256_max_epi32(excl, _mm256_set1_epi32(carry));

    swap_acc = _mm256_or_si256(swap_acc, _mm256_cmpgt_epi32(excl, lo));
    carry = std::max(carry, _mm256_extract_epi32(incl, 7));
  }

  res.has_split = _mm256_movemask_epi8(eq_acc) != -1;
  res.has_swap = _mm256_movemask_epi8(swap_acc) != 0;

  std::int32_t running_max = carry;
  for (; g < groups; ++g) {
    const MinMax& e = ext[g];
    res.has_split |= e.lo != e.hi;
    res.has_swap |= running_max > e.lo;
    running_max = std::max(running_max, e.hi);
  }
  return res;
}

#endif  // OCDD_HAVE_AVX2_KERNELS

ScanResult ScanExtremes(const MinMax* ext, std::size_t groups) {
  prof::ScopedTimer timer(prof::Phase::kCheckScan);
  prof::AddBytes(prof::Phase::kCheckScan,
                 static_cast<std::uint64_t>(groups) * sizeof(MinMax));
#if OCDD_HAVE_AVX2_KERNELS
  if (simd::Active() == simd::Backend::kAvx2) {
    return ScanExtremesAvx2(ext, groups);
  }
#endif
  return ScanExtremesScalar(ext, groups);
}

/// Probe scan for the blocked fill's early exit. Same predicates as
/// ScanExtremesScalar, but groups a partial fill has not touched yet (lo
/// still the init sentinel — real ranks are < 2^31-1, so the sentinel is
/// unambiguous) are skipped: under the sentinel they would read as
/// lo != hi and fake a split. Both predicates are monotone in the set of
/// rows filled — a subset's extremes are achieved by real rows, more rows
/// only widen [lo, hi] — so any split or swap the probe sees is final.
ScanResult ProbeExtremes(const MinMax* ext, std::size_t groups) {
  prof::ScopedTimer timer(prof::Phase::kCheckScan);
  ScanResult res;
  std::int32_t running_max = kI32Min;
  for (std::size_t g = 0; g < groups; ++g) {
    const MinMax& e = ext[g];
    if (e.lo == kI32Max) continue;
    res.has_split |= e.lo != e.hi;
    res.has_swap |= running_max > e.lo;
    running_max = std::max(running_max, e.hi);
  }
  return res;
}

/// Blocked fill with monotone early exit: fill a chunk of rows, probe, and
/// stop as soon as every flag the caller consumes is already true — the
/// probe's flags are then exactly the final answer, so results never depend
/// on where the exit lands. Callers that ignore `has_split` (CheckOcd)
/// pass need_split = false and may get an understated has_split back on an
/// early exit. The chunk size is clamped below by the group count so the
/// O(groups) probe can never outweigh the fill it gates. On most levels a
/// candidate that fails does so within the first few chunks, which turns
/// the fill from O(rows per check) into O(rows to first witness).
template <typename L, typename R>
ScanResult FillScanOne(const L* lc, const R* rc, std::size_t m, MinMax* ext,
                       std::size_t groups, bool need_split) {
  const std::size_t chunk = std::max<std::size_t>(std::size_t{4096}, groups);
  std::size_t row = 0;
  for (;;) {
    const std::size_t end = std::min(m, row + chunk);
    {
      prof::ScopedTimer timer(prof::Phase::kCheckFill);
      prof::AddBytes(prof::Phase::kCheckFill,
                     static_cast<std::uint64_t>(end - row) *
                         (sizeof(lc[0]) + sizeof(rc[0])));
      FillExtremes(lc + row, rc + row, end - row, ext);
    }
    row = end;
    if (row >= m) return ScanExtremes(ext, groups);
    ScanResult probe = ProbeExtremes(ext, groups);
    if (probe.has_swap && (probe.has_split || !need_split)) return probe;
  }
}

ScanResult FillAndScan(const ListPartition& lhs, const ListPartition& rhs,
                       bool need_split) {
  thread_local std::vector<MinMax> out;
  std::size_t groups = static_cast<std::size_t>(lhs.num_groups());
  {
    prof::ScopedTimer timer(prof::Phase::kCheckFill);
    out.assign(groups, MinMax{kI32Max, kI32Min});
  }
  MinMax* ext = out.data();
  const std::size_t m = lhs.num_rows();
  ScanResult res;
  WithCodes(lhs, [&](const auto* lc) {
    WithCodes(rhs, [&](const auto* rc) {
      res = FillScanOne(lc, rc, m, ext, groups, need_split);
    });
  });
  return res;
}

}  // namespace

OdCheckOutcome ListPartition::CheckOd(const ListPartition& lhs,
                                      const ListPartition& rhs) {
  OdCheckOutcome outcome;
  if (lhs.num_rows() < 2) return outcome;
  ScanResult scan = FillAndScan(lhs, rhs, /*need_split=*/true);
  outcome.has_split = scan.has_split;
  outcome.has_swap = scan.has_swap;
  return outcome;
}

void ListPartition::CheckOdBoth(const ListPartition& lhs,
                                const ListPartition& rhs,
                                OdCheckOutcome* forward,
                                OdCheckOutcome* reverse) {
  *forward = OdCheckOutcome{};
  *reverse = OdCheckOutcome{};
  if (lhs.num_rows() < 2) return;

  thread_local std::vector<MinMax> fwd_ext;
  thread_local std::vector<MinMax> rev_ext;
  std::size_t fwd_groups = static_cast<std::size_t>(lhs.num_groups());
  std::size_t rev_groups = static_cast<std::size_t>(rhs.num_groups());
  {
    prof::ScopedTimer timer(prof::Phase::kCheckFill);
    fwd_ext.assign(fwd_groups, MinMax{kI32Max, kI32Min});
    rev_ext.assign(rev_groups, MinMax{kI32Max, kI32Min});
  }
  const std::size_t m = lhs.num_rows();
  // Blocked dual fill with the same monotone early exit as FillScanOne:
  // stop once all four flags are true — the probes' flags are then the
  // exact final answer for both directions.
  ScanResult fwd;
  ScanResult rev;
  WithCodes(lhs, [&](const auto* lc) {
    WithCodes(rhs, [&](const auto* rc) {
      const std::size_t chunk =
          std::max<std::size_t>(std::size_t{4096}, fwd_groups + rev_groups);
      std::size_t row = 0;
      for (;;) {
        const std::size_t end = std::min(m, row + chunk);
        {
          prof::ScopedTimer timer(prof::Phase::kCheckFill);
          prof::AddBytes(prof::Phase::kCheckFill,
                         static_cast<std::uint64_t>(end - row) *
                             (sizeof(lc[0]) + sizeof(rc[0])));
          FillExtremesBoth(lc + row, rc + row, end - row, fwd_ext.data(),
                           rev_ext.data());
        }
        row = end;
        if (row >= m) {
          fwd = ScanExtremes(fwd_ext.data(), fwd_groups);
          rev = ScanExtremes(rev_ext.data(), rev_groups);
          return;
        }
        ScanResult pf = ProbeExtremes(fwd_ext.data(), fwd_groups);
        ScanResult pr = ProbeExtremes(rev_ext.data(), rev_groups);
        if (pf.has_split && pf.has_swap && pr.has_split && pr.has_swap) {
          fwd = pf;
          rev = pr;
          return;
        }
      }
    });
  });
  forward->has_split = fwd.has_split;
  forward->has_swap = fwd.has_swap;
  reverse->has_split = rev.has_split;
  reverse->has_swap = rev.has_swap;
}

bool ListPartition::CheckOcd(const ListPartition& lhs,
                             const ListPartition& rhs) {
  if (lhs.num_rows() < 2) return true;
  return !FillAndScan(lhs, rhs, /*need_split=*/false).has_swap;
}

}  // namespace ocdd::core
