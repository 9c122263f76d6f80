#ifndef OCDD_ALGO_ATTR_SET_H_
#define OCDD_ALGO_ATTR_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/coded_relation.h"

namespace ocdd::algo {

/// A set of attribute ids over schemas of up to 128 columns, stored as two
/// 64-bit words. The set-lattice algorithms (TANE, FASTOD) key their levels
/// on this type; 128 bits cover the widest evaluation dataset (FLIGHT_1K,
/// 109 columns).
struct AttrSet {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  static constexpr std::size_t kMaxAttrs = 128;

  static AttrSet Single(std::size_t i) {
    AttrSet s;
    s.Add(i);
    return s;
  }

  static AttrSet FullUniverse(std::size_t n) {
    AttrSet s;
    for (std::size_t i = 0; i < n; ++i) s.Add(i);
    return s;
  }

  void Add(std::size_t i) {
    if (i < 64) {
      lo |= (1ULL << i);
    } else {
      hi |= (1ULL << (i - 64));
    }
  }
  void Remove(std::size_t i) {
    if (i < 64) {
      lo &= ~(1ULL << i);
    } else {
      hi &= ~(1ULL << (i - 64));
    }
  }
  bool Contains(std::size_t i) const {
    if (i < 64) return (lo >> i) & 1;
    return (hi >> (i - 64)) & 1;
  }

  bool empty() const { return lo == 0 && hi == 0; }
  std::size_t Count() const {
    return static_cast<std::size_t>(__builtin_popcountll(lo) +
                                    __builtin_popcountll(hi));
  }

  AttrSet Union(const AttrSet& o) const { return {lo | o.lo, hi | o.hi}; }
  AttrSet Intersect(const AttrSet& o) const { return {lo & o.lo, hi & o.hi}; }
  AttrSet Without(const AttrSet& o) const { return {lo & ~o.lo, hi & ~o.hi}; }
  AttrSet WithoutAttr(std::size_t i) const {
    AttrSet s = *this;
    s.Remove(i);
    return s;
  }
  /// The set without its largest member; the prefix of a lattice join.
  AttrSet WithoutLargest() const {
    if (hi != 0) return {lo, hi & ~(1ULL << (63 - __builtin_clzll(hi)))};
    if (lo != 0) return {lo & ~(1ULL << (63 - __builtin_clzll(lo))), 0};
    return *this;
  }
  bool IsSubsetOf(const AttrSet& o) const {
    return (lo & ~o.lo) == 0 && (hi & ~o.hi) == 0;
  }

  /// Member ids in ascending order.
  std::vector<std::size_t> ToVector() const {
    std::vector<std::size_t> out;
    std::uint64_t w = lo;
    while (w != 0) {
      out.push_back(static_cast<std::size_t>(__builtin_ctzll(w)));
      w &= w - 1;
    }
    w = hi;
    while (w != 0) {
      out.push_back(static_cast<std::size_t>(__builtin_ctzll(w)) + 64);
      w &= w - 1;
    }
    return out;
  }

  friend bool operator==(const AttrSet& a, const AttrSet& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator<(const AttrSet& a, const AttrSet& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }
};

struct AttrSetHash {
  std::size_t operator()(const AttrSet& s) const {
    std::uint64_t h = s.lo * 0x9e3779b97f4a7c15ULL;
    h ^= s.hi + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_ATTR_SET_H_
