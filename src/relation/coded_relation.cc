#include "relation/coded_relation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/prof.h"

namespace ocdd::rel {

namespace {

/// Maps each distinct key to a dense first-seen id (open addressing, linear
/// probing, load factor at most 1/2).
template <typename Key, typename Hash>
class Interner {
 public:
  Interner() : slots_(64, -1) {}

  std::int32_t Intern(const Key& key) {
    const std::size_t hash = Hash{}(key);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      const std::int32_t id = slots_[slot];
      if (id < 0) break;
      if (keys_[static_cast<std::size_t>(id)] == key) return id;
    }
    const auto id = static_cast<std::int32_t>(keys_.size());
    keys_.push_back(key);
    hashes_.push_back(hash);
    if (2 * keys_.size() > slots_.size()) {
      Rehash(2 * slots_.size());
    } else {
      Place(id);
    }
    return id;
  }

  /// Distinct keys, indexed by id.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  void Place(std::int32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hashes_[static_cast<std::size_t>(id)] & mask;
    while (slots_[slot] >= 0) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }

  void Rehash(std::size_t capacity) {
    slots_.assign(capacity, -1);
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      Place(static_cast<std::int32_t>(id));
    }
  }

  std::vector<std::int32_t> slots_;
  std::vector<Key> keys_;
  std::vector<std::size_t> hashes_;
};

/// splitmix64's finalizer: every input bit reaches the low (slot) bits.
struct MixHash {
  std::size_t operator()(std::uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

/// Dense rank of each of `keys` (indexed by id) under `less`; keys that
/// neither precedes share a rank. Sorts (key, id) pairs, so the comparisons
/// read no memory but the pairs. Sets `*num_ranks`.
template <typename Key, typename Less>
std::vector<std::int32_t> DenseRanks(const std::vector<Key>& keys, Less less,
                                     std::int32_t* num_ranks) {
  std::vector<std::pair<Key, std::int32_t>> sorted(keys.size());
  for (std::size_t id = 0; id < keys.size(); ++id) {
    sorted[id] = {keys[id], static_cast<std::int32_t>(id)};
  }
  std::sort(sorted.begin(), sorted.end(),
            [&](const std::pair<Key, std::int32_t>& a,
                const std::pair<Key, std::int32_t>& b) {
              return less(a.first, b.first);
            });
  std::vector<std::int32_t> rank(keys.size());
  std::int32_t next = -1;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i == 0 || less(sorted[i - 1].first, sorted[i].first)) ++next;
    rank[static_cast<std::size_t>(sorted[i].second)] = next;
  }
  *num_ranks = next + 1;
  return rank;
}

/// Encodes one column dictionary-first: interns every non-NULL cell's
/// `key_at(row)` to a first-seen id, ranks only the distinct keys — by
/// `less`, or by their `render`ing when `lexicographic` — and maps each
/// cell to its key's rank. NULLs share code 0, below every value.
template <typename Key, typename Hash, typename KeyAt, typename Less,
          typename Render>
void EncodeDistinct(const Column& column, std::size_t m, KeyAt key_at,
                    Less less, Render render, bool lexicographic,
                    CodedColumn* out) {
  Interner<Key, Hash> interner;
  for (std::size_t r = 0; r < m; ++r) {
    if (column.is_null(r)) {
      out->codes[r] = -1;
      out->has_nulls = true;
    } else {
      out->codes[r] = interner.Intern(key_at(r));
    }
  }
  const std::vector<Key>& keys = interner.keys();
  std::int32_t num_ranks = 0;
  std::vector<std::int32_t> rank;
  if (lexicographic) {
    std::vector<std::string> rendered(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) rendered[i] = render(keys[i]);
    rank = DenseRanks(std::vector<std::string_view>(rendered.begin(),
                                                    rendered.end()),
                      std::less<std::string_view>(), &num_ranks);
  } else {
    rank = DenseRanks(keys, less, &num_ranks);
  }
  const std::int32_t base = out->has_nulls ? 1 : 0;
  for (std::size_t r = 0; r < m; ++r) {
    const std::int32_t id = out->codes[r];
    out->codes[r] = id < 0 ? 0 : base + rank[static_cast<std::size_t>(id)];
  }
  out->num_distinct = base + num_ranks;
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

CodedColumn EncodeColumn(const Relation& relation, ColumnId col,
                         const EncodeOptions& options) {
  const Column& column = relation.column(col);
  const std::size_t m = relation.num_rows();
  const bool lex = options.force_lexicographic;

  CodedColumn out;
  out.name = relation.schema().attribute(col).name;
  out.source_type = column.type();
  out.codes.resize(m);

  switch (column.type()) {
    case DataType::kInt:
      EncodeDistinct<std::uint64_t, MixHash>(
          column, m,
          [&](std::size_t r) {
            return static_cast<std::uint64_t>(column.int_at(r));
          },
          [](std::uint64_t a, std::uint64_t b) {
            return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
          },
          [](std::uint64_t v) {
            return Value::Int(static_cast<std::int64_t>(v)).ToString();
          },
          lex, &out);
      break;
    case DataType::kDouble:
      // 0.0 and -0.0 intern apart but neither is less, so naturally they
      // share a rank; lexicographically they render apart, as "0" and "-0".
      EncodeDistinct<std::uint64_t, MixHash>(
          column, m,
          [&](std::size_t r) { return DoubleBits(column.double_at(r)); },
          [](std::uint64_t a, std::uint64_t b) {
            // NaN (never produced by CSV ingest) sorts last, all NaNs equal,
            // so the order stays strict and weak.
            const double x = BitsDouble(a);
            const double y = BitsDouble(b);
            return !std::isnan(x) && (std::isnan(y) || x < y);
          },
          [](std::uint64_t v) { return Value::Double(BitsDouble(v)).ToString(); },
          lex, &out);
      break;
    case DataType::kString:
      // A string renders as itself: both modes rank bytewise.
      EncodeDistinct<std::string_view, std::hash<std::string_view>>(
          column, m,
          [&](std::size_t r) { return column.string_at(r); },
          [](std::string_view a, std::string_view b) { return a < b; },
          [](std::string_view v) { return std::string(v); },
          /*lexicographic=*/false, &out);
      break;
  }
  return out;
}

}  // namespace

void CodedColumn::SyncCompressedForms() {
  codes8.clear();
  codes16.clear();
  std::size_t m = codes.size();
  if (m > 0) {
    if (num_distinct <= 256) {
      codes8.resize(m);
      for (std::size_t r = 0; r < m; ++r) {
        codes8[r] = static_cast<std::uint8_t>(codes[r]);
      }
    } else if (num_distinct <= 65536) {
      codes16.resize(m);
      for (std::size_t r = 0; r < m; ++r) {
        codes16[r] = static_cast<std::uint16_t>(codes[r]);
      }
    }
  }
}

CodeView NarrowView(const CodedColumn& column) {
  if (!column.codes8.empty()) {
    return CodeView{column.codes8.data(), CodeWidth::k8};
  }
  if (!column.codes16.empty()) {
    return CodeView{column.codes16.data(), CodeWidth::k16};
  }
  return CodeView{column.codes.data(), CodeWidth::k32};
}

CodedRelation CodedRelation::Encode(const Relation& relation,
                                    const EncodeOptions& options) {
  prof::ScopedTimer timer(prof::Phase::kEncode);
  CodedRelation out;
  out.num_rows_ = relation.num_rows();
  out.columns_.reserve(relation.num_columns());
  for (ColumnId c = 0; c < relation.num_columns(); ++c) {
    out.columns_.push_back(EncodeColumn(relation, c, options));
    out.columns_.back().SyncCompressedForms();
  }
  return out;
}

CodedRelation CodedRelation::FromColumns(std::vector<CodedColumn> columns) {
  CodedRelation out;
  out.num_rows_ = columns.empty() ? 0 : columns[0].codes.size();
  for (CodedColumn& c : columns) {
    assert(c.codes.size() == out.num_rows_);
    c.SyncCompressedForms();
  }
  out.columns_ = std::move(columns);
  return out;
}

double CodedRelation::ColumnEntropy(ColumnId col) const {
  const CodedColumn& c = columns_[col];
  if (num_rows_ == 0) return 0.0;
  std::unordered_map<std::int32_t, std::size_t> counts;
  counts.reserve(static_cast<std::size_t>(c.num_distinct) * 2);
  for (std::int32_t code : c.codes) ++counts[code];
  double h = 0.0;
  double m = static_cast<double>(num_rows_);
  for (const auto& [code, n] : counts) {
    double p = static_cast<double>(n) / m;
    h -= p * std::log(p);
  }
  return h;
}

CodedRelation CodedRelation::ProjectColumns(
    const std::vector<ColumnId>& cols) const {
  CodedRelation out;
  out.num_rows_ = num_rows_;
  out.columns_.reserve(cols.size());
  for (ColumnId c : cols) {
    assert(c < columns_.size());
    out.columns_.push_back(columns_[c]);
  }
  return out;
}

std::uint64_t CodedRelation::Fingerprint() const {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
  };
  mix(num_rows_);
  mix(columns_.size());
  for (const CodedColumn& c : columns_) {
    mix(c.name.size());
    for (char ch : c.name) mix(static_cast<unsigned char>(ch));
    mix(static_cast<std::uint64_t>(c.num_distinct));
    mix(c.has_nulls ? 1 : 0);
    for (std::int32_t code : c.codes) {
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(code)));
    }
  }
  return h;
}

CodedRelation CodedRelation::HeadRows(std::size_t n) const {
  if (n >= num_rows_) return *this;
  CodedRelation out;
  out.num_rows_ = n;
  out.columns_.reserve(columns_.size());
  for (const CodedColumn& c : columns_) {
    CodedColumn trimmed = c;
    trimmed.codes.resize(n);
    // Re-densify: consumers (ListPartition, StrippedPartition) rely on the
    // invariant that codes are dense ranks in [0, num_distinct). Remapping
    // sorted-unique old codes to their index preserves the relative order.
    std::vector<std::int32_t> sorted(trimmed.codes);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (std::int32_t& code : trimmed.codes) {
      code = static_cast<std::int32_t>(
          std::lower_bound(sorted.begin(), sorted.end(), code) -
          sorted.begin());
    }
    trimmed.num_distinct = static_cast<std::int32_t>(sorted.size());
    trimmed.SyncCompressedForms();
    out.columns_.push_back(std::move(trimmed));
  }
  return out;
}

}  // namespace ocdd::rel
