#include "relation/coded_relation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/prof.h"

namespace ocdd::rel {

namespace {

CodedColumn EncodeColumn(const Relation& relation, ColumnId col,
                         const EncodeOptions& options) {
  const Column& column = relation.column(col);
  std::size_t m = relation.num_rows();

  CodedColumn out;
  out.name = relation.schema().attribute(col).name;
  out.source_type = column.type();
  out.codes.resize(m);

  // Sort row ids by value (NULLs first); equal runs share a code.
  std::vector<std::uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0);

  if (options.force_lexicographic) {
    // Rank by rendered string; NULLs still first and mutually equal.
    std::vector<std::string> rendered(m);
    std::vector<bool> is_null(m);
    for (std::size_t r = 0; r < m; ++r) {
      is_null[r] = column.is_null(r);
      if (!is_null[r]) rendered[r] = column.ValueAt(r).ToString();
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) -> bool {
                if (is_null[a] != is_null[b]) return is_null[a];
                if (is_null[a]) return false;
                return rendered[a] < rendered[b];
              });
    std::int32_t next = -1;
    for (std::size_t i = 0; i < m; ++i) {
      std::uint32_t r = order[i];
      bool new_run =
          i == 0 ||
          is_null[order[i - 1]] != is_null[r] ||
          (!is_null[r] && rendered[order[i - 1]] != rendered[r]);
      if (new_run) ++next;
      out.codes[r] = next;
      if (is_null[r]) out.has_nulls = true;
    }
    out.num_distinct = m == 0 ? 0 : next + 1;
    return out;
  }

  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return column.CompareRows(a, b) < 0;
            });
  std::int32_t next = -1;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t r = order[i];
    if (i == 0 || column.CompareRows(order[i - 1], r) != 0) ++next;
    out.codes[r] = next;
    if (column.is_null(r)) out.has_nulls = true;
  }
  out.num_distinct = m == 0 ? 0 : next + 1;
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
