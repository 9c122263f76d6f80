#include "relation/batch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace ocdd::rel {

namespace {

constexpr const char* kMagic = "ocdd-batch";
constexpr std::size_t kMaxSamples = 8;

/// One physical line of the batch text, with provenance for error reports.
struct Line {
  std::string text;        // terminator stripped
  std::uint64_t number;    // 1-based physical line number
  std::uint64_t byte_off;  // offset of the line's first byte
};

/// Splits on LF, CRLF, or lone CR — the same terminator tolerance as the
/// CSV scanner, so a batch file written on any platform parses.
std::vector<Line> SplitLines(const std::string& text) {
  std::vector<Line> lines;
  std::size_t start = 0;
  std::uint64_t number = 1;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool at_end = i == text.size();
    if (!at_end && text[i] != '\n' && text[i] != '\r') continue;
    if (at_end && i == start) break;
    lines.push_back(Line{text.substr(start, i - start), number++, start});
    if (!at_end && text[i] == '\r' && i + 1 < text.size() &&
        text[i + 1] == '\n') {
      ++i;
    }
    start = i + 1;
  }
  return lines;
}

bool IsBlankOrComment(const std::string& s) {
  for (char c : s) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

IngestError MakeError(IngestErrorCode code, const Line& line,
                      std::uint64_t column, std::string detail) {
  IngestError e;
  e.code = code;
  e.byte_offset = line.byte_off;
  e.row = line.number;
  e.column = column;
  e.detail = std::move(detail);
  e.excerpt = SanitizeExcerpt(line.text);
  return e;
}

/// One parsed cell: raw text plus whether it was quoted — an unquoted empty
/// (or null-marker) cell is NULL, a quoted one is a real string.
struct Cell {
  std::string text;
  bool quoted = false;
};

/// Splits one op line's payload into cells. RFC-4180-style quoting plus
/// backslash escapes (\n \r \\) inside quoted cells, so string values with
/// embedded newlines survive the one-op-per-line format.
bool SplitCells(const std::string& payload, std::vector<Cell>* cells,
                std::string* error) {
  cells->clear();
  std::size_t i = 0;
  for (;;) {
    Cell cell;
    if (i < payload.size() && payload[i] == '"') {
      cell.quoted = true;
      ++i;
      bool closed = false;
      while (i < payload.size()) {
        char c = payload[i];
        if (c == '"') {
          if (i + 1 < payload.size() && payload[i + 1] == '"') {
            cell.text.push_back('"');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        if (c == '\\') {
          if (i + 1 >= payload.size()) {
            *error = "dangling backslash escape in quoted cell";
            return false;
          }
          char n = payload[i + 1];
          if (n == 'n') {
            cell.text.push_back('\n');
          } else if (n == 'r') {
            cell.text.push_back('\r');
          } else if (n == '\\') {
            cell.text.push_back('\\');
          } else {
            *error = "unknown backslash escape in quoted cell";
            return false;
          }
          i += 2;
          continue;
        }
        cell.text.push_back(c);
        ++i;
      }
      if (!closed) {
        *error = "unterminated quote";
        return false;
      }
      if (i < payload.size() && payload[i] != ',') {
        *error = "garbage after closing quote";
        return false;
      }
    } else {
      while (i < payload.size() && payload[i] != ',') {
        if (payload[i] == '"') {
          *error = "quote inside unquoted cell";
          return false;
        }
        cell.text.push_back(payload[i]);
        ++i;
      }
    }
    cells->push_back(std::move(cell));
    if (i >= payload.size()) return true;
    ++i;  // separator
  }
}

/// Converts one cell to a typed value under the column's declared type.
/// Unlike CSV ingest (which infers types from the data and thus never sees
/// a non-conforming field), a batch cell can contradict the target schema —
/// that is a typed rejection, not a silent NULL.
bool TypedValue(const Cell& cell, DataType type,
                const TypeInferenceOptions& ti, Value* out,
                std::string* error) {
  if (!cell.quoted && IsNullMarker(cell.text, ti)) {
    *out = Value::Null();
    return true;
  }
  switch (type) {
    case DataType::kString:
      *out = Value::String(cell.text);
      return true;
    case DataType::kInt: {
      auto v = ParseInt64(StripAsciiWhitespace(cell.text));
      if (!v.has_value()) {
        *error = "cell does not parse as int64";
        return false;
      }
      *out = Value::Int(*v);
      return true;
    }
    case DataType::kDouble: {
      std::string_view stripped = StripAsciiWhitespace(cell.text);
      auto d = ParseDouble(stripped);
      if (!d.has_value()) {
        auto v = ParseInt64(stripped);
        if (!v.has_value()) {
          *error = "cell does not parse as double";
          return false;
        }
        *out = Value::Double(static_cast<double>(*v));
        return true;
      }
      *out = Value::Double(*d);
      return true;
    }
  }
  *error = "unknown column type";
  return false;
}

void AppendCell(std::string& out, const Value& v) {
  if (v.is_null()) return;  // empty unquoted cell
  std::string text;
  if (v.is_int()) {
    text = std::to_string(v.int_value());
  } else if (v.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
    text = buf;
  } else {
    text = v.string_value();
  }
  bool needs_quoting = text.empty();
  TypeInferenceOptions ti;
  // A string that *looks* like a NULL marker or a number must be quoted or
  // the round-trip would re-type it.
  if (v.is_string() &&
      (IsNullMarker(text, ti) || text != StripAsciiWhitespace(text))) {
    needs_quoting = true;
  }
  for (char c : text) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r' || c == '\\') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) {
    out += text;
    return;
  }
  out.push_back('"');
  for (char c : text) {
    if (c == '"') {
      out += "\"\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

Result<BatchParse> ParseBatchText(const std::string& text,
                                  const Schema& schema,
                                  const BatchParseOptions& options) {
  const BatchLimits& limits = options.limits;
  if (text.size() > limits.max_text_bytes) {
    IngestError e;
    e.code = IngestErrorCode::kInputTooLarge;
    e.detail = "batch text exceeds max_text_bytes";
    return e.ToStatus();
  }

  BatchParse parse;
  BatchIngestReport& report = parse.report;
  bool have_header = false;

  // Returns non-OK only under kFail; otherwise records the rejection.
  auto reject = [&](IngestError error, const std::string& raw) -> Status {
    if (options.on_bad_row == BadRowPolicy::kFail) {
      return error.ToStatus();
    }
    ++report.rows_rejected;
    report.rejected_by_code.Add(error.code);
    if (report.samples.size() < kMaxSamples) {
      report.samples.push_back(std::move(error));
    }
    if (options.on_bad_row == BadRowPolicy::kQuarantine) {
      report.quarantined_rows.push_back(raw);
    }
    return Status::OK();
  };

  for (const Line& line : SplitLines(text)) {
    if (IsBlankOrComment(line.text)) continue;

    if (line.text.find('\0') != std::string::npos) {
      IngestError e = MakeError(IngestErrorCode::kEmbeddedNul, line, 0,
                                "NUL byte in batch line");
      if (!have_header) return e.ToStatus();  // structural: header region
      ++report.records_total;
      auto r = reject(std::move(e), line.text);
      if (!r.ok()) return r;
      continue;
    }

    if (!have_header) {
      // First significant line must be the header; a bad header is always
      // fatal, like a bad CSV header.
      std::vector<std::string> parts;
      for (auto& p :
           SplitString(StripAsciiWhitespace(line.text), ' ')) {
        if (!p.empty()) parts.push_back(p);
      }
      if (parts.empty() || parts[0] != kMagic) {
        return MakeError(IngestErrorCode::kBadMagic, line, 0,
                         "expected 'ocdd-batch <version>' header")
            .ToStatus();
      }
      if (parts.size() != 2 || parts[1] != "1") {
        return MakeError(IngestErrorCode::kValueOutOfRange, line, 0,
                         "unsupported batch format version")
            .ToStatus();
      }
      have_header = true;
      continue;
    }

    ++report.records_total;
    if (line.text.size() > limits.max_line_bytes) {
      auto r = reject(MakeError(IngestErrorCode::kRecordTooLarge, line, 0,
                                "op line exceeds max_line_bytes"),
                      line.text);
      if (!r.ok()) return r;
      continue;
    }
    const char op = line.text[0];
    if (op != '-' && op != '+') {
      auto r = reject(MakeError(IngestErrorCode::kMalformedSyntax, line, 0,
                                "op line must start with '-' or '+'"),
                      line.text);
      if (!r.ok()) return r;
      continue;
    }
    if (parse.batch.num_ops() >= limits.max_ops) {
      // Like CsvLimits::max_rows this is always fatal: it signals the wrong
      // input, not one mangled line.
      return MakeError(IngestErrorCode::kTooManyRows, line, 0,
                       "batch exceeds max_ops")
          .ToStatus();
    }
    const std::string payload(
        StripAsciiWhitespace(std::string_view(line.text).substr(1)));

    if (op == '-') {
      auto v = ParseInt64(payload);
      if (!v.has_value() || *v < 0) {
        auto r = reject(
            MakeError(IngestErrorCode::kMalformedSyntax, line, 0,
                      "delete op needs a non-negative row index"),
            line.text);
        if (!r.ok()) return r;
        continue;
      }
      ++report.ops_parsed;
      parse.batch.deletes.push_back(static_cast<std::size_t>(*v));
      continue;
    }

    std::vector<Cell> cells;
    std::string cell_error;
    if (!SplitCells(payload, &cells, &cell_error)) {
      IngestErrorCode code = cell_error == "unterminated quote"
                                 ? IngestErrorCode::kUnterminatedQuote
                                 : IngestErrorCode::kMalformedSyntax;
      auto r = reject(MakeError(code, line, 0, cell_error), line.text);
      if (!r.ok()) return r;
      continue;
    }
    if (cells.size() != schema.num_columns()) {
      auto r = reject(
          MakeError(IngestErrorCode::kRaggedRow, line, 0,
                    "row has " + std::to_string(cells.size()) +
                        " cells, schema has " +
                        std::to_string(schema.num_columns())),
          line.text);
      if (!r.ok()) return r;
      continue;
    }
    std::vector<Value> row;
    row.reserve(cells.size());
    bool row_ok = true;
    for (std::size_t c = 0; c < cells.size() && row_ok; ++c) {
      Value value;
      std::string type_error;
      if (!TypedValue(cells[c], schema.attribute(c).type,
                      options.type_inference, &value, &type_error)) {
        auto r = reject(MakeError(IngestErrorCode::kValueOutOfRange, line,
                                  c + 1, type_error),
                        line.text);
        if (!r.ok()) return r;
        row_ok = false;
        break;
      }
      row.push_back(std::move(value));
    }
    if (!row_ok) continue;
    ++report.ops_parsed;
    parse.batch.appends.push_back(std::move(row));
  }

  if (!have_header) {
    IngestError e;
    e.code = IngestErrorCode::kEmptyInput;
    e.detail = "batch text has no header line";
    return e.ToStatus();
  }

  std::sort(parse.batch.deletes.begin(), parse.batch.deletes.end());
  parse.batch.deletes.erase(
      std::unique(parse.batch.deletes.begin(), parse.batch.deletes.end()),
      parse.batch.deletes.end());
  return parse;
}

Result<BatchParse> ReadBatchFile(const std::string& path, const Schema& schema,
                                 const BatchParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open batch file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseBatchText(buf.str(), schema, options);
}

std::string WriteBatchText(const RowBatch& batch, const Schema& schema) {
  std::string out = std::string(kMagic) + " 1\n";
  std::vector<std::size_t> deletes = batch.deletes;
  std::sort(deletes.begin(), deletes.end());
  deletes.erase(std::unique(deletes.begin(), deletes.end()), deletes.end());
  for (std::size_t d : deletes) {
    out += "- " + std::to_string(d) + "\n";
  }
  for (const std::vector<Value>& row : batch.appends) {
    out += "+ ";
    for (std::size_t c = 0; c < row.size() && c < schema.num_columns(); ++c) {
      if (c > 0) out.push_back(',');
      AppendCell(out, row[c]);
    }
    out.push_back('\n');
  }
  return out;
}

Result<Relation> ApplyBatch(const Relation& relation, const RowBatch& batch) {
  const Schema& schema = relation.schema();
  // Validate everything before touching any column: apply is all-or-nothing.
  for (std::size_t i = 0; i < batch.deletes.size(); ++i) {
    if (batch.deletes[i] >= relation.num_rows()) {
      return Status::InvalidArgument(
          "batch deletes row " + std::to_string(batch.deletes[i]) +
          " but the relation has " + std::to_string(relation.num_rows()) +
          " rows");
    }
    if (i > 0 && batch.deletes[i] <= batch.deletes[i - 1]) {
      return Status::InvalidArgument(
          "batch delete indices must be sorted and duplicate-free");
    }
  }
  for (const std::vector<Value>& row : batch.appends) {
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "batch appends a row with " + std::to_string(row.size()) +
          " cells, schema has " + std::to_string(schema.num_columns()));
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      const Value& v = row[c];
      if (v.is_null()) continue;
      const DataType t = schema.attribute(c).type;
      const bool ok = (t == DataType::kInt && v.is_int()) ||
                      (t == DataType::kDouble &&
                       (v.is_double() || v.is_int())) ||
                      (t == DataType::kString && v.is_string());
      if (!ok) {
        return Status::InvalidArgument(
            "batch append cell type mismatch in column " +
            schema.attribute(c).name);
      }
    }
  }

  std::vector<std::size_t> keep;
  keep.reserve(relation.num_rows() - batch.deletes.size());
  std::size_t next_delete = 0;
  for (std::size_t r = 0; r < relation.num_rows(); ++r) {
    if (next_delete < batch.deletes.size() &&
        batch.deletes[next_delete] == r) {
      ++next_delete;
      continue;
    }
    keep.push_back(r);
  }
  Relation kept = relation.SelectRows(keep);

  std::vector<Column> columns;
  columns.reserve(schema.num_columns());
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    Column col = kept.column(c);
    for (const std::vector<Value>& row : batch.appends) {
      col.Append(row[c]);
    }
    columns.push_back(std::move(col));
  }
  return Relation::FromColumns(schema, std::move(columns));
}

}  // namespace ocdd::rel
