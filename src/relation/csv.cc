#include "relation/csv.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <string_view>

#include "common/io_env.h"
#include "common/prof.h"
#include "common/run_context.h"

namespace ocdd::rel {

const char* BadRowPolicyName(BadRowPolicy policy) {
  switch (policy) {
    case BadRowPolicy::kFail:
      return "fail";
    case BadRowPolicy::kSkip:
      return "skip";
    case BadRowPolicy::kQuarantine:
      return "quarantine";
  }
  return "unknown";
}

namespace {

/// One physical record as scanned from the raw text: its fields when it
/// tokenized cleanly, or a structured error plus the raw byte span
/// `[begin, end)` (terminator excluded) for quarantining.
struct RawRecord {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  std::size_t end = 0;
  /// 1-based physical record number (header counts as row 1).
  std::uint64_t row = 0;
  bool ok = true;
  IngestError error;
};

/// Record-at-a-time tokenizer with quote-state recovery: a structural error
/// (NUL, oversized field/record, too many columns, unterminated quote)
/// fails only the *current* record and resynchronizes at the next raw line
/// terminator, so one mangled row cannot take the rest of the file with it.
/// The declared CsvLimits are enforced while scanning — before the parser
/// buffers more than one limit's worth of bytes on the input's behalf.
///
/// Two paths give the same records. A line that holds no `"` or NUL, ends
/// at LF, CR or CRLF, and is within every limit is split at its separators
/// with memchr (the line path). Every other line, and every line when the
/// separator is `"`, NUL, CR or LF, goes through the byte-wise loop, which
/// alone reports errors, so their codes, offsets and excerpts do not
/// depend on the path.
///
/// Fields are views into the input, valid until the next call to `Next`.
/// A field whose unescaped bytes are not contiguous there (it holds a
/// doubled quote `""` followed by more bytes, or bytes after its closing
/// quote) is copied into the scanner's arena; no other field is copied.
class RecordScanner {
 public:
  RecordScanner(std::string_view text, const CsvOptions& options,
                std::size_t start)
      : text_(text), options_(options), pos_(start) {
    for (char c : {options.separator, '\n', '\r', '\0', '"'}) {
      plain_stop_[static_cast<unsigned char>(c)] = true;
    }
    for (char c : {'"', '\0'}) {
      quoted_stop_[static_cast<unsigned char>(c)] = true;
    }
    for (char c : {'"', '\0', '\r', '\n'}) {
      if (options.separator == c) line_path_ = false;
    }
    for (int k = 0; k < 3; ++k) next_special_[k] = Find(kSpecial[k], start);
  }

  /// Scans the next record into `*rec`; false at end of input. Blank lines
  /// are skipped without producing a record.
  bool Next(RawRecord* rec) {
    const std::size_t n = text_.size();
    // LF, CRLF, and lone CR all terminate records; runs of terminators are
    // blank lines, not empty records.
    while (pos_ < n) {
      if (text_[pos_] == '\n') {
        ++pos_;
      } else if (text_[pos_] == '\r') {
        pos_ += (pos_ + 1 < n && text_[pos_ + 1] == '\n') ? 2 : 1;
      } else {
        break;
      }
    }
    if (pos_ >= n) return false;

    rec->fields.clear();
    rec->ok = true;
    rec->error = IngestError{};
    rec->begin = pos_;
    rec->row = ++row_;
    arena_.clear();
    if (line_path_ && SplitLine(rec)) return true;
    rec->fields.clear();
    field_bytes_ = 0;
    copied_ = false;

    const CsvLimits& lim = options_.limits;
    bool in_quotes = false;
    bool field_was_quoted = false;
    std::size_t quote_open_pos = 0;

    auto end_field = [&]() -> bool {
      if (rec->fields.size() >= lim.max_columns) return false;
      rec->fields.push_back(TakeField());
      field_was_quoted = false;
      return true;
    };
    auto too_many_columns = [&](std::size_t at) {
      Fail(rec, IngestErrorCode::kTooManyColumns, at, rec->fields.size() + 1,
           "record exceeds max_columns=" + std::to_string(lim.max_columns));
    };
    auto field_too_large = [&](std::size_t at) {
      Fail(rec, IngestErrorCode::kFieldTooLarge, at, rec->fields.size() + 1,
           "field exceeds max_field_bytes=" +
               std::to_string(lim.max_field_bytes));
    };

    while (pos_ < n) {
      const std::size_t i = pos_;
      const char c = text_[i];
      if (i - rec->begin >= lim.max_record_bytes) {
        Fail(rec, IngestErrorCode::kRecordTooLarge, i, 0,
             "record exceeds max_record_bytes=" +
                 std::to_string(lim.max_record_bytes));
        return true;
      }
      if (c == '\0') {
        // NUL never appears in valid CSV text (inside or outside quotes);
        // it is the signature of binary input fed to the text reader.
        Fail(rec, IngestErrorCode::kEmbeddedNul, i, rec->fields.size() + 1,
             "embedded NUL byte");
        return true;
      }
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < n && text_[i + 1] == '"') {
            // `""` is one literal quote, the first byte of the pair. It is
            // not checked against the field limit.
            Append(i, 1);
            pos_ += 2;
          } else {
            in_quotes = false;
            ++pos_;
          }
          continue;
        }
        if (field_bytes_ >= lim.max_field_bytes) {
          field_too_large(i);
          return true;
        }
        pos_ = AppendRun(i, rec->begin, quoted_stop_);
        continue;
      }
      if (c == '"' && field_bytes_ == 0 && !field_was_quoted) {
        in_quotes = true;
        field_was_quoted = true;
        quote_open_pos = i;
        ++pos_;
        continue;
      }
      if (c == options_.separator) {
        if (!end_field()) {
          too_many_columns(i);
          return true;
        }
        ++pos_;
        continue;
      }
      if (c == '\n' || c == '\r') {
        rec->end = i;
        pos_ = i + ((c == '\r' && i + 1 < n && text_[i + 1] == '\n') ? 2 : 1);
        if (!end_field()) {
          too_many_columns(i);
        }
        return true;
      }
      if (field_bytes_ >= lim.max_field_bytes) {
        field_too_large(i);
        return true;
      }
      pos_ = AppendRun(i, rec->begin, plain_stop_);
    }
    // End of input inside a record.
    if (in_quotes) {
      Fail(rec, IngestErrorCode::kUnterminatedQuote, quote_open_pos,
           rec->fields.size() + 1,
           "quoted field never closed before end of input");
      return true;
    }
    rec->end = n;
    if (!end_field()) {
      too_many_columns(n);
    }
    return true;
  }

 private:
  /// The line path: splits the record at `pos_` when it ends at the first
  /// LF or CR (a CR ends it as in the byte-wise loop, CRLF included), holds
  /// no `"` or NUL before that, and is within every limit. False, with
  /// `pos_` unchanged, when the byte-wise loop must scan it. Only the bytes
  /// before the next tracked byte, and at most `max_record_bytes` of them,
  /// are searched for the LF, so a record costs the line path no more than
  /// its own bytes.
  bool SplitLine(RawRecord* rec) {
    const std::size_t n = text_.size();
    const char* data = text_.data();
    // A tracked byte is looked for again only once the scan has passed it.
    std::size_t special = n;
    for (int k = 0; k < 3; ++k) {
      if (next_special_[k] < pos_) next_special_[k] = Find(kSpecial[k], pos_);
      special = std::min(special, next_special_[k]);
    }
    const CsvLimits& lim = options_.limits;
    const void* lf = std::memchr(
        data + pos_, '\n', std::min(special - pos_, lim.max_record_bytes));
    std::size_t eol = special;
    std::size_t next = special;
    if (lf != nullptr) {
      eol = static_cast<const char*>(lf) - data;
      next = eol + 1;
    } else if (special - pos_ >= lim.max_record_bytes) {
      return false;
    } else if (special < n) {
      if (data[special] != '\r') return false;
      next = special + ((special + 1 < n && data[special + 1] == '\n') ? 2 : 1);
    }
    for (std::size_t begin = pos_;;) {
      const void* sep =
          std::memchr(data + begin, options_.separator, eol - begin);
      const std::size_t end =
          sep == nullptr ? eol : static_cast<const char*>(sep) - data;
      if (end - begin > lim.max_field_bytes ||
          rec->fields.size() >= lim.max_columns) {
        return false;
      }
      rec->fields.emplace_back(data + begin, end - begin);
      if (sep == nullptr) break;
      begin = end + 1;
    }
    rec->end = eol;
    pos_ = next;
    return true;
  }

  /// The offset of the first `byte` at or after `from`, else the input's
  /// size.
  std::size_t Find(char byte, std::size_t from) const {
    const void* p = std::memchr(text_.data() + from, byte, text_.size() - from);
    return p == nullptr ? text_.size()
                        : static_cast<const char*>(p) - text_.data();
  }

  /// Appends the byte at `i`, which passed every per-byte check, and the
  /// run of bytes after it that would pass them too: none is in `stop`, and
  /// neither the record limit nor the field limit is reached. Returns the
  /// end of the run.
  std::size_t AppendRun(std::size_t i, std::size_t record_begin,
                        const bool* stop) {
    const CsvLimits& lim = options_.limits;
    std::size_t end = text_.size();
    if (lim.max_record_bytes < end - record_begin) {
      end = record_begin + lim.max_record_bytes;
    }
    if (lim.max_field_bytes - field_bytes_ < end - i) {
      end = i + (lim.max_field_bytes - field_bytes_);
    }
    std::size_t j = i + 1;
    while (j < end && !stop[static_cast<unsigned char>(text_[j])]) ++j;
    Append(i, j - i);
    return j;
  }

  /// Adds the input bytes `[i, i + len)` to the current field: as a longer
  /// view while the field stays contiguous in the input, else by copy.
  void Append(std::size_t i, std::size_t len) {
    if (!copied_) {
      if (field_bytes_ == 0) field_begin_ = i;
      if (i == field_begin_ + field_bytes_) {
        field_bytes_ += len;
        return;
      }
      copied_ = true;
      scratch_.assign(text_.data() + field_begin_, field_bytes_);
    }
    scratch_.append(text_.data() + i, len);
    field_bytes_ += len;
  }

  /// The finished field; starts the next one.
  std::string_view TakeField() {
    std::string_view field;
    if (copied_) {
      arena_.push_back(std::move(scratch_));
      scratch_.clear();
      field = arena_.back();
    } else if (field_bytes_ > 0) {
      field = text_.substr(field_begin_, field_bytes_);
    }
    field_bytes_ = 0;
    copied_ = false;
    return field;
  }

  /// Marks the record bad and resynchronizes at the next raw line end
  /// (LF, CR or CRLF) after `offset`. The scan is quote-blind: once a
  /// record is structurally broken its quote state cannot be trusted, and a
  /// plain line boundary is the recovery point that salvages the most
  /// subsequent rows.
  void Fail(RawRecord* rec, IngestErrorCode code, std::size_t offset,
            std::uint64_t column, std::string detail) {
    rec->ok = false;
    rec->error.code = code;
    rec->error.byte_offset = offset;
    rec->error.row = rec->row;
    rec->error.column = column;
    rec->error.detail = std::move(detail);
    const std::size_t term = text_.find_first_of("\r\n", offset);
    if (term == std::string_view::npos) {
      rec->end = text_.size();
      pos_ = text_.size();
    } else if (text_[term] == '\r') {
      rec->end = term;
      pos_ = term + ((term + 1 < text_.size() && text_[term + 1] == '\n') ? 2
                                                                          : 1);
    } else {
      // An LF at `offset` may follow a CR the scan passed inside quotes.
      rec->end = (term > rec->begin && text_[term - 1] == '\r') ? term - 1
                                                                : term;
      pos_ = term + 1;
    }
    rec->error.excerpt = SanitizeExcerpt(std::string(text_.substr(
        rec->begin, std::min<std::size_t>(rec->end - rec->begin, 64))));
  }

  const std::string_view text_;
  const CsvOptions& options_;
  std::size_t pos_;
  std::uint64_t row_ = 0;
  /// The current record's copied fields.
  std::deque<std::string> arena_;
  /// Bytes that end a run of plain field content outside / inside quotes.
  bool plain_stop_[256] = {};
  bool quoted_stop_[256] = {};
  /// False when the separator is a byte the line path leaves to the
  /// byte-wise loop.
  bool line_path_ = true;
  /// The bytes the line path stops at (a `"` or NUL sends the line to the
  /// byte-wise loop, a CR ends it), and the offset of the next of each at
  /// or after the last line path start (the input's size when there is
  /// none).
  static constexpr char kSpecial[3] = {'"', '\0', '\r'};
  std::size_t next_special_[3];
  /// The field being scanned: `field_bytes_` unescaped bytes, either the
  /// input view at `field_begin_` or, once `copied_`, `scratch_`.
  std::size_t field_begin_ = 0;
  std::size_t field_bytes_ = 0;
  bool copied_ = false;
  std::string scratch_;
};

constexpr std::size_t kMaxErrorSamples = 5;

IngestError RaggedRowError(std::string_view text, const RawRecord& rec,
                           std::size_t width) {
  IngestError err;
  err.code = IngestErrorCode::kRaggedRow;
  err.byte_offset = rec.begin;
  err.row = rec.row;
  err.column = rec.fields.size();
  err.detail = "row has " + std::to_string(rec.fields.size()) +
               " fields, expected " + std::to_string(width);
  err.excerpt = SanitizeExcerpt(std::string(
      text.substr(rec.begin, std::min<std::size_t>(rec.end - rec.begin, 64))));
  return err;
}

/// The reader behind both entry points: scans `text` record by record,
/// applies the bad-row policy, and types each accepted record straight
/// into its columns. When a column widened after its first row, one replay
/// of the scan re-derives the rows before: it passes over the header and
/// the records the first pass rejected, and counts nothing again.
Result<CsvRead> ParseCsv(std::string_view text, const CsvOptions& options) {
  CsvRead out;
  CsvIngestReport& report = out.report;

  // A leading UTF-8 BOM is presentation, not data.
  std::size_t start = 0;
  if (text.substr(0, 3) == "\xEF\xBB\xBF") start = 3;

  RecordScanner scanner(text, options, start);
  RawRecord rec;

  std::vector<std::string> names;
  std::optional<ColumnFiller> filler;  // set by the first record
  std::size_t width = 0;
  auto accepted = [&](const RawRecord& r) {
    return r.ok && r.fields.size() == width;
  };

  // Applies the bad-row policy to one rejected record. Returns non-OK only
  // when the whole read must stop (kFail, or a RunContext budget ran out).
  auto reject = [&](const RawRecord& bad, const IngestError& err) -> Status {
    if (options.on_bad_row == BadRowPolicy::kFail) return err.ToStatus();
    ++report.rows_rejected;
    report.rejected_by_code.Add(err.code);
    if (report.samples.size() < kMaxErrorSamples) report.samples.push_back(err);
    if (options.on_bad_row == BadRowPolicy::kQuarantine) {
      report.quarantined_rows.emplace_back(
          text.substr(bad.begin, bad.end - bad.begin));
    }
    if (options.run_context != nullptr &&
        (options.run_context->CountCheck(1) ||
         options.run_context->ShouldStop())) {
      return Status::ResourceExhausted(
          "ingest stopped after " + std::to_string(report.rows_rejected) +
          " rejected rows (" +
          StopReasonName(options.run_context->stop_reason()) +
          "); last: " + err.ToString());
    }
    return Status::OK();
  };

  while (scanner.Next(&rec)) {
    if (!filler) {
      // The first record anchors the schema (names or width); it must be
      // structurally sound no matter the policy — there is nothing to
      // ingest against without it.
      if (!rec.ok) return rec.error.ToStatus();
      width = rec.fields.size();
      filler.emplace(width, options.type_inference);
      if (options.has_header) {
        names.assign(rec.fields.begin(), rec.fields.end());
        continue;
      }
      for (std::size_t i = 0; i < width; ++i) {
        names.push_back("col" + std::to_string(i));
      }
      // No header: the first record is data; fall through to count it.
    }
    ++report.records_total;
    if (options.limits.max_rows != 0 &&
        report.records_total > options.limits.max_rows) {
      IngestError err;
      err.code = IngestErrorCode::kTooManyRows;
      err.byte_offset = rec.begin;
      err.row = rec.row;
      err.detail =
          "input exceeds max_rows=" + std::to_string(options.limits.max_rows);
      return err.ToStatus();
    }
    if (!rec.ok) {
      OCDD_RETURN_IF_ERROR(reject(rec, rec.error));
      continue;
    }
    if (!accepted(rec)) {
      OCDD_RETURN_IF_ERROR(reject(rec, RaggedRowError(text, rec, width)));
      continue;
    }
    filler->Add(rec.fields.data());
    ++report.rows_ingested;
  }

  if (!filler) {
    IngestError err;
    err.code = IngestErrorCode::kEmptyInput;
    err.detail = "empty CSV input";
    return err.ToStatus();
  }

  // Quarantined raw rows go to the configured file; with no path they stay
  // on the report (tests, fuzzers).
  if (!report.quarantined_rows.empty() && !options.quarantine_path.empty()) {
    // Through io_env (sites "quarantine.*"): a full disk mid-quarantine is a
    // typed IoError, not a silently truncated evidence file.
    std::string joined;
    for (const std::string& line : report.quarantined_rows) {
      joined += line;
      joined += '\n';
    }
    OCDD_RETURN_IF_ERROR(IoWriteFileSynced(IoEnv::Get(), "quarantine",
                                           options.quarantine_path,
                                           joined.data(), joined.size()));
    report.quarantine_path = options.quarantine_path;
    report.quarantined_rows.clear();
  }

  if (std::size_t rows = filler->rows_to_replay(); rows > 0) {
    RecordScanner replay(text, options, start);
    bool header = options.has_header;
    while (rows > 0 && replay.Next(&rec)) {
      if (header) {
        header = false;
      } else if (accepted(rec)) {
        filler->Replay(rec.fields.data());
        --rows;
      }
    }
  }
  std::vector<Column> columns = filler->Finish();
  std::vector<Attribute> attrs(width);
  for (std::size_t c = 0; c < width; ++c) {
    attrs[c].name = std::move(names[c]);
    attrs[c].type = columns[c].type();
  }
  OCDD_ASSIGN_OR_RETURN(
      out.relation,
      Relation::FromColumns(Schema(std::move(attrs)), std::move(columns)));
  return out;
}

}  // namespace

Result<CsvRead> ReadCsvWithReport(const std::string& text,
                                  const CsvOptions& options) {
  prof::ScopedTimer timer(prof::Phase::kIngest);
  return ParseCsv(text, options);
}

Result<CsvRead> ReadCsvFileWithReport(const std::string& path,
                                      const CsvOptions& options) {
  prof::ScopedTimer timer(prof::Phase::kIngest);
  OCDD_ASSIGN_OR_RETURN(std::string text,
                        IoReadFileAll(IoEnv::Get(), "csv_read", path));
  return ParseCsv(text, options);
}

Result<Relation> ReadCsvString(const std::string& text,
                               const CsvOptions& options) {
  OCDD_ASSIGN_OR_RETURN(CsvRead read, ReadCsvWithReport(text, options));
  return std::move(read.relation);
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  OCDD_ASSIGN_OR_RETURN(CsvRead read, ReadCsvFileWithReport(path, options));
  return std::move(read.relation);
}

namespace {

bool NeedsQuoting(const std::string& s, char sep) {
  for (char c : s) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string& out, const std::string& s, char sep,
                 bool only_field) {
  // In a single-column relation an empty field would render as a blank
  // line, which the reader skips; quote it so the row survives round-trip.
  if (s.empty() && only_field) {
    out += "\"\"";
    return;
  }
  if (!NeedsQuoting(s, sep)) {
    out += s;
    return;
  }
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

std::string WriteCsvString(const Relation& relation, char separator) {
  std::string out;
  const Schema& schema = relation.schema();
  const bool single = schema.num_columns() == 1;
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out.push_back(separator);
    AppendField(out, schema.attribute(c).name, separator, single);
  }
  out.push_back('\n');
  for (std::size_t r = 0; r < relation.num_rows(); ++r) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out.push_back(separator);
      AppendField(out, relation.ValueAt(r, c).ToString(), separator, single);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Relation& relation, const std::string& path,
                    char separator) {
  const std::string text = WriteCsvString(relation, separator);
  return IoWriteFileSynced(IoEnv::Get(), "csv_write", path, text.data(),
                           text.size());
}

}  // namespace ocdd::rel
