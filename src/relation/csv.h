#ifndef OCDD_RELATION_CSV_H_
#define OCDD_RELATION_CSV_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/ingest_error.h"
#include "common/result.h"
#include "relation/relation.h"
#include "relation/type_inference.h"

namespace ocdd {
class RunContext;
}

namespace ocdd::rel {

/// What to do with a data record that fails to ingest (ragged width,
/// embedded NUL, oversized field, broken quoting):
///  * kFail       — abort the whole read with a structured IngestError
///                  naming the byte offset and row (the strict default);
///  * kSkip       — drop the record, count it per error code;
///  * kQuarantine — like kSkip, but additionally preserve the raw line
///                  (to CsvOptions::quarantine_path, or in memory when the
///                  path is empty) for later triage/repair.
/// A structurally bad *header* is always fatal — without it there is no
/// schema to ingest against.
enum class BadRowPolicy { kFail, kSkip, kQuarantine };

const char* BadRowPolicyName(BadRowPolicy policy);

/// Declared input limits, enforced *while scanning* — an adversarial input
/// is rejected (or its row quarantined) before the parser buffers more than
/// one limit's worth of bytes for it.
struct CsvLimits {
  /// Max bytes in one (unquoted-equivalent) field.
  std::size_t max_field_bytes = 1u << 20;
  /// Max raw bytes in one record, quotes and separators included.
  std::size_t max_record_bytes = 8u << 20;
  /// Max fields per record.
  std::size_t max_columns = 4096;
  /// Max data records (0 = unlimited). Exceeding this is always fatal —
  /// it signals the wrong input, not one mangled row.
  std::uint64_t max_rows = 0;
};

/// CSV parsing options (RFC-4180-style quoting, configurable separator).
struct CsvOptions {
  char separator = ',';
  /// When true the first record provides column names; otherwise columns are
  /// named "col0", "col1", ...
  bool has_header = true;
  TypeInferenceOptions type_inference;
  CsvLimits limits;
  BadRowPolicy on_bad_row = BadRowPolicy::kFail;
  /// Destination for quarantined raw rows (kQuarantine only). Empty keeps
  /// them in memory on the report — used by tests and the fuzzers.
  std::string quarantine_path;
  /// Optional: every rejected row under kSkip/kQuarantine is charged as one
  /// check against this context's budgets, so a supervised run cannot be
  /// ground down by an input that is mostly garbage. Not owned.
  RunContext* run_context = nullptr;
};

/// What happened at the untrusted-byte boundary during one read: exact
/// per-error-code rejection counts plus a few sample errors. Surfaced in
/// the CLI JSON reports (`"ingest"`) and `stop_state`.
struct CsvIngestReport {
  /// Data records seen (ingested + rejected); header not counted.
  std::uint64_t records_total = 0;
  std::uint64_t rows_ingested = 0;
  std::uint64_t rows_rejected = 0;
  IngestCounts rejected_by_code;
  /// First few structured errors, for reports and debugging.
  std::vector<IngestError> samples;
  /// Where quarantined rows were written (empty when none, or in-memory).
  std::string quarantine_path;
  /// In-memory quarantine sink, used when `CsvOptions::quarantine_path` is
  /// empty. Raw record bytes, terminators stripped.
  std::vector<std::string> quarantined_rows;

  bool clean() const { return rows_rejected == 0; }
};

/// A parsed relation plus the ingest accounting that produced it.
struct CsvRead {
  Relation relation;
  CsvIngestReport report;
};

/// Parses CSV text into a typed relation, applying `options.on_bad_row` to
/// records that fail to ingest.
///
/// Quoting: fields may be enclosed in double quotes; quoted fields may
/// contain the separator, newlines, and doubled quotes (`""` -> `"`).
/// Records may end in LF, CRLF, or a lone CR; a leading UTF-8 BOM is
/// stripped. Under kFail, the first bad record aborts the read with a
/// ParseError carrying the IngestError rendering (code, byte offset, row).
Result<CsvRead> ReadCsvWithReport(const std::string& text,
                                  const CsvOptions& options = {});

/// Reads and parses a CSV file from disk, with ingest accounting. The file
/// is read into one buffer through io_env (sites `csv_read.*`): a missing
/// file is NotFound, any other read failure (a directory, say) the typed
/// I/O error naming the path. Both readers charge the `ingest` profiler
/// phase.
Result<CsvRead> ReadCsvFileWithReport(const std::string& path,
                                      const CsvOptions& options = {});

/// Parses CSV text into a typed relation (report discarded).
Result<Relation> ReadCsvString(const std::string& text,
                               const CsvOptions& options = {});

/// Reads and parses a CSV file from disk.
Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// Serializes a relation as CSV (header + rows). Fields containing the
/// separator, quotes, or newlines are quoted; NULLs are written as empty
/// fields.
std::string WriteCsvString(const Relation& relation, char separator = ',');

/// Writes `relation` to `path`; returns an error if the file cannot be
/// created.
Status WriteCsvFile(const Relation& relation, const std::string& path,
                    char separator = ',');

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_CSV_H_
