#ifndef OCDD_REPORT_JSON_WRITER_H_
#define OCDD_REPORT_JSON_WRITER_H_

#include <string>

#include "algo/fastod/fastod.h"
#include "algo/fastod/fastod_bid.h"
#include "common/prof.h"
#include "common/string_util.h"
#include "algo/fd/tane.h"
#include "algo/order/order_discover.h"
#include "core/approximate.h"
#include "core/ocd_discover.h"
#include "relation/coded_relation.h"
#include "relation/csv.h"

namespace ocdd::report {

/// JSON serialization of discovery results, for downstream tooling
/// (dashboards, Metanome-style result stores, diffing between profiling
/// runs). The writer emits a stable, documented schema; attribute lists are
/// arrays of column *names* so the output is self-describing.
///
/// Escaping covers the JSON string escape set (quotes, backslash, control
/// characters); all numbers are emitted as plain decimal literals.

/// The JSON string escaper every writer in the tree shares.
using ocdd::JsonEscape;

/// An OCDDISCOVER run:
/// `{"algorithm":"ocddiscover","num_rows":..,"num_columns":..,
///   "completed":..,"stop_reason":"none"|"deadline"|"check_budget"|
///   "memory_budget"|"cancelled"|"fault_injected"|"level_cap",
///   "checks":..,"elapsed_seconds":..,
///   "reduction":{"constants":[..],"equivalence_classes":[[..],..]},
///   "ocds":[{"lhs":[..],"rhs":[..]},..],
///   "ods":[{"lhs":[..],"rhs":[..]},..]}`
std::string ToJson(const core::OcdDiscoverResult& result,
                   const rel::CodedRelation& relation);

/// A TANE run: `{"algorithm":"tane","fds":[{"lhs":[..],"rhs":".."},..],...}`.
std::string ToJson(const algo::TaneResult& result,
                   const rel::CodedRelation& relation);

/// An ORDER run: `{"algorithm":"order","ods":[...],...}`.
std::string ToJson(const algo::OrderDiscoverResult& result,
                   const rel::CodedRelation& relation);

/// A FASTOD run: canonical ODs as
/// `{"kind":"constancy"|"compatible","context":[..],"left":"..","right":".."}`.
std::string ToJson(const algo::FastodResult& result,
                   const rel::CodedRelation& relation);

/// A bidirectional FASTOD run; compatibility kinds are
/// `"concordant"` / `"anti_concordant"`.
std::string ToJson(const algo::FastodBidResult& result,
                   const rel::CodedRelation& relation);

/// Approximate pairwise OCDs:
/// `{"algorithm":"approx_ocd","pairs":[{"lhs":..,"rhs":..,"removals":..,
///   "ratio":..},..]}`.
std::string ToJson(const std::vector<core::ApproximateOcd>& pairs,
                   const rel::CodedRelation& relation);

/// Splices an `"ingest"` member — the untrusted-byte-boundary accounting of
/// the CSV read that produced the relation — into a top-level JSON report
/// object produced by one of the `ToJson` overloads:
/// `"ingest":{"records_total":..,"rows_ingested":..,"rows_rejected":..,
///   "rejected_by_code":{"ragged_row":..,...},"quarantine_path":".."}`
/// (`quarantine_path` only when rows were quarantined to a file). Returns
/// `report_json` unchanged if it is not a JSON object.
std::string WithIngest(std::string report_json,
                       const rel::CsvIngestReport& ingest);

/// Splices a `"profile"` member — the in-process profiler's per-phase
/// cycle/byte breakdown (see common/prof.h) — into a top-level JSON report
/// object: `"profile":{"cycles_per_second":..,"phases":[{"name":..,
/// "cycles":..,"seconds":..,"bytes":..,"calls":..},..],
/// "alloc":{"bytes":..,"calls":..}}`. Returns `report_json` unchanged if it
/// is not a JSON object or the report is empty.
std::string WithProfile(std::string report_json, const prof::Report& profile);

}  // namespace ocdd::report

#endif  // OCDD_REPORT_JSON_WRITER_H_
