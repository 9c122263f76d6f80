#include "report/json_writer.h"

#include <cstdio>

namespace ocdd::report {

namespace {

using od::AttributeList;
using rel::CodedRelation;

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void AppendName(std::string& out, const CodedRelation& r,
                rel::ColumnId col) {
  out += '"';
  out += JsonEscape(r.column_name(col));
  out += '"';
}

void AppendNameArray(std::string& out, const CodedRelation& r,
                     const std::vector<rel::ColumnId>& cols) {
  out += '[';
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ',';
    AppendName(out, r, cols[i]);
  }
  out += ']';
}

void AppendList(std::string& out, const CodedRelation& r,
                const AttributeList& list) {
  AppendNameArray(out, r, list.ids());
}

void AppendPair(std::string& out, const CodedRelation& r,
                const AttributeList& lhs, const AttributeList& rhs) {
  out += "{\"lhs\":";
  AppendList(out, r, lhs);
  out += ",\"rhs\":";
  AppendList(out, r, rhs);
  out += '}';
}

void AppendHeader(std::string& out, const char* algorithm,
                  const CodedRelation& r, bool completed,
                  StopReason stop_reason, std::uint64_t checks,
                  double elapsed, const StopState* stop_state = nullptr,
                  const CheckpointStats* checkpoint = nullptr) {
  out += "{\"algorithm\":\"";
  out += algorithm;
  out += "\",\"num_rows\":";
  out += std::to_string(r.num_rows());
  out += ",\"num_columns\":";
  out += std::to_string(r.num_columns());
  out += ",\"completed\":";
  out += completed ? "true" : "false";
  out += ",\"stop_reason\":\"";
  out += StopReasonName(stop_reason);
  out += "\",\"checks\":";
  out += std::to_string(checks);
  out += ",\"elapsed_seconds\":";
  AppendDouble(out, elapsed);
  if (stop_state != nullptr) {
    // Where the run stopped — drives `ocdd supervise`'s restart-vs-give-up
    // decision and post-mortem triage of budget-stopped runs.
    out += ",\"stop_state\":{\"checks\":";
    out += std::to_string(stop_state->checks);
    out += ",\"level\":";
    out += std::to_string(stop_state->level);
    out += ",\"frontier_size\":";
    out += std::to_string(stop_state->frontier_size);
    out += ",\"ingest_rejected\":";
    out += std::to_string(stop_state->ingest_rejected);
    out += '}';
  }
  if (checkpoint != nullptr && checkpoint->enabled) {
    out += ",\"checkpoint\":{\"resumed\":";
    out += checkpoint->resumed ? "true" : "false";
    out += ",\"resumed_generation\":";
    out += std::to_string(checkpoint->resumed_generation);
    out += ",\"snapshots_written\":";
    out += std::to_string(checkpoint->snapshots_written);
    out += ",\"corrupt_skipped\":";
    out += std::to_string(checkpoint->corrupt_skipped);
    out += ",\"warning\":\"";
    out += JsonEscape(checkpoint->warning);
    out += "\"}";
  }
}

}  // namespace

std::string ToJson(const core::OcdDiscoverResult& result,
                   const CodedRelation& relation) {
  std::string out;
  AppendHeader(out, "ocddiscover", relation, result.completed,
               result.stop_reason, result.num_checks,
               result.elapsed_seconds, &result.stop_state,
               &result.checkpoint_stats);
  out += ",\"reduction\":{\"constants\":";
  AppendNameArray(out, relation, result.reduction.constant_columns);
  out += ",\"equivalence_classes\":[";
  for (std::size_t i = 0; i < result.reduction.equivalence_classes.size();
       ++i) {
    if (i > 0) out += ',';
    AppendNameArray(out, relation, result.reduction.equivalence_classes[i]);
  }
  out += "]},\"ocds\":[";
  for (std::size_t i = 0; i < result.ocds.size(); ++i) {
    if (i > 0) out += ',';
    AppendPair(out, relation, result.ocds[i].lhs, result.ocds[i].rhs);
  }
  out += "],\"ods\":[";
  for (std::size_t i = 0; i < result.ods.size(); ++i) {
    if (i > 0) out += ',';
    AppendPair(out, relation, result.ods[i].lhs, result.ods[i].rhs);
  }
  out += "]}";
  return out;
}

std::string ToJson(const algo::TaneResult& result,
                   const CodedRelation& relation) {
  std::string out;
  AppendHeader(out, "tane", relation, result.completed,
               result.stop_reason, result.num_checks,
               result.elapsed_seconds, &result.stop_state,
               &result.checkpoint_stats);
  out += ",\"fds\":[";
  for (std::size_t i = 0; i < result.fds.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"lhs\":";
    AppendNameArray(out, relation, result.fds[i].lhs);
    out += ",\"rhs\":";
    AppendName(out, relation, result.fds[i].rhs);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ToJson(const algo::OrderDiscoverResult& result,
                   const CodedRelation& relation) {
  std::string out;
  AppendHeader(out, "order", relation, result.completed,
               result.stop_reason, result.num_checks,
               result.elapsed_seconds, &result.stop_state);
  out += ",\"ods\":[";
  for (std::size_t i = 0; i < result.ods.size(); ++i) {
    if (i > 0) out += ',';
    AppendPair(out, relation, result.ods[i].lhs, result.ods[i].rhs);
  }
  out += "]}";
  return out;
}

std::string ToJson(const algo::FastodResult& result,
                   const CodedRelation& relation) {
  std::string out;
  AppendHeader(out, "fastod", relation, result.completed,
               result.stop_reason, result.num_checks,
               result.elapsed_seconds, &result.stop_state,
               &result.checkpoint_stats);
  out += ",\"canonical_ods\":[";
  for (std::size_t i = 0; i < result.ods.size(); ++i) {
    const od::CanonicalOd& od = result.ods[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"";
    out += od.kind == od::CanonicalOd::Kind::kConstancy ? "constancy"
                                                        : "compatible";
    out += "\",\"context\":";
    AppendNameArray(out, relation, od.context);
    if (od.kind == od::CanonicalOd::Kind::kOrderCompatible) {
      out += ",\"left\":";
      AppendName(out, relation, od.left);
    }
    out += ",\"right\":";
    AppendName(out, relation, od.right);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string ToJson(const algo::FastodBidResult& result,
                   const CodedRelation& relation) {
  std::string out;
  AppendHeader(out, "fastod_bid", relation, result.completed,
               result.stop_reason, result.num_checks,
               result.elapsed_seconds);
  out += ",\"canonical_ods\":[";
  for (std::size_t i = 0; i < result.ods.size(); ++i) {
    const algo::BidCanonicalOd& od = result.ods[i];
    if (i > 0) out += ',';
    out += "{\"kind\":\"";
    switch (od.kind) {
      case algo::BidCanonicalOd::Kind::kConstancy:
        out += "constancy";
        break;
      case algo::BidCanonicalOd::Kind::kConcordant:
        out += "concordant";
        break;
      case algo::BidCanonicalOd::Kind::kAntiConcordant:
        out += "anti_concordant";
        break;
    }
    out += "\",\"context\":";
    AppendNameArray(out, relation, od.context);
    if (od.kind != algo::BidCanonicalOd::Kind::kConstancy) {
      out += ",\"left\":";
      AppendName(out, relation, od.left);
    }
    out += ",\"right\":";
    AppendName(out, relation, od.right);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string WithIngest(std::string report_json,
                       const rel::CsvIngestReport& ingest) {
  std::size_t brace = report_json.rfind('}');
  if (brace == std::string::npos) return report_json;
  std::string member = ",\"ingest\":{\"records_total\":";
  member += std::to_string(ingest.records_total);
  member += ",\"rows_ingested\":";
  member += std::to_string(ingest.rows_ingested);
  member += ",\"rows_rejected\":";
  member += std::to_string(ingest.rows_rejected);
  member += ",\"rejected_by_code\":{";
  bool first = true;
  for (const auto& [code, count] : ingest.rejected_by_code.by_code()) {
    if (!first) member += ',';
    first = false;
    member += '"';
    member += JsonEscape(code);
    member += "\":";
    member += std::to_string(count);
  }
  member += '}';
  if (!ingest.quarantine_path.empty()) {
    member += ",\"quarantine_path\":\"";
    member += JsonEscape(ingest.quarantine_path);
    member += '"';
  }
  member += '}';
  report_json.insert(brace, member);
  return report_json;
}

std::string WithProfile(std::string report_json, const prof::Report& profile) {
  if (profile.empty()) return report_json;
  std::size_t brace = report_json.rfind('}');
  if (brace == std::string::npos) return report_json;
  std::string member = ",\"profile\":";
  member += prof::ToJson(profile);
  report_json.insert(brace, member);
  return report_json;
}

std::string ToJson(const std::vector<core::ApproximateOcd>& pairs,
                   const CodedRelation& relation) {
  std::string out = "{\"algorithm\":\"approx_ocd\",\"pairs\":[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"lhs\":";
    AppendList(out, relation, pairs[i].ocd.lhs);
    out += ",\"rhs\":";
    AppendList(out, relation, pairs[i].ocd.rhs);
    out += ",\"removals\":";
    out += std::to_string(pairs[i].error.removals);
    out += ",\"ratio\":";
    AppendDouble(out, pairs[i].error.ratio);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace ocdd::report
