#include "fuzz/targets.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/snapshot.h"
#include "fuzz/fuzz_input.h"
#include "qa/claim_parser.h"
#include "qa/claims.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_reader.h"
#include "serve/protocol.h"

namespace ocdd::fuzz {

namespace {

/// Invariant check that crashes loudly (not an assert: it must fire in
/// Release builds, which is what both fuzzers and fuzz-lite run).
void Check(bool cond, const char* what) {
  if (cond) return;
  std::fprintf(stderr, "fuzz target invariant violated: %s\n", what);
  std::abort();
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// `relation` as CSV with every field quoted, header included.
std::string QuoteEveryField(const rel::Relation& relation) {
  std::string out;
  auto append = [&out](std::size_t c, const std::string& field) {
    if (c > 0) out.push_back(',');
    out.push_back('"');
    for (char ch : field) {
      if (ch == '"') out.push_back('"');
      out.push_back(ch);
    }
    out.push_back('"');
  };
  const rel::Schema& schema = relation.schema();
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    append(c, schema.attribute(c).name);
  }
  out.push_back('\n');
  for (std::size_t r = 0; r < relation.num_rows(); ++r) {
    for (std::size_t c = 0; c < schema.num_columns(); ++c) {
      append(c, relation.ValueAt(r, c).ToString());
    }
    out.push_back('\n');
  }
  return out;
}

/// Same names, types, rows and cells.
bool SameRelation(const rel::Relation& a, const rel::Relation& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (std::size_t c = 0; c < a.num_columns(); ++c) {
    const rel::Attribute& x = a.schema().attribute(c);
    const rel::Attribute& y = b.schema().attribute(c);
    if (x.name != y.name || x.type != y.type) return false;
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      if (!(a.ValueAt(r, c) == b.ValueAt(r, c))) return false;
    }
  }
  return true;
}

}  // namespace

int RunCsvTarget(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  rel::CsvOptions opts;
  switch (in.TakeChoice(3)) {
    case 0:
      opts.on_bad_row = rel::BadRowPolicy::kFail;
      break;
    case 1:
      opts.on_bad_row = rel::BadRowPolicy::kSkip;
      break;
    default:
      opts.on_bad_row = rel::BadRowPolicy::kQuarantine;
      break;
  }
  opts.has_header = in.TakeBool();
  opts.separator = in.TakeBool() ? ';' : ',';
  if (in.TakeBool()) {
    // Tight limits so the limit-rejection paths get fuzzed too.
    opts.limits.max_field_bytes = 16;
    opts.limits.max_record_bytes = 64;
    opts.limits.max_columns = 4;
  }
  const std::string text = in.TakeRest();

  auto read = rel::ReadCsvWithReport(text, opts);
  if (!read.ok()) return 0;
  const rel::CsvIngestReport& report = read->report;
  Check(report.rows_ingested == read->relation.num_rows(),
        "csv: ingested row count != relation rows");
  Check(report.records_total == report.rows_ingested + report.rows_rejected,
        "csv: records_total != ingested + rejected");
  Check(report.rejected_by_code.total() == report.rows_rejected,
        "csv: per-code counts don't sum to rows_rejected");
  if (opts.on_bad_row == rel::BadRowPolicy::kFail) {
    Check(report.clean(), "csv: kFail accepted input with rejections");
  }
  if (opts.on_bad_row == rel::BadRowPolicy::kQuarantine) {
    Check(report.quarantined_rows.size() == report.rows_rejected,
          "csv: quarantined rows != rows_rejected");
  }
  // Whatever was accepted must survive a write/read round-trip.
  auto again = rel::ReadCsvString(rel::WriteCsvString(read->relation));
  Check(again.ok(), "csv: accepted relation fails to re-read");
  Check(again->num_rows() == read->relation.num_rows(),
        "csv: round-trip changed the row count");
  // Quoting every field sends each line through the byte-wise scanner; it
  // must read the fields the line path reads.
  auto quoted = rel::ReadCsvString(QuoteEveryField(read->relation));
  Check(quoted.ok(), "csv: quoted rendering fails to re-read");
  Check(SameRelation(*again, *quoted),
        "csv: quoted rendering reads to another relation");
  return 0;
}

int RunSnapshotTarget(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  auto view = SnapshotView::Decode(bytes);
  if (view.ok()) {
    // Anything Decode accepts must re-encode and decode to the same
    // sections.
    SnapshotBuilder b;
    for (const std::string& name : view->SectionNames()) {
      b.AddSection(name, *view->Find(name));
    }
    auto again = SnapshotView::Decode(b.Encode());
    Check(again.ok(), "snapshot: re-encoded image fails to decode");
    Check(again->SectionNames() == view->SectionNames(),
          "snapshot: round-trip changed the section set");
  }
  // Sweep the primitive codec too: interleaved reads over raw bytes must
  // never run past the buffer, whatever the embedded length prefixes claim.
  ByteReader r(bytes);
  FuzzInput plan(data, size);
  for (int i = 0; i < 16 && r.ok(); ++i) {
    switch (plan.TakeChoice(6)) {
      case 0:
        r.U8();
        break;
      case 1:
        r.U32();
        break;
      case 2:
        r.U64();
        break;
      case 3:
        Check(r.Str().size() <= bytes.size(), "bytereader: oversized string");
        break;
      case 4:
        Check(r.U32Vec().size() * 4 <= bytes.size(),
              "bytereader: oversized vector");
        break;
      default:
        r.Bytes(plan.TakeByte());
        break;
    }
    Check(r.pos() <= bytes.size(), "bytereader: position ran past the end");
  }
  return 0;
}

int RunJsonReportTarget(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto value = report::ParseJson(text);
  if (!value.ok()) return 0;
  // Canonical serialization must be a fixed point.
  const std::string canonical = report::SerializeJson(*value);
  auto again = report::ParseJson(canonical);
  Check(again.ok(), "json: canonical form fails to re-parse");
  Check(report::SerializeJson(*again) == canonical,
        "json: canonical serialization is not a fixed point");
  // Diffing a document against itself reports no changes (or a structured
  // error for non-report shapes — never a crash).
  auto diff = report::DiffReports(*value, *value);
  if (diff.ok()) {
    Check(diff->empty(), "json: self-diff reported differences");
  }
  return 0;
}

int RunServeFrameTarget(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  serve::FrameLimits limits;
  if (in.TakeBool()) limits.max_payload_bytes = 64;  // exercise kOversized
  const std::size_t chunk = in.TakeByte() + 1;
  const std::string stream = in.TakeRest();

  // Decode the same byte stream twice — whole-buffer and in small chunks.
  // The framing must be oblivious to read() boundaries: same frames, same
  // typed error, in the same order.
  std::vector<std::string> whole_frames;
  serve::FrameError whole_error = serve::FrameError::kNone;
  {
    serve::FrameDecoder dec(limits);
    dec.Feed(stream);
    std::string payload;
    serve::FrameError err;
    for (;;) {
      auto ev = dec.Next(&payload, &err);
      if (ev == serve::FrameDecoder::Event::kFrame) {
        whole_frames.push_back(payload);
        continue;
      }
      if (ev == serve::FrameDecoder::Event::kError) whole_error = err;
      break;
    }
  }
  {
    serve::FrameDecoder dec(limits);
    std::vector<std::string> frames;
    serve::FrameError error = serve::FrameError::kNone;
    std::string payload;
    serve::FrameError err;
    std::size_t off = 0;
    bool dead = false;
    while (off < stream.size() && !dead) {
      std::size_t n = std::min(chunk, stream.size() - off);
      dec.Feed(stream.data() + off, n);
      off += n;
      for (;;) {
        auto ev = dec.Next(&payload, &err);
        if (ev == serve::FrameDecoder::Event::kFrame) {
          frames.push_back(payload);
          continue;
        }
        if (ev == serve::FrameDecoder::Event::kError) {
          error = err;
          dead = true;
        }
        break;
      }
    }
    Check(frames == whole_frames, "serve: chunked decode frames differ");
    Check(error == whole_error, "serve: chunked decode error differs");
  }

  // Whatever framed is an untrusted payload: parse it both ways. Accepted
  // requests/responses must round-trip through the canonical serialization.
  for (const std::string& payload : whole_frames) {
    auto request = serve::ParseRequest(payload);
    if (request.ok()) {
      const std::string canonical = serve::SerializeRequest(*request);
      auto again = serve::ParseRequest(canonical);
      Check(again.ok(), "serve: canonical request fails to re-parse");
      Check(serve::SerializeRequest(*again) == canonical,
            "serve: request serialization is not a fixed point");
      Check(serve::RequestDigest(*again) == serve::RequestDigest(*request),
            "serve: request digest unstable across round-trip");
    }
    auto response = serve::ParseResponse(payload);
    if (response.ok()) {
      const std::string canonical = serve::SerializeResponse(*response);
      auto again = serve::ParseResponse(canonical);
      Check(again.ok(), "serve: canonical response fails to re-parse");
      Check(serve::SerializeResponse(*again) == canonical,
            "serve: response serialization is not a fixed point");
    }
  }

  // Encode of any byte string must decode back to exactly that payload.
  const std::string reframed = serve::EncodeFrame(stream.substr(
      0, std::min<std::size_t>(stream.size(), limits.max_payload_bytes)));
  serve::FrameDecoder dec(limits);
  dec.Feed(reframed);
  std::string payload;
  serve::FrameError err;
  Check(dec.Next(&payload, &err) == serve::FrameDecoder::Event::kFrame,
        "serve: EncodeFrame output fails to decode");
  Check(payload.size() <= limits.max_payload_bytes,
        "serve: decoded payload exceeds the limit");
  return 0;
}

int RunBatchTarget(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);

  rel::BatchParseOptions opts;
  switch (in.TakeChoice(3)) {
    case 0:
      opts.on_bad_row = rel::BadRowPolicy::kFail;
      break;
    case 1:
      opts.on_bad_row = rel::BadRowPolicy::kSkip;
      break;
    default:
      opts.on_bad_row = rel::BadRowPolicy::kQuarantine;
      break;
  }
  if (in.TakeBool()) {
    // Tight limits so the limit-rejection paths get fuzzed too.
    opts.limits.max_line_bytes = 24;
    opts.limits.max_ops = 8;
  }

  // A fuzz-chosen target schema: typed cell parsing differs per column
  // type, so sweep homogeneous and mixed shapes.
  rel::Schema schema;
  switch (in.TakeChoice(3)) {
    case 0:
      schema.AddAttribute({"a", rel::DataType::kInt});
      schema.AddAttribute({"b", rel::DataType::kInt});
      schema.AddAttribute({"c", rel::DataType::kInt});
      break;
    case 1:
      schema.AddAttribute({"i", rel::DataType::kInt});
      schema.AddAttribute({"d", rel::DataType::kDouble});
      schema.AddAttribute({"s", rel::DataType::kString});
      break;
    default:
      schema.AddAttribute({"s", rel::DataType::kString});
      break;
  }
  const std::string text = in.TakeRest();

  auto parsed = rel::ParseBatchText(text, schema, opts);
  if (!parsed.ok()) return 0;
  const rel::BatchIngestReport& report = parsed->report;
  const rel::RowBatch& batch = parsed->batch;

  Check(report.records_total == report.ops_parsed + report.rows_rejected,
        "batch: records_total != parsed + rejected");
  Check(report.rejected_by_code.total() == report.rows_rejected,
        "batch: per-code counts don't sum to rows_rejected");
  if (opts.on_bad_row == rel::BadRowPolicy::kFail) {
    Check(report.clean(), "batch: kFail accepted input with rejections");
  }
  if (opts.on_bad_row == rel::BadRowPolicy::kQuarantine) {
    Check(report.quarantined_rows.size() == report.rows_rejected,
          "batch: quarantined rows != rows_rejected");
  }
  // Duplicate delete lines collapse, so num_ops may undershoot ops_parsed
  // but never exceed it.
  Check(batch.num_ops() <= report.ops_parsed,
        "batch: more ops than parsed lines");
  Check(std::is_sorted(batch.deletes.begin(), batch.deletes.end()),
        "batch: deletes not sorted");
  Check(std::adjacent_find(batch.deletes.begin(), batch.deletes.end()) ==
            batch.deletes.end(),
        "batch: duplicate delete indices survived parsing");
  for (const auto& row : batch.appends) {
    Check(row.size() == schema.num_columns(),
          "batch: append row width != schema width");
  }

  // Whatever parsed must survive a write/parse round-trip, and the
  // canonical rendering must be a fixed point.
  const std::string canonical = rel::WriteBatchText(batch, schema);
  auto again = rel::ParseBatchText(canonical, schema);
  Check(again.ok(), "batch: canonical rendering fails to re-parse");
  Check(again->report.clean(), "batch: canonical rendering has rejections");
  Check(rel::WriteBatchText(again->batch, schema) == canonical,
        "batch: write/parse is not a fixed point");

  // Apply against a small relation of the schema: out-of-range deletes are
  // typed errors, accepted applications obey the row-count identity.
  rel::Relation::Builder builder(schema);
  std::vector<rel::Value> row;
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    switch (schema.attribute(c).type) {
      case rel::DataType::kInt:
        row.push_back(rel::Value::Int(static_cast<std::int64_t>(c)));
        break;
      case rel::DataType::kDouble:
        row.push_back(rel::Value::Double(0.5));
        break;
      case rel::DataType::kString:
        row.push_back(rel::Value::String("x"));
        break;
    }
  }
  for (int r = 0; r < 3; ++r) (void)builder.AddRow(row);
  rel::Relation base = std::move(builder).Build();
  auto applied = rel::ApplyBatch(base, batch);
  if (applied.ok()) {
    Check(applied->num_rows() ==
              base.num_rows() - batch.deletes.size() + batch.appends.size(),
          "batch: applied row count breaks the delete/append identity");
  }
  return 0;
}

int RunClaimsTarget(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto claims = qa::ParseClaimLines(text);
  if (!claims.ok()) return 0;
  // Render() of a parsed set must re-parse to the same rendering.
  const std::string rendered = Join(claims->Render());
  auto again = qa::ParseClaimLines(rendered);
  Check(again.ok(), "claims: rendered claims fail to re-parse");
  Check(Join(again->Render()) == rendered,
        "claims: render/parse is not a fixed point");
  return 0;
}

}  // namespace ocdd::fuzz
