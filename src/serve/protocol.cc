#include "serve/protocol.h"

#include <utility>

#include "common/snapshot.h"
#include "report/tasks.h"

namespace ocdd::serve {

namespace {

using report::JsonValue;

/// String fields cross the trust boundary into responses, logs, and worker
/// argv — reject embedded control bytes outright instead of escaping them.
bool HasControlBytes(const std::string& s) {
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) return true;
  }
  return false;
}

Status ValidateStringField(const char* name, const std::string& value,
                           std::size_t max_bytes) {
  if (value.size() > max_bytes) {
    return Status::InvalidArgument(std::string(name) + " exceeds " +
                                   std::to_string(max_bytes) + " bytes");
  }
  if (HasControlBytes(value)) {
    return Status::InvalidArgument(std::string(name) +
                                   " contains control bytes");
  }
  return Status::OK();
}

std::uint64_t Fnv1a(std::uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;  // field separator so {"a","b"} != {"ab",""}
  h *= 0x100000001b3ull;
  return h;
}

std::uint64_t Fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

const char* FrameErrorName(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kBadMagic:
      return "bad_magic";
    case FrameError::kOversized:
      return "oversized";
    case FrameError::kCrcMismatch:
      return "crc_mismatch";
  }
  return "unknown";
}

std::string EncodeFrame(const std::string& payload) {
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  std::string out = w.Take();
  out += payload;
  return out;
}

FrameDecoder::Event FrameDecoder::Next(std::string* payload,
                                       FrameError* error) {
  *error = dead_;
  if (dead_ != FrameError::kNone) return Event::kError;

  // Compact the buffer once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }

  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Event::kNeedMore;

  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  auto u32_at = [&](std::size_t off) {
    return static_cast<std::uint32_t>(p[off]) |
           (static_cast<std::uint32_t>(p[off + 1]) << 8) |
           (static_cast<std::uint32_t>(p[off + 2]) << 16) |
           (static_cast<std::uint32_t>(p[off + 3]) << 24);
  };
  // Header violations are checked against the *declared* length before any
  // payload byte is waited for — an adversarial 4 GiB length is rejected
  // from 12 bytes of input, never buffered.
  if (u32_at(0) != kFrameMagic) {
    dead_ = FrameError::kBadMagic;
    *error = dead_;
    return Event::kError;
  }
  const std::uint32_t len = u32_at(4);
  if (len > limits_.max_payload_bytes) {
    dead_ = FrameError::kOversized;
    *error = dead_;
    return Event::kError;
  }
  if (avail < kFrameHeaderBytes + len) return Event::kNeedMore;
  const std::uint32_t crc = u32_at(8);
  const char* body = buffer_.data() + consumed_ + kFrameHeaderBytes;
  if (Crc32(body, len) != crc) {
    dead_ = FrameError::kCrcMismatch;
    *error = dead_;
    return Event::kError;
  }
  payload->assign(body, len);
  consumed_ += kFrameHeaderBytes + len;
  return Event::kFrame;
}

Result<ServeRequest> ParseRequest(const std::string& payload,
                                  const RequestLimits& limits) {
  if (payload.size() > limits.max_source_bytes + limits.max_tenant_bytes +
                           limits.max_id_bytes + 4096) {
    return Status::InvalidArgument("request payload implausibly large");
  }
  OCDD_ASSIGN_OR_RETURN(JsonValue doc, report::ParseJson(payload));
  if (doc.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request is not a JSON object");
  }

  ServeRequest req;
  if (!doc["kind"].is_null()) req.kind = doc["kind"].string_value();
  if (req.kind != "run" && req.kind != "apply_batch" && req.kind != "ping" &&
      req.kind != "stats") {
    return Status::InvalidArgument("unknown request kind '" + req.kind + "'");
  }
  req.id = doc["id"].string_value();
  OCDD_RETURN_IF_ERROR(ValidateStringField("id", req.id, limits.max_id_bytes));
  if (!doc["tenant"].is_null()) req.tenant = doc["tenant"].string_value();
  OCDD_RETURN_IF_ERROR(
      ValidateStringField("tenant", req.tenant, limits.max_tenant_bytes));
  if (req.tenant.empty()) {
    return Status::InvalidArgument("tenant must be non-empty");
  }
  if (req.kind != "run" && req.kind != "apply_batch") return req;

  const report::Task* task = nullptr;
  if (req.kind == "run") {
    if (!doc["algo"].is_null()) req.algo = doc["algo"].string_value();
    task = report::FindRunnableTask(req.algo);
    if (task == nullptr) {
      return Status::InvalidArgument("unknown algo '" + req.algo + "' (" +
                                     report::RunnableTaskNames(", ") + ")");
    }
  }
  req.source = doc["source"].string_value();
  OCDD_RETURN_IF_ERROR(
      ValidateStringField("source", req.source, limits.max_source_bytes));
  if (req.kind == "run" && req.source.empty()) {
    return Status::InvalidArgument("run request needs a source");
  }

  auto size_field = [&doc](const char* name, std::size_t dflt,
                           std::size_t max, std::size_t* out) {
    const JsonValue& v = doc[name];
    if (v.is_null()) {
      *out = dflt;
      return Status::OK();
    }
    double d = v.number_value();
    if (d < 0 || d > static_cast<double>(max)) {
      return Status::InvalidArgument(std::string(name) + " out of range");
    }
    *out = static_cast<std::size_t>(d);
    return Status::OK();
  };
  OCDD_RETURN_IF_ERROR(size_field("rows", 0, limits.max_rows, &req.rows));
  // Numbers travel as doubles: a seed from 2^53 on could arrive rounded.
  OCDD_RETURN_IF_ERROR(size_field("seed", 42, (std::size_t{1} << 53) - 1,
                                  &req.seed));
  OCDD_RETURN_IF_ERROR(
      size_field("max_level", 0, limits.max_level, &req.max_level));
  // A parameter the task ignores would only split its cache line.
  if (task != nullptr && req.max_level != 0 && !task->Reads("max-level")) {
    return Status::InvalidArgument("algo '" + req.algo +
                                   "' does not read max_level");
  }
  if (!doc["use_cache"].is_null()) {
    req.use_cache = doc["use_cache"].bool_value();
  }

  if (req.kind == "apply_batch") {
    req.batch = doc["batch"].string_value();
    OCDD_RETURN_IF_ERROR(
        ValidateStringField("batch", req.batch, limits.max_source_bytes));
    req.state = doc["state"].string_value();
    OCDD_RETURN_IF_ERROR(
        ValidateStringField("state", req.state, limits.max_state_bytes));
    // The state name becomes a directory component under the daemon's
    // checkpoint root: reject anything that could traverse or hide.
    if (req.state.empty()) {
      return Status::InvalidArgument("apply_batch request needs a state name");
    }
    if (req.state[0] == '.') {
      return Status::InvalidArgument("state must not start with '.'");
    }
    for (char c : req.state) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      if (!ok) {
        return Status::InvalidArgument(
            "state may only contain [A-Za-z0-9._-]");
      }
    }
  }
  return req;
}

std::string SerializeRequest(const ServeRequest& request) {
  std::map<std::string, JsonValue> m;
  m["kind"] = JsonValue::String(request.kind);
  if (!request.id.empty()) m["id"] = JsonValue::String(request.id);
  m["tenant"] = JsonValue::String(request.tenant);
  if (request.kind == "run" || request.kind == "apply_batch") {
    if (request.kind == "run") {
      m["algo"] = JsonValue::String(request.algo);
      m["use_cache"] = JsonValue::Bool(request.use_cache);
    } else {
      if (!request.batch.empty()) {
        m["batch"] = JsonValue::String(request.batch);
      }
      m["state"] = JsonValue::String(request.state);
    }
    if (!request.source.empty() || request.kind == "run") {
      m["source"] = JsonValue::String(request.source);
    }
    if (request.rows != 0) {
      m["rows"] = JsonValue::Number(static_cast<double>(request.rows));
    }
    m["seed"] = JsonValue::Number(static_cast<double>(request.seed));
    if (request.max_level != 0) {
      m["max_level"] =
          JsonValue::Number(static_cast<double>(request.max_level));
    }
  }
  return report::SerializeJson(JsonValue::Object(std::move(m)));
}

std::string SerializeResponse(const ServeResponse& response) {
  std::map<std::string, JsonValue> m;
  if (!response.id.empty()) m["id"] = JsonValue::String(response.id);
  m["status"] = JsonValue::String(response.status);
  if (!response.reject_reason.empty()) {
    m["reject_reason"] = JsonValue::String(response.reject_reason);
  }
  if (!response.error.empty()) m["error"] = JsonValue::String(response.error);
  m["attempts"] = JsonValue::Number(response.attempts);
  m["cache"] = JsonValue::String(response.cache);
  if (response.disk_degraded) m["disk_degraded"] = JsonValue::Bool(true);
  if (response.have_report) m["report"] = response.report;
  return report::SerializeJson(JsonValue::Object(std::move(m)));
}

Result<ServeResponse> ParseResponse(const std::string& payload) {
  OCDD_ASSIGN_OR_RETURN(JsonValue doc, report::ParseJson(payload));
  if (doc.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("response is not a JSON object");
  }
  ServeResponse resp;
  resp.id = doc["id"].string_value();
  resp.status = doc["status"].string_value();
  if (resp.status != "ok" && resp.status != "rejected" &&
      resp.status != "timeout" && resp.status != "error") {
    return Status::InvalidArgument("unknown response status '" + resp.status +
                                   "'");
  }
  resp.reject_reason = doc["reject_reason"].string_value();
  resp.error = doc["error"].string_value();
  resp.attempts = static_cast<int>(doc["attempts"].number_value());
  resp.cache = doc["cache"].string_value();
  resp.disk_degraded = doc["disk_degraded"].bool_value();
  const JsonValue& report = doc["report"];
  if (!report.is_null()) {
    resp.have_report = true;
    resp.report = report;
  }
  return resp;
}

std::uint64_t RequestDigest(const ServeRequest& request) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv1a(h, request.algo);
  h = Fnv1a(h, request.source);
  h = Fnv1a(h, static_cast<std::uint64_t>(request.rows));
  h = Fnv1a(h, static_cast<std::uint64_t>(request.seed));
  h = Fnv1a(h, static_cast<std::uint64_t>(request.max_level));
  return h;
}

}  // namespace ocdd::serve
