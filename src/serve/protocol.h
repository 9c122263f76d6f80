#ifndef OCDD_SERVE_PROTOCOL_H_
#define OCDD_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "report/json_reader.h"

namespace ocdd::serve {

/// Wire protocol of the `ocdd serve` daemon (docs/serving.md).
///
/// A connection carries exactly one request frame and one response frame
/// over a Unix-domain stream socket. A frame is a fixed 12-byte header —
/// magic, payload length, payload CRC32, all little-endian u32 — followed by
/// the payload bytes:
///
///   +--------+--------+--------+----------------+
///   | magic  | length | crc32  | payload ...    |
///   +--------+--------+--------+----------------+
///
/// Payloads are JSON documents (the same hardened parser that reads reports
/// back, src/report/json_reader.h). Everything arriving over the socket is
/// untrusted bytes: lengths are bounded *before* allocation, the CRC is
/// validated before the payload is parsed, and any header violation is a
/// typed `FrameError` — the daemon never crashes on a torn or malicious
/// frame, it answers with a typed reject and closes (the PR 4 ingest
/// contract, extended to the serving boundary).

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The bytes "OCD1" on the wire; the trailing digit is the protocol version
/// (a breaking change bumps it).
inline constexpr std::uint32_t kFrameMagic = 0x3144'434Fu;

/// Header bytes on the wire: magic + length + crc.
inline constexpr std::size_t kFrameHeaderBytes = 12;

struct FrameLimits {
  /// Hard payload bound; an honest request is a few hundred bytes, an honest
  /// response a few MiB of report JSON.
  std::size_t max_payload_bytes = 8u << 20;
};

/// Typed framing violations — the serving layer's reject vocabulary.
enum class FrameError {
  kNone = 0,
  kBadMagic,      ///< header does not start with kFrameMagic
  kOversized,     ///< declared length exceeds FrameLimits
  kCrcMismatch,   ///< payload bytes do not match the header CRC (torn/flipped)
};

const char* FrameErrorName(FrameError error);

/// Encodes `payload` into one wire frame.
std::string EncodeFrame(const std::string& payload);

/// Incremental frame decoder: feed bytes as they arrive, pull frames as they
/// complete. After the first error the stream is unrecoverable (length
/// framing is lost) and every further `Next` reports the same error.
class FrameDecoder {
 public:
  explicit FrameDecoder(FrameLimits limits = {}) : limits_(limits) {}

  void Feed(const char* data, std::size_t size) {
    buffer_.append(data, size);
  }
  void Feed(const std::string& bytes) { buffer_.append(bytes); }

  enum class Event {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< `*payload` holds the next payload
    kError,     ///< `*error` holds the violation; the stream is dead
  };

  /// Extracts the next complete frame from the buffer.
  Event Next(std::string* payload, FrameError* error);

  /// Bytes buffered but not yet consumed.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  FrameLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;
  FrameError dead_ = FrameError::kNone;
};

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Declared bounds on a parsed request — the payload is untrusted even after
/// it frames and parses as JSON.
struct RequestLimits {
  std::size_t max_tenant_bytes = 64;
  std::size_t max_source_bytes = 4096;
  std::size_t max_id_bytes = 128;
  std::size_t max_rows = 100'000'000;
  std::size_t max_level = 64;
  /// Warm-state names become a directory component under the daemon's
  /// checkpoint root, so they are tightly constrained (see ParseRequest).
  std::size_t max_state_bytes = 64;
};

/// One client request. `kind` "run" executes a discovery; "apply_batch"
/// applies one incremental maintenance step to a named warm state
/// (docs/incremental.md); "ping" and "stats" are control probes answered
/// inline by the acceptor.
struct ServeRequest {
  std::string kind = "run";
  /// Correlation id, echoed verbatim in the response.
  std::string id;
  std::string tenant = "default";
  /// A task `ocdd run --algo` accepts (report::FindRunnableTask).
  /// Ignored by "apply_batch" (always OCDDISCOVER maintenance).
  std::string algo = "discover";
  /// Dataset name or CSV path, as for `ocdd run`. For "apply_batch" this is
  /// the *base* source, consulted only when the warm state needs a
  /// from-scratch bootstrap (empty = state must already exist).
  std::string source;
  std::size_t rows = 0;
  std::size_t seed = 42;
  std::size_t max_level = 0;
  /// Opt out of the result cache for this request. "apply_batch" is never
  /// cached (it mutates state — replaying a cached answer would lie).
  bool use_cache = true;

  /// "apply_batch" only: path to the batch file (the `ocdd-batch 1` wire
  /// format), empty = bootstrap/validate the state without applying.
  std::string batch;
  /// "apply_batch" only: warm-state name, scoped per tenant under the
  /// daemon's checkpoint root. Restricted to [A-Za-z0-9._-], no leading
  /// dot — it becomes a filesystem path component.
  std::string state;
};

/// Parses and validates an untrusted request payload. Unknown members are
/// ignored (forward compatibility); violations of `limits`, a bad `kind`,
/// a bad `algo`, a `max_level` the algo does not read, a seed a double
/// cannot hold exactly, or control characters in string fields are
/// InvalidArgument.
Result<ServeRequest> ParseRequest(const std::string& payload,
                                  const RequestLimits& limits = {});

/// Canonical JSON rendering (sorted keys); ParseRequest round-trips it.
std::string SerializeRequest(const ServeRequest& request);

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Response status vocabulary. Every admitted request terminates in exactly
/// one of these; `rejected` carries a `reject_reason` from the admission
/// vocabulary (docs/serving.md lists the full state machine).
///   ok       — a worker produced a report (possibly a partial one with
///              `completed: false`; a truncated answer is still an answer)
///   rejected — admission refused the request; nothing ran
///   timeout  — the serve-side deadline fired; a partial report may be
///              attached when the worker drained in time
///   error    — the worker failed terminally (crash retries exhausted,
///              bad source, no parseable report)
struct ServeResponse {
  std::string id;
  std::string status = "error";
  std::string reject_reason;  ///< set when status == "rejected"
  std::string error;          ///< human-readable detail for "error"
  /// Worker attempts consumed (0 for rejects and cache hits).
  int attempts = 0;
  /// "hit", "miss", or "off".
  std::string cache = "off";
  /// True when the daemon answered while its disk was in degraded mode:
  /// the result is served from memory, persistence and worker checkpoints
  /// are suspended (docs/robustness.md, "Degraded mode").
  bool disk_degraded = false;
  bool have_report = false;
  report::JsonValue report;
};

/// Builds the response payload (canonical JSON, sorted keys).
std::string SerializeResponse(const ServeResponse& response);

/// Parses a response payload (the client side of the boundary; responses
/// from the socket are just as untrusted as requests).
Result<ServeResponse> ParseResponse(const std::string& payload);

/// Canonical cache/admission digest of a run request: everything that
/// changes what a worker would compute, excluding the tenant (two tenants
/// asking the same question share a cache line). FNV-1a 64.
std::uint64_t RequestDigest(const ServeRequest& request);

}  // namespace ocdd::serve

#endif  // OCDD_SERVE_PROTOCOL_H_
