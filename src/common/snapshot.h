#ifndef OCDD_COMMON_SNAPSHOT_H_
#define OCDD_COMMON_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace ocdd {

/// Crash-safe snapshot persistence for long discovery runs (see
/// docs/checkpointing.md).
///
/// A *snapshot* is a small set of named binary sections (frontier, emitted
/// claims, counters) encoded into one file with a versioned header, a CRC32
/// per section, and a whole-file CRC trailer. A `SnapshotStore` manages a
/// directory of numbered *generations* of such files for one run: every
/// write goes to a temp file, is fsynced, and only then renamed into place,
/// so a crash at any instant leaves either the previous generation intact or
/// both the previous generation and a complete new one. Readers walk
/// generations newest-first and transparently fall back past torn or
/// corrupted files to the newest generation that validates.

// ---------------------------------------------------------------------------
// Byte-stream codec (little-endian, fixed width)
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `len` bytes.
std::uint32_t Crc32(const void* data, std::size_t len);

/// Appends fixed-width little-endian primitives to a byte string. The
/// algorithm state serializers (ocd_discover.cc, fastod.cc, tane.cc) are
/// built on this: snapshots must be bit-stable across platforms so a run can
/// resume on a different machine.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>(v >> (8 * i)));
  }
  /// u32 length prefix + raw bytes.
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }
  /// u32 count prefix + one u32 per element.
  void U32Vec(const std::vector<std::uint32_t>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (std::uint32_t x : v) U32(x);
  }
  /// Like U32Vec but narrowing from size_t ids (column ids, attr indices).
  void IdVec(const std::vector<std::size_t>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    for (std::size_t x : v) U32(static_cast<std::uint32_t>(x));
  }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a byte string. Any read past the end latches
/// `ok() == false` and returns zero values; callers validate once at the end
/// instead of checking every read.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  /// `n` raw bytes. The bound check runs against the *remaining* input
  /// before anything is allocated, so an adversarial length prefix (e.g.
  /// 0xFFFFFFFF in a corrupt snapshot) is rejected without ever requesting
  /// a multi-GB buffer.
  std::string Bytes(std::size_t n) {
    if (!Need(n)) return {};
    std::string s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  std::string Str() {
    std::uint32_t len = U32();
    return Bytes(len);
  }
  std::vector<std::uint32_t> U32Vec() {
    std::uint32_t count = U32();
    std::vector<std::uint32_t> v;
    // Reject before reserve(): count is untrusted until the remaining
    // bytes prove it plausible.
    if (!Need(static_cast<std::size_t>(count) * 4)) return v;
    v.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) v.push_back(U32());
    return v;
  }
  std::vector<std::size_t> IdVec() {
    std::vector<std::size_t> out;
    for (std::uint32_t x : U32Vec()) out.push_back(x);
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Bytes left to read (0 once a read has failed).
  std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  /// Current read position in the underlying byte string.
  std::size_t pos() const { return pos_; }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Snapshot container (sections + CRCs)
// ---------------------------------------------------------------------------

/// Assembles named sections into one encoded snapshot image.
class SnapshotBuilder {
 public:
  void AddSection(std::string name, std::string payload) {
    sections_.emplace_back(std::move(name), std::move(payload));
  }

  /// Full file image: header, sections with per-section CRC32, whole-file
  /// CRC trailer.
  std::string Encode() const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// A decoded, CRC-validated snapshot image.
class SnapshotView {
 public:
  /// Validates the magic, every section CRC, and the file CRC trailer.
  /// Truncated (torn) files and bit flips both fail here with ParseError.
  static Result<SnapshotView> Decode(const std::string& bytes);

  /// Section payload, or nullptr when absent.
  const std::string* Find(const std::string& name) const;

  std::vector<std::string> SectionNames() const;

 private:
  std::map<std::string, std::string> sections_;
};

// ---------------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------------

/// A successfully loaded snapshot plus its provenance.
struct LoadedSnapshot {
  std::uint64_t generation = 0;
  /// Newer generations that failed validation and were skipped on the way
  /// to this one (torn writes, bit flips, truncation).
  std::size_t corrupt_skipped = 0;
  SnapshotView view;
};

/// Manages `<dir>/<name>.<generation>.snap` files with the atomic write
/// protocol: encode → temp file → fsync → rename → fsync(dir) → verify →
/// prune. One store per (checkpoint dir, algorithm) pair; generation numbers
/// increase monotonically across process restarts (the next generation is
/// derived from the files on disk).
///
/// Every syscall goes through `IoEnv` sites named `snapshot.*`, so the
/// fault registry (`OCDD_IO_FAULTS`) arms failures anywhere in the protocol.
/// A write that fails, or a generation corrupted at rest, leaves the
/// previous generation intact and `Load()` recovers it
/// (tests/checkpoint_test.cc, tests/crash_consistency_test.cc).
class SnapshotStore {
 public:
  SnapshotStore(std::string dir, std::string name)
      : dir_(std::move(dir)), name_(std::move(name)) {}

  /// Writes `encoded` (a SnapshotBuilder::Encode image) as the next
  /// generation. On success the new file has been read back and validated,
  /// and generations older than the newest `keep` are pruned. On failure the
  /// directory still holds the previous generations.
  Result<std::uint64_t> Write(const std::string& encoded,
                              std::size_t keep = 2);

  /// Loads the newest generation that validates; `corrupt_skipped` counts
  /// newer generations that did not. NotFound when the directory holds no
  /// valid snapshot at all (including when it does not exist).
  Result<LoadedSnapshot> Load() const;

  /// Generation numbers present on disk (unvalidated), ascending.
  std::vector<std::uint64_t> Generations() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(std::uint64_t generation) const;

  std::string dir_;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Checkpoint plumbing shared by the discovery algorithms
// ---------------------------------------------------------------------------

/// Per-run checkpoint settings, carried inside each algorithm's options
/// struct. The cadence (every K checks / T seconds) lives on the RunContext
/// (`set_checkpoint_cadence`), which the algorithms consult at level
/// boundaries.
struct CheckpointConfig {
  /// Directory for snapshot generations; empty disables checkpointing.
  std::string dir;
  /// Attempt to restore the newest valid generation before starting.
  bool resume = false;
  /// Snapshot generations kept on disk (the current one plus fallbacks).
  std::size_t keep_generations = 2;

  bool enabled() const { return !dir.empty(); }
};

/// What checkpointing did during one run; embedded in result structs.
struct CheckpointStats {
  bool enabled = false;
  /// A snapshot generation was restored and the run continued from it.
  bool resumed = false;
  std::uint64_t resumed_generation = 0;
  std::uint64_t snapshots_written = 0;
  /// Corrupt generations skipped during resume (recovered via fallback).
  std::uint64_t corrupt_skipped = 0;
  /// Non-fatal checkpoint trouble (failed write, fingerprint mismatch, no
  /// snapshot to resume). The run itself proceeds; supervised restarts and
  /// the CLI surface this.
  std::string warning;
};

}  // namespace ocdd

#endif  // OCDD_COMMON_SNAPSHOT_H_
