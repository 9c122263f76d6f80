#include "common/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "common/ingest_error.h"
#include "common/io_env.h"
#include "common/status.h"

namespace ocdd {
namespace {

// File layout (all integers little-endian):
//   8 bytes  magic "OCDDSNP1" (the trailing digit is the format version)
//   u32      section count
//   per section:
//     u32    name length, then name bytes
//     u64    payload length
//     u32    CRC32 of the payload
//     bytes  payload
//   u32      CRC32 of everything above
//   8 bytes  end magic "OCDDSNPE"
// The end magic makes truncation detectable even before CRC checking; the
// per-section CRCs localize corruption, and the file CRC catches damage in
// the framing itself.
constexpr char kMagic[] = "OCDDSNP1";
constexpr char kEndMagic[] = "OCDDSNPE";
constexpr std::size_t kMagicLen = 8;

const std::uint32_t* Crc32Table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

// Every durable operation below routes through the process-global IoEnv
// under the "snapshot.*" fault-point namespace — the serve result cache,
// incremental warm state, and checkpoint stores all persist through
// SnapshotStore, so arming these sites covers every durability path at once
// (docs/robustness.md, "Disk faults").

// Durably writes `bytes` to `path` (open, write, fsync, close).
Status WriteFileSynced(const std::string& path, const char* bytes,
                       std::size_t len) {
  return IoWriteFileSynced(IoEnv::Get(), "snapshot", path, bytes, len);
}

// Fsyncs the directory itself so the rename is durable.
Status SyncDir(const std::string& dir) {
  return IoSyncDir(IoEnv::Get(), "snapshot", dir);
}

Result<std::string> ReadFileAll(const std::string& path) {
  return IoReadFileAll(IoEnv::Get(), "snapshot", path);
}

Status EnsureDir(const std::string& dir) {
  return IoEnsureDir(IoEnv::Get(), "snapshot", dir);
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len) {
  const std::uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string SnapshotBuilder::Encode() const {
  std::string body(kMagic, kMagicLen);
  {
    ByteWriter w;
    w.U32(static_cast<std::uint32_t>(sections_.size()));
    body += w.Take();
  }
  for (const auto& [name, payload] : sections_) {
    ByteWriter w;
    w.Str(name);
    w.U64(payload.size());
    w.U32(Crc32(payload.data(), payload.size()));
    body += w.Take();
    body += payload;
  }
  ByteWriter trailer;
  trailer.U32(Crc32(body.data(), body.size()));
  body += trailer.Take();
  body.append(kEndMagic, kMagicLen);
  return body;
}

Result<SnapshotView> SnapshotView::Decode(const std::string& bytes) {
  constexpr std::size_t kTrailerLen = 4 + kMagicLen;
  if (bytes.size() < kMagicLen + 4 + kTrailerLen) {
    return Status::ParseError("snapshot truncated");
  }
  if (bytes.compare(0, kMagicLen, kMagic, kMagicLen) != 0) {
    return Status::ParseError("snapshot bad magic");
  }
  if (bytes.compare(bytes.size() - kMagicLen, kMagicLen, kEndMagic,
                    kMagicLen) != 0) {
    return Status::ParseError("snapshot torn (missing end magic)");
  }
  const std::size_t body_len = bytes.size() - kTrailerLen;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(bytes[body_len + i]))
                  << (8 * i);
  }
  if (Crc32(bytes.data(), body_len) != stored_crc) {
    return Status::ParseError("snapshot file CRC mismatch");
  }

  std::string body = bytes.substr(kMagicLen, body_len - kMagicLen);
  ByteReader r(body);
  std::uint32_t count = r.U32();
  // A section header is at least 16 bytes (name length + payload length +
  // CRC); an implausible count is rejected before the loop allocates
  // anything on its behalf.
  if (static_cast<std::uint64_t>(count) * 16 > r.remaining()) {
    return Status::ParseError("snapshot section count " +
                              std::to_string(count) +
                              " exceeds remaining bytes");
  }
  SnapshotView view;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.Str();
    std::uint64_t payload_len = r.U64();
    std::uint32_t section_crc = r.U32();
    if (!r.ok()) return Status::ParseError("snapshot section header damaged");
    // Validate the untrusted length against the remaining bytes *before*
    // allocating: a corrupt generation must not be able to request a
    // multi-GB buffer just by carrying a huge length prefix.
    if (payload_len > r.remaining()) {
      return Status::ParseError(
          "snapshot section '" + SanitizeExcerpt(name, 32) + "' length " +
          std::to_string(payload_len) + " exceeds remaining " +
          std::to_string(r.remaining()) + " bytes");
    }
    std::string payload = r.Bytes(static_cast<std::size_t>(payload_len));
    if (!r.ok()) return Status::ParseError("snapshot section truncated");
    if (Crc32(payload.data(), payload.size()) != section_crc) {
      return Status::ParseError("snapshot section '" + name +
                                "' CRC mismatch");
    }
    view.sections_[std::move(name)] = std::move(payload);
  }
  if (!r.AtEnd()) return Status::ParseError("snapshot trailing bytes");
  return view;
}

const std::string* SnapshotView::Find(const std::string& name) const {
  auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

std::vector<std::string> SnapshotView::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) names.push_back(name);
  return names;
}

std::string SnapshotStore::PathFor(std::uint64_t generation) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(generation));
  return dir_ + "/" + name_ + "." + buf + ".snap";
}

std::vector<std::uint64_t> SnapshotStore::Generations() const {
  std::vector<std::uint64_t> gens;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return gens;
  const std::string prefix = name_ + ".";
  const std::string suffix = ".snap";
  while (dirent* entry = ::readdir(d)) {
    std::string fname = entry->d_name;
    if (fname.size() <= prefix.size() + suffix.size()) continue;
    if (fname.compare(0, prefix.size(), prefix) != 0) continue;
    if (fname.compare(fname.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    std::string digits = fname.substr(
        prefix.size(), fname.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    gens.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  ::closedir(d);
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

Result<std::uint64_t> SnapshotStore::Write(const std::string& encoded,
                                           std::size_t keep) {
  OCDD_RETURN_IF_ERROR(EnsureDir(dir_));
  std::vector<std::uint64_t> gens = Generations();
  const std::uint64_t generation = gens.empty() ? 1 : gens.back() + 1;

  const std::string tmp_path = dir_ + "/" + name_ + ".tmp";
  OCDD_RETURN_IF_ERROR(
      WriteFileSynced(tmp_path, encoded.data(), encoded.size()));

  const std::string final_path = PathFor(generation);
  if (IoEnv::Get().Rename("snapshot.rename", tmp_path, final_path) != 0) {
    return IoErrorStatus("rename", final_path);
  }
  OCDD_RETURN_IF_ERROR(SyncDir(dir_));

  // Read-back verification: only a snapshot that validates from disk counts
  // as written, and only then may older generations be pruned. A file torn
  // or flipped on its way to disk fails here and the previous generations
  // survive.
  OCDD_ASSIGN_OR_RETURN(std::string reread, ReadFileAll(final_path));
  OCDD_ASSIGN_OR_RETURN(SnapshotView view, SnapshotView::Decode(reread));
  (void)view;

  gens.push_back(generation);
  if (keep < 1) keep = 1;
  while (gens.size() > keep) {
    // Prune failures are deliberately ignored: an undeleted old generation
    // costs disk, not correctness, and `ocdd fsck` reports strays.
    IoEnv::Get().Unlink("snapshot.prune", PathFor(gens.front()));
    gens.erase(gens.begin());
  }
  return generation;
}

Result<LoadedSnapshot> SnapshotStore::Load() const {
  std::vector<std::uint64_t> gens = Generations();
  LoadedSnapshot loaded;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    Result<std::string> bytes = ReadFileAll(PathFor(*it));
    if (bytes.ok()) {
      Result<SnapshotView> view = SnapshotView::Decode(bytes.value());
      if (view.ok()) {
        loaded.generation = *it;
        loaded.view = std::move(view).value();
        return loaded;
      }
    }
    ++loaded.corrupt_skipped;
  }
  return Status::NotFound("no valid snapshot generation in " + dir_ +
                          " (skipped " +
                          std::to_string(loaded.corrupt_skipped) +
                          " corrupt)");
}

}  // namespace ocdd
