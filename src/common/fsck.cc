#include "common/fsck.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/io_env.h"
#include "common/snapshot.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ocdd {

namespace {

constexpr char kQuarantineDirName[] = "fsck-quarantine";

/// Parses `<store>.<digits>.snap`; false for anything else.
bool ParseSnapName(const std::string& fname, std::string* store,
                   std::uint64_t* generation) {
  constexpr char kSuffix[] = ".snap";
  constexpr std::size_t kSuffixLen = 5;
  if (fname.size() <= kSuffixLen ||
      fname.compare(fname.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  const std::string stem = fname.substr(0, fname.size() - kSuffixLen);
  const std::size_t dot = stem.find_last_of('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == stem.size()) {
    return false;
  }
  const std::string digits = stem.substr(dot + 1);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *store = stem.substr(0, dot);
  *generation = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

bool ParseTmpName(const std::string& fname, std::string* store) {
  constexpr char kSuffix[] = ".tmp";
  constexpr std::size_t kSuffixLen = 4;
  if (fname.size() <= kSuffixLen ||
      fname.compare(fname.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  *store = fname.substr(0, fname.size() - kSuffixLen);
  return true;
}

void ScanDir(const std::string& dir, const FsckOptions& options,
             FsckReport* report) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    report->warnings.push_back("cannot open directory: " + dir);
    return;
  }
  ++report->dirs_scanned;
  std::vector<std::string> subdirs;
  IoEnv& env = IoEnv::Get();
  // Stores seen in *this* directory; generation rollups stay per-dir
  // because two request-key subdirectories may reuse one store name.
  std::map<std::string, FsckStore> stores;

  while (dirent* entry = ::readdir(d)) {
    const std::string fname = entry->d_name;
    if (fname == "." || fname == ".." || fname == kQuarantineDirName) {
      continue;
    }
    const std::string path = dir + "/" + fname;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      report->warnings.push_back("cannot stat: " + path);
      continue;
    }
    if (S_ISDIR(st.st_mode)) {
      if (options.recursive) subdirs.push_back(path);
      continue;
    }
    if (!S_ISREG(st.st_mode)) continue;

    FsckFile file;
    file.path = path;
    file.size_bytes = static_cast<std::size_t>(st.st_size);

    std::uint64_t generation = 0;
    std::string store;
    if (ParseSnapName(fname, &store, &generation)) {
      file.store = store;
      file.generation = generation;
      Result<std::string> bytes = IoReadFileAll(env, "fsck", path);
      Status decode_status =
          bytes.ok() ? SnapshotView::Decode(*bytes).status() : bytes.status();
      FsckStore& rollup = stores[store];
      rollup.dir = dir;
      rollup.name = store;
      if (decode_status.ok()) {
        file.status = FsckFileStatus::kValid;
        ++report->valid_files;
        ++rollup.valid;
        rollup.newest_valid_generation =
            std::max(rollup.newest_valid_generation, generation);
      } else {
        file.status = FsckFileStatus::kCorrupt;
        file.detail = decode_status.message();
        ++report->corrupt_files;
        ++rollup.corrupt;
        if (options.repair) {
          const std::string qdir = dir + "/" + kQuarantineDirName;
          Status made = IoEnsureDir(env, "fsck.quarantine", qdir);
          if (made.ok() &&
              env.Rename("fsck.quarantine.rename", path,
                         qdir + "/" + fname) == 0) {
            file.repair = "quarantined";
            ++report->repaired_files;
          } else {
            Status why = made.ok()
                             ? IoErrorStatus("rename", qdir + "/" + fname)
                             : made;
            file.repair = "quarantine failed: " + why.message();
            report->warnings.push_back(file.repair + " (" + path + ")");
          }
        }
      }
    } else if (ParseTmpName(fname, &store)) {
      file.store = store;
      file.status = FsckFileStatus::kOrphanTmp;
      ++report->orphan_tmp_files;
      if (options.repair) {
        if (env.Unlink("fsck.reap", path) == 0) {
          file.repair = "reaped";
          ++report->repaired_files;
        } else {
          file.repair = "reap failed: " + IoErrorStatus("unlink", path).message();
          report->warnings.push_back(file.repair);
        }
      }
    } else {
      continue;  // not a snapshot-store artifact; none of fsck's business
    }
    report->files.push_back(std::move(file));
  }
  ::closedir(d);

  for (auto& [name, rollup] : stores) {
    report->stores.push_back(std::move(rollup));
  }
  std::sort(subdirs.begin(), subdirs.end());
  for (const std::string& sub : subdirs) ScanDir(sub, options, report);
}

}  // namespace

const char* FsckFileStatusName(FsckFileStatus status) {
  switch (status) {
    case FsckFileStatus::kValid:
      return "valid";
    case FsckFileStatus::kCorrupt:
      return "corrupt";
    case FsckFileStatus::kOrphanTmp:
      return "orphan_tmp";
  }
  return "unknown";
}

Result<FsckReport> FsckDirectory(const std::string& root,
                                 const FsckOptions& options) {
  // The root must at least open — a typo'd path should be an error, not a
  // clean report over nothing.
  DIR* probe = ::opendir(root.c_str());
  if (probe == nullptr) {
    return Status::NotFound("fsck: cannot open directory: " + root);
  }
  ::closedir(probe);

  FsckReport report;
  report.root = root;
  ScanDir(root, options, &report);

  // Deterministic output: files sorted by path, stores by (dir, name).
  std::sort(report.files.begin(), report.files.end(),
            [](const FsckFile& a, const FsckFile& b) { return a.path < b.path; });
  std::sort(report.stores.begin(), report.stores.end(),
            [](const FsckStore& a, const FsckStore& b) {
              return a.dir != b.dir ? a.dir < b.dir : a.name < b.name;
            });
  return report;
}

std::string FsckReportText(const FsckReport& report) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "# fsck %s: %zu dirs, %zu valid, %zu corrupt, %zu orphan "
                "tmp, %zu repaired\n",
                report.root.c_str(), report.dirs_scanned, report.valid_files,
                report.corrupt_files, report.orphan_tmp_files,
                report.repaired_files);
  out += line;
  for (const FsckStore& store : report.stores) {
    std::snprintf(line, sizeof(line),
                  "store %s/%s: %zu valid, %zu corrupt, newest valid "
                  "generation %llu\n",
                  store.dir.c_str(), store.name.c_str(), store.valid,
                  store.corrupt,
                  static_cast<unsigned long long>(
                      store.newest_valid_generation));
    out += line;
  }
  for (const FsckFile& file : report.files) {
    if (file.status == FsckFileStatus::kValid) continue;
    std::snprintf(line, sizeof(line), "%s %s%s%s%s%s\n",
                  FsckFileStatusName(file.status), file.path.c_str(),
                  file.detail.empty() ? "" : ": ", file.detail.c_str(),
                  file.repair.empty() ? "" : " -> ", file.repair.c_str());
    out += line;
  }
  for (const std::string& warning : report.warnings) {
    out += "# warning: " + warning + "\n";
  }
  return out;
}

std::string FsckReportJson(const FsckReport& report) {
  std::string out = "{\"command\":\"fsck\"";
  out += ",\"root\":\"" + JsonEscape(report.root) + "\"";
  out += ",\"dirs_scanned\":" + std::to_string(report.dirs_scanned);
  out += ",\"valid_files\":" + std::to_string(report.valid_files);
  out += ",\"corrupt_files\":" + std::to_string(report.corrupt_files);
  out += ",\"orphan_tmp_files\":" + std::to_string(report.orphan_tmp_files);
  out += ",\"repaired_files\":" + std::to_string(report.repaired_files);
  out += ",\"clean\":" + std::string(report.clean() ? "true" : "false");
  out += ",\"stores\":[";
  for (std::size_t i = 0; i < report.stores.size(); ++i) {
    const FsckStore& store = report.stores[i];
    if (i > 0) out += ",";
    out += "{\"dir\":\"" + JsonEscape(store.dir) + "\"";
    out += ",\"name\":\"" + JsonEscape(store.name) + "\"";
    out += ",\"valid\":" + std::to_string(store.valid);
    out += ",\"corrupt\":" + std::to_string(store.corrupt);
    out += ",\"newest_valid_generation\":" +
           std::to_string(store.newest_valid_generation) + "}";
  }
  out += "],\"files\":[";
  bool first = true;
  for (const FsckFile& file : report.files) {
    if (file.status == FsckFileStatus::kValid) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"path\":\"" + JsonEscape(file.path) + "\"";
    out += ",\"status\":\"" + std::string(FsckFileStatusName(file.status)) +
           "\"";
    if (file.generation != 0) {
      out += ",\"generation\":" + std::to_string(file.generation);
    }
    if (!file.detail.empty()) {
      out += ",\"detail\":\"" + JsonEscape(file.detail) + "\"";
    }
    if (!file.repair.empty()) {
      out += ",\"repair\":\"" + JsonEscape(file.repair) + "\"";
    }
    out += "}";
  }
  out += "],\"warnings\":[";
  for (std::size_t i = 0; i < report.warnings.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(report.warnings[i]) + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace ocdd
