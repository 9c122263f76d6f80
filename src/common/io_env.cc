#include "common/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/status.h"

namespace ocdd {

namespace {

/// Errno a simulated fault sets for each kind (kShortWrite sets none).
int FaultErrno(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kEnospc:
      return ENOSPC;
    case IoFaultKind::kEio:
    case IoFaultKind::kCrash:
      return EIO;
    case IoFaultKind::kEmfile:
      return EMFILE;
    case IoFaultKind::kNone:
    case IoFaultKind::kShortWrite:
    case IoFaultKind::kCancel:
    case IoFaultKind::kAlloc:
    case IoFaultKind::kThrow:
      break;
  }
  return EIO;
}

std::uint64_t NextRng(std::uint64_t* state) {
  // splitmix64 — cheap, seedable, good enough for fault-rate sampling.
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* IoFaultKindName(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kNone:
      return "none";
    case IoFaultKind::kEnospc:
      return "enospc";
    case IoFaultKind::kEio:
      return "eio";
    case IoFaultKind::kEmfile:
      return "emfile";
    case IoFaultKind::kShortWrite:
      return "short";
    case IoFaultKind::kCrash:
      return "crash";
    case IoFaultKind::kCancel:
      return "cancel";
    case IoFaultKind::kAlloc:
      return "alloc";
    case IoFaultKind::kThrow:
      return "throw";
  }
  return "unknown";
}

bool IsRunFaultKind(IoFaultKind kind) {
  return kind == IoFaultKind::kCancel || kind == IoFaultKind::kAlloc ||
         kind == IoFaultKind::kThrow;
}

const char* IoOpKindName(IoOp::Kind kind) {
  switch (kind) {
    case IoOp::Kind::kOpenTrunc:
      return "open_trunc";
    case IoOp::Kind::kWrite:
      return "write";
    case IoOp::Kind::kRename:
      return "rename";
    case IoOp::Kind::kUnlink:
      return "unlink";
    case IoOp::Kind::kMkdir:
      return "mkdir";
  }
  return "unknown";
}

bool IoFaultSpec::Matches(const char* site) const {
  if (site_pattern == "*") return true;
  const std::size_t n = site_pattern.size();
  if (n > 0 && site_pattern[n - 1] == '*') {
    return std::strncmp(site, site_pattern.c_str(), n - 1) == 0;
  }
  return site_pattern == site;
}

Result<std::vector<IoFaultSpec>> ParseIoFaultSpecs(const std::string& text) {
  std::vector<IoFaultSpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("io fault spec '" + entry +
                                     "' missing site=kind");
    }
    IoFaultSpec spec;
    spec.site_pattern = entry.substr(0, eq);
    std::string kind = entry.substr(eq + 1);
    // Optional trigger suffix: '#N' (one-shot on the Nth call) or '@RATE'.
    const std::size_t hash = kind.find('#');
    const std::size_t at = kind.find('@');
    if (hash != std::string::npos) {
      spec.after_n = std::strtoull(kind.c_str() + hash + 1, nullptr, 10);
      if (spec.after_n == 0) {
        return Status::InvalidArgument("io fault spec '" + entry +
                                       "': #N must be >= 1");
      }
      kind = kind.substr(0, hash);
    } else if (at != std::string::npos) {
      spec.rate = std::atof(kind.c_str() + at + 1);
      if (spec.rate < 0.0 || spec.rate > 1.0) {
        return Status::InvalidArgument("io fault spec '" + entry +
                                       "': @RATE must be in [0,1]");
      }
      kind = kind.substr(0, at);
    }
    for (IoFaultKind k :
         {IoFaultKind::kEnospc, IoFaultKind::kEio, IoFaultKind::kEmfile,
          IoFaultKind::kShortWrite, IoFaultKind::kCrash, IoFaultKind::kCancel,
          IoFaultKind::kAlloc, IoFaultKind::kThrow}) {
      if (kind == IoFaultKindName(k)) spec.kind = k;
    }
    if (spec.kind == IoFaultKind::kNone) {
      return Status::InvalidArgument(
          "io fault spec '" + entry +
          "': unknown kind (enospc, eio, emfile, short, crash, cancel, "
          "alloc, throw)");
    }
    specs.push_back(std::move(spec));
    if (comma == text.size()) break;
  }
  return specs;
}

IoEnv& IoEnv::Get() {
  static IoEnv* env = [] {
    auto* e = new IoEnv();
    // Until here RunFaultsArmed() reads true, so the first injection-point
    // poll lands in this initializer and sees the faults armed below.
    run_armed_.store(false, std::memory_order_relaxed);
    if (const char* spec = std::getenv("OCDD_IO_FAULTS")) {
      // Arm faults for the whole process, e.g. the nightly sweep running
      // `OCDD_IO_FAULTS='snapshot.*=enospc' ocdd serve ...`. A malformed
      // spec is a hard startup error: silently running *without* the faults
      // the operator asked for would invalidate the sweep.
      Status armed = e->ArmFaultString(spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "OCDD_IO_FAULTS: %s\n",
                     armed.ToString().c_str());
        std::abort();
      }
      if (const char* seed = std::getenv("OCDD_IO_FAULT_SEED")) {
        e->SeedFaultRng(std::strtoull(seed, nullptr, 10));
      }
    }
    return e;
  }();
  return *env;
}

void IoEnv::ArmFault(IoFaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (IsRunFaultKind(spec.kind)) {
    run_armed_.store(true, std::memory_order_relaxed);
  }
  faults_.push_back(std::move(spec));
  spec_hits_.push_back(0);
}

Status IoEnv::ArmFaultString(const std::string& text) {
  OCDD_ASSIGN_OR_RETURN(std::vector<IoFaultSpec> specs,
                        ParseIoFaultSpecs(text));
  for (IoFaultSpec& spec : specs) ArmFault(std::move(spec));
  return Status::OK();
}

void IoEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  spec_hits_.clear();
  site_hits_.clear();
  site_faults_.clear();
  crashed_ = false;
  run_armed_.store(false, std::memory_order_relaxed);
}

void IoEnv::SeedFaultRng(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_[0] = rng_state_[1] = seed ^ 0x9e3779b97f4a7c15ull;
}

bool IoEnv::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

IoFaultKind IoEnv::PollLocked(const char* site, bool run_point) {
  ++site_hits_[site];
  if (crashed_ && !run_point) {
    ++site_faults_[site];
    return IoFaultKind::kCrash;
  }
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const IoFaultSpec& spec = faults_[i];
    if (IsRunFaultKind(spec.kind) != run_point || !spec.Matches(site)) {
      continue;
    }
    const std::uint64_t hit = ++spec_hits_[i];
    bool fire = false;
    if (spec.after_n != 0) {
      fire = hit == spec.after_n;
    } else if (spec.rate >= 0.0) {
      const double u =
          static_cast<double>(NextRng(&rng_state_[run_point]) >> 11) *
          0x1.0p-53;
      fire = u < spec.rate;
    } else {
      fire = true;
    }
    if (!fire) continue;
    ++site_faults_[site];
    if (spec.kind == IoFaultKind::kCrash) crashed_ = true;
    return spec.kind;
  }
  return IoFaultKind::kNone;
}

IoFaultKind IoEnv::Poll(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  return PollLocked(site, /*run_point=*/false);
}

IoFaultKind IoEnv::PollRunPoint(const char* point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!run_armed_.load(std::memory_order_relaxed)) return IoFaultKind::kNone;
  return PollLocked(point, /*run_point=*/true);
}

void IoEnv::Record(IoOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (logging_) op_log_.push_back(std::move(op));
}

void IoEnv::StartOpLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logging_ = true;
  op_log_.clear();
}

std::vector<IoOp> IoEnv::TakeOpLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logging_ = false;
  return std::move(op_log_);
}

std::vector<std::string> IoEnv::SeenSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> sites;
  sites.reserve(site_hits_.size());
  for (const auto& [site, hits] : site_hits_) sites.push_back(site);
  std::sort(sites.begin(), sites.end());
  return sites;
}

IoEnvStats IoEnv::StatsFor(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  IoEnvStats stats;
  auto hit = site_hits_.find(site);
  if (hit != site_hits_.end()) stats.ops = hit->second;
  auto fault = site_faults_.find(site);
  if (fault != site_faults_.end()) stats.faults_fired = fault->second;
  return stats;
}

std::uint64_t IoEnv::TotalFaultsFired() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [site, count] : site_faults_) total += count;
  return total;
}

int IoEnv::Open(const char* site, const std::string& path, int flags,
                mode_t mode) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  const int fd = ::open(path.c_str(), flags, mode);
  if (fd >= 0) {
    std::lock_guard<std::mutex> lock(mu_);
    fd_paths_[fd] = path;
    if (logging_ && (flags & O_TRUNC) != 0 && (flags & O_CREAT) != 0) {
      op_log_.push_back({IoOp::Kind::kOpenTrunc, site, path, {}, {}});
    }
  }
  return fd;
}

ssize_t IoEnv::Write(const char* site, int fd, const void* buf,
                     std::size_t len) {
  const IoFaultKind fault = Poll(site);
  if (fault == IoFaultKind::kShortWrite && len > 1) {
    // Persist only half: the caller's write loop retries the rest, so a
    // single short fault is absorbed; a 100%-rate arming starves the loop
    // down to 1-byte writes but still terminates.
    len /= 2;
  } else if (fault != IoFaultKind::kNone) {
    errno = FaultErrno(fault);
    return -1;
  }
  const ssize_t n = ::write(fd, buf, len);
  if (n > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (logging_) {
      auto it = fd_paths_.find(fd);
      op_log_.push_back({IoOp::Kind::kWrite, site,
                         it == fd_paths_.end() ? std::string() : it->second,
                         {},
                         std::string(static_cast<const char*>(buf),
                                     static_cast<std::size_t>(n))});
    }
  }
  return n;
}

ssize_t IoEnv::Read(const char* site, int fd, void* buf, std::size_t len) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  return ::read(fd, buf, len);
}

int IoEnv::Fsync(const char* site, int fd) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  return ::fsync(fd);
}

int IoEnv::Close(const char* site, int fd) {
  // Close is never blocked by injected faults on the *descriptor* — leaking
  // fds under a fault sweep would turn simulated ENOSPC into real EMFILE —
  // but a close-site fault still *reports* failure after the real close, the
  // NFS-style "close() surfaces the async write error" case.
  const IoFaultKind fault = Poll(site);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_paths_.erase(fd);
  }
  const int rc = ::close(fd);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  return rc;
}

int IoEnv::Rename(const char* site, const std::string& from,
                  const std::string& to) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  const int rc = ::rename(from.c_str(), to.c_str());
  if (rc == 0) Record({IoOp::Kind::kRename, site, from, to, {}});
  return rc;
}

int IoEnv::Unlink(const char* site, const std::string& path) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  const int rc = ::unlink(path.c_str());
  if (rc == 0) Record({IoOp::Kind::kUnlink, site, path, {}, {}});
  return rc;
}

int IoEnv::Mkdir(const char* site, const std::string& path, mode_t mode) {
  const IoFaultKind fault = Poll(site);
  if (fault != IoFaultKind::kNone && fault != IoFaultKind::kShortWrite) {
    errno = FaultErrno(fault);
    return -1;
  }
  const int rc = ::mkdir(path.c_str(), mode);
  if (rc == 0) Record({IoOp::Kind::kMkdir, site, path, {}, {}});
  return rc;
}

// ---------------------------------------------------------------------------
// Op-log replay
// ---------------------------------------------------------------------------

namespace {

Result<std::string> RemapPath(const std::string& path,
                              const std::string& from_root,
                              const std::string& to_root) {
  if (path.compare(0, from_root.size(), from_root) != 0) {
    return Status::InvalidArgument("op path '" + path + "' outside root '" +
                                   from_root + "'");
  }
  return to_root + path.substr(from_root.size());
}

Status ReplayWrite(const std::string& path, const std::string& data,
                   bool truncate) {
  int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return IoErrorStatus("replay open", path);
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = IoErrorStatus("replay write", path);
      ::close(fd);
      return s;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Status ReplayOpLog(const std::vector<IoOp>& ops, std::size_t count,
                   bool tear_last, const std::string& from_root,
                   const std::string& to_root) {
  if (count > ops.size()) {
    return Status::OutOfRange("replay count exceeds op log size");
  }
  for (std::size_t i = 0; i < count; ++i) {
    const IoOp& op = ops[i];
    const bool torn = tear_last && i + 1 == count;
    switch (op.kind) {
      case IoOp::Kind::kOpenTrunc: {
        // Truncation takes effect the instant the open lands; a torn open
        // is indistinguishable from a complete one.
        OCDD_ASSIGN_OR_RETURN(std::string path,
                              RemapPath(op.path, from_root, to_root));
        OCDD_RETURN_IF_ERROR(ReplayWrite(path, "", /*truncate=*/true));
        break;
      }
      case IoOp::Kind::kWrite: {
        OCDD_ASSIGN_OR_RETURN(std::string path,
                              RemapPath(op.path, from_root, to_root));
        const std::string data =
            torn ? op.data.substr(0, op.data.size() / 2) : op.data;
        OCDD_RETURN_IF_ERROR(ReplayWrite(path, data, /*truncate=*/false));
        break;
      }
      case IoOp::Kind::kRename: {
        if (torn) break;  // crash strictly before the atomic rename
        OCDD_ASSIGN_OR_RETURN(std::string from,
                              RemapPath(op.path, from_root, to_root));
        OCDD_ASSIGN_OR_RETURN(std::string to,
                              RemapPath(op.path2, from_root, to_root));
        if (::rename(from.c_str(), to.c_str()) != 0) {
          return IoErrorStatus("replay rename", to);
        }
        break;
      }
      case IoOp::Kind::kUnlink: {
        if (torn) break;
        OCDD_ASSIGN_OR_RETURN(std::string path,
                              RemapPath(op.path, from_root, to_root));
        if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
          return IoErrorStatus("replay unlink", path);
        }
        break;
      }
      case IoOp::Kind::kMkdir: {
        if (torn) break;
        OCDD_ASSIGN_OR_RETURN(std::string path,
                              RemapPath(op.path, from_root, to_root));
        if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
          return IoErrorStatus("replay mkdir", path);
        }
        break;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Typed errors + shared helpers
// ---------------------------------------------------------------------------

Status IoErrorStatus(const char* op, const std::string& path) {
  const int err = errno;
  const std::string msg = std::string("io ") + op + " failed for " + path +
                          ": " + std::strerror(err);
  // Exhaustion (space or descriptors) is operational and typically
  // transient — a degraded-mode trigger — while EIO and friends point at
  // the media or a bug.
  if (err == ENOSPC || err == EDQUOT || err == EMFILE || err == ENFILE) {
    return Status::ResourceExhausted(msg);
  }
  return Status::Internal(msg);
}

Status IoWriteFileSynced(IoEnv& env, const char* site_prefix,
                         const std::string& path, const char* bytes,
                         std::size_t len) {
  const std::string prefix = site_prefix;
  const int fd = env.Open((prefix + ".open").c_str(), path,
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoErrorStatus("open", path);
  const std::string write_site = prefix + ".write";
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n =
        env.Write(write_site.c_str(), fd, bytes + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = IoErrorStatus("write", path);
      env.Close((prefix + ".close").c_str(), fd);
      return s;
    }
    off += static_cast<std::size_t>(n);
  }
  if (env.Fsync((prefix + ".fsync").c_str(), fd) != 0) {
    Status s = IoErrorStatus("fsync", path);
    env.Close((prefix + ".close").c_str(), fd);
    return s;
  }
  if (env.Close((prefix + ".close").c_str(), fd) != 0) {
    return IoErrorStatus("close", path);
  }
  return Status::OK();
}

Result<std::string> IoReadFileAll(IoEnv& env, const char* site_prefix,
                                  const std::string& path) {
  const std::string prefix = site_prefix;
  const int fd = env.Open((prefix + ".open").c_str(), path, O_RDONLY, 0);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("io open failed for " + path + ": " +
                              std::strerror(ENOENT));
    }
    return IoErrorStatus("open", path);
  }
  // One buffer sized by fstat, one byte over so the read that sees EOF
  // needs no growth; a file that grows meanwhile still reads whole.
  struct stat st;
  std::size_t capacity = 1 << 16;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size >= 0) {
    capacity = static_cast<std::size_t>(st.st_size) + 1;
  }
  const std::string read_site = prefix + ".read";
  std::string out(capacity, '\0');
  std::size_t len = 0;
  for (;;) {
    if (len == out.size()) out.resize(out.size() * 2);
    const ssize_t n =
        env.Read(read_site.c_str(), fd, out.data() + len, out.size() - len);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = IoErrorStatus("read", path);
      env.Close((prefix + ".close").c_str(), fd);
      return s;
    }
    if (n == 0) break;
    len += static_cast<std::size_t>(n);
  }
  env.Close((prefix + ".close").c_str(), fd);
  out.resize(len);
  return out;
}

Status IoSyncDir(IoEnv& env, const char* site_prefix, const std::string& dir) {
  const std::string prefix = site_prefix;
  const int fd = env.Open((prefix + ".open_dir").c_str(), dir,
                          O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) return IoErrorStatus("open dir", dir);
  if (env.Fsync((prefix + ".fsync_dir").c_str(), fd) != 0) {
    Status s = IoErrorStatus("fsync dir", dir);
    env.Close((prefix + ".close_dir").c_str(), fd);
    return s;
  }
  env.Close((prefix + ".close_dir").c_str(), fd);
  return Status::OK();
}

Status IoEnsureDir(IoEnv& env, const char* site_prefix,
                   const std::string& dir) {
  const std::string prefix = site_prefix;
  if (env.Mkdir((prefix + ".mkdir").c_str(), dir, 0755) == 0) {
    // The new directory entry lives in the *parent*; without fsyncing the
    // parent a power loss can forget the whole directory — taking every
    // carefully synced file inside it along.
    std::string parent = dir;
    const std::size_t slash = parent.find_last_of('/');
    parent = slash == std::string::npos ? std::string(".")
             : slash == 0               ? std::string("/")
                                        : parent.substr(0, slash);
    OCDD_RETURN_IF_ERROR(IoSyncDir(env, site_prefix, parent));
    return Status::OK();
  }
  if (errno == EEXIST) return Status::OK();
  return IoErrorStatus("mkdir", dir);
}

}  // namespace ocdd
