#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "datagen/registry.h"
#include "engine/supervisor.h"
#include "relation/coded_relation.h"
#include "relation/csv.h"

namespace ocdd::serve {

namespace {

using report::JsonValue;

std::string HexKey(const CacheKey& key) {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx",
                static_cast<unsigned long long>(key.fingerprint),
                static_cast<unsigned long long>(key.digest));
  return buf;
}

/// Loads and dictionary-encodes a request's source, mirroring the CLI's
/// source resolution (CSV path vs built-in dataset). Strict ingest: a serve
/// request has no --on-bad-row escape hatch, dirty CSV is an error answer.
Result<std::uint64_t> SourceFingerprint(const ServeRequest& request) {
  rel::Relation relation;
  const std::string& src = request.source;
  const bool is_csv =
      src.size() > 4 && src.substr(src.size() - 4) == ".csv";
  if (is_csv) {
    OCDD_ASSIGN_OR_RETURN(rel::CsvRead read,
                          rel::ReadCsvFileWithReport(src, {}));
    relation = std::move(read.relation);
  } else {
    OCDD_ASSIGN_OR_RETURN(
        relation, datagen::MakeDataset(src, request.rows, request.seed));
  }
  return rel::CodedRelation::Encode(relation).Fingerprint();
}

JsonValue CountersJson(const ServerCounters& c) {
  std::map<std::string, JsonValue> rej;
  rej["draining"] = JsonValue::Number(static_cast<double>(c.rejected_draining));
  rej["bad_request"] =
      JsonValue::Number(static_cast<double>(c.rejected_bad_request));
  rej["bad_frame"] =
      JsonValue::Number(static_cast<double>(c.rejected_bad_frame));
  rej["queue_full"] =
      JsonValue::Number(static_cast<double>(c.rejected_queue_full));
  rej["tenant_limit"] =
      JsonValue::Number(static_cast<double>(c.rejected_tenant_limit));
  rej["memory_watermark"] =
      JsonValue::Number(static_cast<double>(c.rejected_memory_watermark));
  rej["connection_limit"] =
      JsonValue::Number(static_cast<double>(c.rejected_connection_limit));
  rej["disk_degraded"] =
      JsonValue::Number(static_cast<double>(c.rejected_disk_degraded));

  std::map<std::string, JsonValue> m;
  m["connections"] = JsonValue::Number(static_cast<double>(c.connections));
  m["accept_errors"] =
      JsonValue::Number(static_cast<double>(c.accept_errors));
  m["cache_persist_ok"] =
      JsonValue::Number(static_cast<double>(c.cache_persist_ok));
  m["cache_persist_failed"] =
      JsonValue::Number(static_cast<double>(c.cache_persist_failed));
  m["admitted"] = JsonValue::Number(static_cast<double>(c.admitted));
  m["rejected"] = JsonValue::Object(std::move(rej));
  m["slowloris_evicted"] =
      JsonValue::Number(static_cast<double>(c.slowloris_evicted));
  m["idle_reaped"] = JsonValue::Number(static_cast<double>(c.idle_reaped));
  m["completed_ok"] = JsonValue::Number(static_cast<double>(c.completed_ok));
  m["completed_timeout"] =
      JsonValue::Number(static_cast<double>(c.completed_timeout));
  m["completed_error"] =
      JsonValue::Number(static_cast<double>(c.completed_error));
  m["retries"] = JsonValue::Number(static_cast<double>(c.retries));
  m["worker_crashes"] =
      JsonValue::Number(static_cast<double>(c.worker_crashes));
  m["drain_interrupted"] =
      JsonValue::Number(static_cast<double>(c.drain_interrupted));
  return JsonValue::Object(std::move(m));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      tenants_(std::move(options_.tenants)),
      cache_(options_.cache_capacity_bytes),
      // The probe exercises whichever disk the daemon persists to; with no
      // durable paths configured the monitor is inert (nothing reports
      // failures into it).
      disk_(!options_.cache_dir.empty() ? options_.cache_dir
                                        : options_.checkpoint_root,
            options_.disk_failure_threshold,
            std::chrono::milliseconds(static_cast<long long>(
                options_.disk_probe_interval_seconds * 1000.0))) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

Status Server::Start() {
  if (!options_.listen_address.empty()) {
    OCDD_ASSIGN_OR_RETURN(endpoint_, ParseEndpoint(options_.listen_address));
  } else if (!options_.socket_path.empty()) {
    endpoint_.kind = Endpoint::Kind::kUnix;
    endpoint_.path = options_.socket_path;
  } else {
    return Status::InvalidArgument(
        "serve: no endpoint (need a socket path or --listen)");
  }

  if (::pipe(stop_pipe_) != 0) {
    return Status::Internal("serve: pipe() failed");
  }
  OCDD_ASSIGN_OR_RETURN(BoundListener bound, ListenOn(endpoint_));
  listen_fd_ = bound.fd;
  endpoint_ = bound.endpoint;  // TCP port 0 → the kernel-assigned port

  if (!options_.cache_dir.empty() && cache_.enabled()) {
    SnapshotStore store(options_.cache_dir, "serve_cache");
    cache_.Load(store);
  }
  return Status::OK();
}

void Server::RequestStop() {
  // Only async-signal-safe calls here: the CLI invokes this from its
  // SIGTERM/SIGINT handler.
  char byte = 1;
  ssize_t ignored = ::write(stop_pipe_[1], &byte, 1);
  (void)ignored;
}

Status Server::Run() {
  if (listen_fd_ < 0) {
    return Status::Internal("serve: Run() before Start()");
  }
  for (std::size_t i = 0; i < options_.num_executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  maintenance_ = std::thread([this] { MaintenanceLoop(); });

  AcceptLoop();

  // --- Graceful drain -----------------------------------------------------
  draining_.store(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (endpoint_.kind == Endpoint::Kind::kUnix) {
    ::unlink(endpoint_.path.c_str());
  }

  // Reader threads first: each is time-bounded (frame deadline + socket
  // write timeout) and either answers inline — seeing draining_, a typed
  // reject — or pushes onto the queue. Waiting here means the queue flush
  // below sees every straggler, so no admitted fd is ever abandoned.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }

  // Queued-but-not-running requests get a typed reject: "every admitted
  // request terminates with a result, a typed reject, or a typed timeout".
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (!queue_.empty()) {
      Pending pending = std::move(queue_.front());
      queue_.pop_front();
      committed_memory_ -= pending.quota.budgets.memory_bytes;
      ++counters_.rejected_draining;
      lock.unlock();
      tenants_.Release(pending.request.tenant, /*completed=*/false);
      ServeResponse resp;
      resp.id = pending.request.id;
      resp.status = "rejected";
      resp.reject_reason = "draining";
      SendResponse(pending.fd, resp);
      lock.lock();
    }
  }
  queue_cv_.notify_all();

  // In-flight workers get the grace period to finish on their own, then the
  // interrupt flag flips and RunWorkerProcess SIGINTs them (they drain to a
  // checkpoint and emit partial JSON).
  const auto grace_end =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(options_.drain_grace_seconds);
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (running_ > 0 && std::chrono::steady_clock::now() < grace_end) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      lock.lock();
    }
    if (running_ > 0) interrupt_workers_.store(true);
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();

  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();

  // Final persist is attempted even when degraded — it is the last chance,
  // and if the disk came back since the last probe this is what saves the
  // cache. A failure here is the monitor's and the log's to report.
  PersistCache();
  return Status::OK();
}

void Server::MaintenanceLoop() {
  const bool periodic = options_.cache_persist_interval_seconds > 0.0;
  const auto persist_every = std::chrono::duration<double>(
      options_.cache_persist_interval_seconds);
  auto last_persist = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maint_mu_);
      maint_cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return maint_stop_; });
      if (maint_stop_) return;
    }
    if (disk_.ProbeDue() && disk_.Probe()) {
      // Recovered: catch up on the persistence suspended while degraded.
      std::fprintf(stderr, "serve: disk recovered, resuming persistence\n");
      last_persist = std::chrono::steady_clock::now();
      PersistCache();
      continue;
    }
    if (periodic && !disk_.degraded() &&
        std::chrono::steady_clock::now() - last_persist >= persist_every) {
      last_persist = std::chrono::steady_clock::now();
      PersistCache();
    }
  }
}

void Server::PersistCache() {
  if (options_.cache_dir.empty() || !cache_.enabled()) return;
  SnapshotStore store(options_.cache_dir, "serve_cache");
  Status saved = cache_.Save(store);
  if (saved.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.cache_persist_ok;
    }
    disk_.ReportSuccess();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.cache_persist_failed;
  }
  if (disk_.ReportFailure(saved.message())) {
    std::fprintf(stderr,
                 "serve: disk degraded (%s); serving from memory, "
                 "persistence suspended\n",
                 saved.message().c_str());
  } else {
    std::fprintf(stderr, "serve: cache persist failed: %s\n",
                 saved.message().c_str());
  }
}

void Server::AcceptLoop() {
  // accept() failure backoff, doubled per consecutive failure up to the cap.
  // EMFILE/ENFILE (fd exhaustion) would otherwise busy-spin this loop at
  // 100% CPU: the listen fd stays readable until the backlog is drained,
  // which a daemon out of descriptors cannot do. Backing off yields the CPU
  // and gives in-flight connections time to close and return fds.
  int backoff_ms = 0;  // reset on a successful accept, doubled on failure
  constexpr int kBackoffStartMs = 5;
  constexpr int kBackoffCapMs = 200;
  for (;;) {
    if (backoff_ms > 0) {
      // Sleep on the stop pipe only, so SIGTERM stays prompt even with the
      // listen fd permanently readable.
      pollfd stop = {stop_pipe_[0], POLLIN, 0};
      int src = ::poll(&stop, 1, backoff_ms);
      if (src < 0 && errno != EINTR) return;
      if (src > 0 && stop.revents != 0) return;  // RequestStop
    }
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // RequestStop
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      std::uint64_t errors;
      {
        std::lock_guard<std::mutex> lock(mu_);
        errors = ++counters_.accept_errors;
      }
      if (errors == 1) {
        std::fprintf(stderr, "serve: accept failed (%s); backing off\n",
                     std::strerror(errno));
      }
      backoff_ms = backoff_ms == 0
                       ? kBackoffStartMs
                       : std::min(backoff_ms * 2, kBackoffCapMs);
      continue;
    }
    backoff_ms = 0;
    SetIoDeadline(fd, options_.io_timeout_seconds);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.connections;
    }

    // Connection cap: reserved before the reader thread spawns so a flood
    // can never hold more than max_connections sockets + threads. The shed
    // path answers inline — the reject frame is tiny, so the send lands in
    // the socket buffer without blocking the accept loop.
    bool over_cap = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (options_.max_connections != 0 &&
          active_connections_ >= options_.max_connections) {
        over_cap = true;
      } else {
        ++active_connections_;
      }
    }
    if (over_cap) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.rejected_connection_limit;
      }
      ServeResponse resp;
      resp.status = "rejected";
      resp.reject_reason = "connection_limit";
      SendResponse(fd, resp);
      continue;
    }
    // Detached, but accounted: drain waits for active_connections_ == 0,
    // and every reader is time-bounded, so the wait terminates.
    std::thread(&Server::ConnectionThread, this, fd).detach();
  }
}

void Server::ConnectionThread(int fd) {
  if (!HandleConnection(fd)) ReleaseConnection();
}

void Server::ReleaseConnection() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  --active_connections_;
  conn_cv_.notify_all();
}

bool Server::HandleConnection(int fd) {
  // Read exactly one request frame, bounded in size by FrameLimits, per
  // read by the socket timeout, and in total by the frame deadline (the
  // slowloris guard). Torn frames, bad magic, oversized lengths and CRC
  // mismatches all land here as typed rejects.
  std::string payload;
  FrameError frame_error = FrameError::kNone;
  bool got_bytes = false;
  const IoStatus read_status =
      ReadFrame(fd, options_.frame_limits, options_.frame_deadline_seconds,
                &payload, &frame_error, &got_bytes);

  if (read_status != IoStatus::kOk) {
    if (!got_bytes) {
      // Idle reaper: the peer connected and said nothing until the deadline
      // (or hung up). Nobody is waiting for an answer; just close.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.idle_reaped;
      }
      ::close(fd);
      return false;
    }
    ServeResponse resp;
    resp.status = "rejected";
    if (frame_error != FrameError::kNone) {
      resp.reject_reason =
          std::string("bad_frame:") + FrameErrorName(frame_error);
    } else {
      resp.reject_reason = "torn_frame";
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.rejected_bad_frame;
      if (read_status == IoStatus::kTimeout) ++counters_.slowloris_evicted;
    }
    SendResponse(fd, resp);
    return false;
  }

  Result<ServeRequest> parsed =
      ParseRequest(payload, options_.request_limits);
  if (!parsed.ok()) {
    ServeResponse resp;
    resp.status = "rejected";
    resp.reject_reason = "bad_request";
    resp.error = parsed.status().message();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.rejected_bad_request;
    }
    SendResponse(fd, resp);
    return false;
  }
  ServeRequest request = std::move(*parsed);

  if (request.kind == "ping") {
    ServeResponse resp;
    resp.id = request.id;
    resp.status = "ok";
    SendResponse(fd, resp);
    return false;
  }
  if (request.kind == "stats") {
    ServeResponse resp;
    resp.id = request.id;
    resp.status = "ok";
    resp.have_report = true;
    resp.report = StatsJson();
    SendResponse(fd, resp);
    return false;
  }

  // kind == "run": admission control. Checks are ordered cheapest-first;
  // each reject is typed so clients can tell shed load (retry later) from
  // their own errors (don't retry).
  const TenantQuota quota = tenants_.QuotaFor(request.tenant);
  auto reject = [&](const char* reason,
                    std::uint64_t ServerCounters::*counter) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++(counters_.*counter);
    }
    ServeResponse resp;
    resp.id = request.id;
    resp.status = "rejected";
    resp.reject_reason = reason;
    SendResponse(fd, resp);
  };

  if (draining_.load()) {
    reject("draining", &ServerCounters::rejected_draining);
    return false;
  }
  if (request.kind == "apply_batch" && disk_.degraded()) {
    // Batch application *needs* durable state — its whole output is a new
    // warm-state generation on disk. Unlike run requests (served from
    // memory, checkpoints merely suspended), it is shed, typed, while the
    // disk is down.
    reject("disk_degraded", &ServerCounters::rejected_disk_degraded);
    return false;
  }
  if (!tenants_.TryAdmit(request.tenant)) {
    reject("tenant_limit", &ServerCounters::rejected_tenant_limit);
    return false;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= options_.queue_capacity) {
      lock.unlock();
      tenants_.Release(request.tenant, /*completed=*/false);
      reject("queue_full", &ServerCounters::rejected_queue_full);
      return false;
    }
    const std::size_t mem = quota.budgets.memory_bytes;
    if (options_.memory_watermark_bytes != 0 &&
        committed_memory_ + mem > options_.memory_watermark_bytes) {
      lock.unlock();
      tenants_.Release(request.tenant, /*completed=*/false);
      reject("memory_watermark", &ServerCounters::rejected_memory_watermark);
      return false;
    }
    committed_memory_ += mem;
    ++counters_.admitted;
    queue_.push_back(Pending{fd, std::move(request), quota});
    // The hand-off frees the slot, after the push (drain waits for the
    // slots before it flushes the queue, so it sees this request) and
    // before an executor wakes (a finished request never holds a slot
    // while this thread waits to be scheduled). Nothing of the server is
    // touched once `mu_` is released.
    ReleaseConnection();
    queue_cv_.notify_one();
  }
  return true;
}

void Server::ExecutorLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load();
      });
      if (queue_.empty()) {
        if (draining_.load()) return;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    ServeResponse resp = Execute(pending);
    FinishRequest(pending, resp);
  }
}

void Server::FinishRequest(const Pending& pending,
                           const ServeResponse& response) {
  // Bookkeeping strictly before the response bytes leave: a client that
  // sees its answer and immediately asks for stats must observe this
  // request as finished.
  tenants_.Release(pending.request.tenant, /*completed=*/true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    committed_memory_ -= pending.quota.budgets.memory_bytes;
    --running_;
    if (response.status == "ok") {
      ++counters_.completed_ok;
    } else if (response.status == "timeout") {
      ++counters_.completed_timeout;
    } else {
      ++counters_.completed_error;
    }
  }
  SendResponse(pending.fd, response);
}

ServeResponse Server::Execute(const Pending& pending) {
  const ServeRequest& request = pending.request;
  ServeResponse resp;
  resp.id = request.id;

  // Incremental maintenance: never cached (it mutates state) and requires a
  // stateful daemon — the warm state lives under the checkpoint root.
  if (request.kind == "apply_batch") {
    if (options_.checkpoint_root.empty() ||
        options_.batch_worker_argv_prefix.empty()) {
      resp.status = "error";
      resp.error =
          "apply_batch requires a stateful daemon (--checkpoint-root)";
      return resp;
    }
    return RunBatchWorker(pending);
  }

  // Loading the source in-process both validates it early (the hardened
  // ingest boundary runs here, before any worker is spawned) and yields the
  // content fingerprint the cache is keyed by.
  Result<std::uint64_t> fingerprint = SourceFingerprint(request);
  if (!fingerprint.ok()) {
    resp.status = "error";
    resp.error = "source: " + fingerprint.status().message();
    return resp;
  }
  const CacheKey key{*fingerprint, RequestDigest(request)};

  const bool cacheable = request.use_cache && cache_.enabled();
  resp.cache = cacheable ? "miss" : "off";
  if (cacheable) {
    std::string cached;
    if (cache_.Get(key, &cached)) {
      Result<JsonValue> doc = report::ParseJson(cached);
      if (doc.ok()) {
        resp.status = "ok";
        resp.cache = "hit";
        resp.have_report = true;
        resp.report = std::move(*doc);
        return resp;
      }
      // An unparseable cache entry cannot happen through Put (entries are
      // serialized reports), but a corrupt snapshot that still passed CRC
      // is conceivable; treat it as a miss.
    }
  }

  return RunWorker(pending, *fingerprint, key);
}

ServeResponse Server::RunWorker(const Pending& pending,
                                std::uint64_t /*fingerprint*/,
                                const CacheKey& key) {
  const ServeRequest& request = pending.request;
  ServeResponse resp;
  resp.id = request.id;
  resp.cache = request.use_cache && cache_.enabled() ? "miss" : "off";

  std::vector<std::string> args = options_.worker_argv_prefix;
  args.push_back(request.source);
  args.push_back("--algo");
  args.push_back(request.algo);
  args.push_back("--json");
  if (request.rows != 0) {
    args.push_back("--rows");
    args.push_back(std::to_string(request.rows));
  }
  args.push_back("--seed");
  args.push_back(std::to_string(request.seed));
  if (request.max_level != 0) {
    args.push_back("--max-level");
    args.push_back(std::to_string(request.max_level));
  }
  for (std::string& flag : pending.quota.budgets.ToCliFlags()) {
    args.push_back(std::move(flag));
  }
  // Degraded disk: run the worker without a checkpoint dir rather than let
  // it die on ENOSPC mid-run. The request still completes from memory; it
  // just loses crash-resume. Captured once so the retry loop below stays
  // consistent even if health flips mid-request.
  const bool checkpointing =
      !options_.checkpoint_root.empty() && !disk_.degraded();
  if (checkpointing) {
    args.push_back("--checkpoint");
    args.push_back(options_.checkpoint_root + "/" + HexKey(key));
  }

  engine::WorkerRunOptions run_options;
  run_options.timeout_seconds = options_.request_timeout_seconds;
  run_options.interrupt = &interrupt_workers_;

  const int max_attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    resp.attempts = attempt;
    std::vector<std::string> attempt_args = args;
    if (checkpointing && attempt > 1) attempt_args.push_back("--resume");

    engine::WorkerOutcome outcome =
        engine::RunWorkerProcess(attempt_args, run_options);

    if (outcome.spawn_failed) {
      resp.status = "error";
      resp.error = "worker spawn failed";
      return resp;
    }

    bool json_valid = false;
    bool completed = false;
    std::string stop_reason;
    JsonValue doc;
    Result<JsonValue> parsed = report::ParseJson(outcome.stdout_text);
    if (parsed.ok() && parsed->kind() == JsonValue::Kind::kObject) {
      json_valid = true;
      doc = std::move(*parsed);
      completed = doc["completed"].bool_value();
      stop_reason = doc["stop_reason"].string_value();
    }

    if (outcome.timed_out) {
      // The serve-side backstop fired: a typed timeout, with the partial
      // report attached when the worker drained in time.
      resp.status = "timeout";
      if (json_valid) {
        resp.have_report = true;
        resp.report = std::move(doc);
      }
      return resp;
    }
    if (outcome.interrupted) {
      // Drain interrupt: a partial report is still an answer; without one
      // the request ends as a typed error. Either way it terminates.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.drain_interrupted;
      }
      if (json_valid) {
        resp.status = "ok";
        resp.have_report = true;
        resp.report = std::move(doc);
      } else {
        resp.status = "error";
        resp.error = "interrupted by daemon drain";
      }
      return resp;
    }

    const engine::ChildVerdict verdict = engine::ClassifyChild(
        outcome.exit_code, outcome.term_signal, json_valid, completed,
        stop_reason);
    switch (verdict) {
      case engine::ChildVerdict::kCompleted:
      case engine::ChildVerdict::kRetryableStop:
      case engine::ChildVerdict::kStructuralStop: {
        // A clean report — complete or stopped-with-reason — is the answer.
        // Budget stops are the tenant's own quota doing its job, not a
        // serve fault, so they are not retried here.
        resp.status = "ok";
        resp.have_report = true;
        resp.report = std::move(doc);
        if (completed && request.use_cache && cache_.enabled()) {
          cache_.Put(key, outcome.stdout_text);
        }
        return resp;
      }
      case engine::ChildVerdict::kCrash: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++counters_.worker_crashes;
          if (attempt < max_attempts) ++counters_.retries;
        }
        if (attempt == max_attempts) {
          resp.status = "error";
          resp.error = "worker crashed (signal " +
                       std::to_string(outcome.term_signal) + ") on all " +
                       std::to_string(max_attempts) + " attempts";
          return resp;
        }
        // Bounded exponential backoff before the retry; the drain
        // interrupt shortcuts the sleep so SIGTERM stays prompt.
        double delay = options_.backoff_base_seconds;
        for (int i = 1; i < attempt; ++i) delay *= 2.0;
        if (delay > options_.backoff_cap_seconds) {
          delay = options_.backoff_cap_seconds;
        }
        const auto wake = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(delay);
        while (std::chrono::steady_clock::now() < wake &&
               !interrupt_workers_.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        continue;
      }
      case engine::ChildVerdict::kChildError: {
        resp.status = "error";
        resp.error =
            "worker exited with code " + std::to_string(outcome.exit_code);
        return resp;
      }
      case engine::ChildVerdict::kNoReport: {
        resp.status = "error";
        resp.error = "worker produced no parseable JSON report";
        return resp;
      }
    }
  }
  // Unreachable: every verdict above returns or continues within bounds.
  resp.status = "error";
  resp.error = "retry loop exhausted";
  return resp;
}

ServeResponse Server::RunBatchWorker(const Pending& pending) {
  const ServeRequest& request = pending.request;
  ServeResponse resp;
  resp.id = request.id;
  resp.cache = "off";

  // Warm state is scoped per tenant: two tenants using the same state name
  // never share (or clobber) each other's sessions. The name itself was
  // validated at the protocol boundary ([A-Za-z0-9._-], no leading dot).
  const std::string state_dir = options_.checkpoint_root + "/incremental/" +
                                request.tenant + "/" + request.state;

  std::vector<std::string> args = options_.batch_worker_argv_prefix;
  if (!request.batch.empty()) args.push_back(request.batch);
  args.push_back("--state");
  args.push_back(state_dir);
  if (!request.source.empty()) {
    args.push_back("--base");
    args.push_back(request.source);
    args.push_back("--seed");
    args.push_back(std::to_string(request.seed));
    if (request.rows != 0) {
      args.push_back("--rows");
      args.push_back(std::to_string(request.rows));
    }
  }
  if (request.max_level != 0) {
    args.push_back("--max-level");
    args.push_back(std::to_string(request.max_level));
  }
  args.push_back("--json");
  for (std::string& flag : pending.quota.budgets.ToCliFlags()) {
    args.push_back(std::move(flag));
  }

  engine::WorkerRunOptions run_options;
  run_options.timeout_seconds = options_.request_timeout_seconds;
  run_options.interrupt = &interrupt_workers_;

  // Exactly one attempt: a batch application is not idempotent from the
  // outside (a crash *after* the new warm generation landed but before the
  // report was read would re-apply the batch on retry). The warm-state
  // store's atomic generation writes make the single attempt all-or-nothing
  // at every crash point; the client consults `batch_seq` and replays.
  resp.attempts = 1;
  engine::WorkerOutcome outcome = engine::RunWorkerProcess(args, run_options);

  if (outcome.spawn_failed) {
    resp.status = "error";
    resp.error = "worker spawn failed";
    return resp;
  }

  bool json_valid = false;
  JsonValue doc;
  Result<JsonValue> parsed = report::ParseJson(outcome.stdout_text);
  if (parsed.ok() && parsed->kind() == JsonValue::Kind::kObject) {
    json_valid = true;
    doc = std::move(*parsed);
  }

  if (outcome.timed_out) {
    resp.status = "timeout";
    if (json_valid) {
      resp.have_report = true;
      resp.report = std::move(doc);
    }
    return resp;
  }
  if (outcome.interrupted) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.drain_interrupted;
    }
    resp.status = "error";
    resp.error = "interrupted by daemon drain";
    return resp;
  }
  if (outcome.term_signal != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.worker_crashes;
    resp.status = "error";
    resp.error =
        "worker crashed (signal " + std::to_string(outcome.term_signal) + ")";
    return resp;
  }
  if (outcome.exit_code != 0) {
    resp.status = "error";
    resp.error =
        "worker exited with code " + std::to_string(outcome.exit_code);
    return resp;
  }
  if (!json_valid) {
    resp.status = "error";
    resp.error = "worker produced no parseable JSON report";
    return resp;
  }
  resp.status = "ok";
  resp.have_report = true;
  resp.report = std::move(doc);
  return resp;
}

void Server::SendResponse(int fd, ServeResponse response) {
  // Every response carries the disk-health flag: clients learn the answer
  // they just got was served from memory with persistence suspended.
  response.disk_degraded = disk_.degraded();
  // Best-effort: the client may already be gone; the daemon never treats a
  // dead peer as its own failure. WriteFull loops on EINTR/short writes
  // with MSG_NOSIGNAL, so a hung-up peer surfaces as an error, not SIGPIPE.
  WriteFull(fd, EncodeFrame(SerializeResponse(response)));
  ::close(fd);
}

report::JsonValue Server::StatsJson() const {
  std::map<std::string, JsonValue> m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    m["counters"] = CountersJson(counters_);
    m["queued"] = JsonValue::Number(static_cast<double>(queue_.size()));
    m["running"] = JsonValue::Number(static_cast<double>(running_));
    m["committed_memory_bytes"] =
        JsonValue::Number(static_cast<double>(committed_memory_));
  }
  m["draining"] = JsonValue::Bool(draining_.load());

  std::map<std::string, JsonValue> dj;
  dj["health"] = JsonValue::String(DiskHealthName(disk_.health()));
  dj["degraded"] = JsonValue::Bool(disk_.degraded());
  dj["consecutive_failures"] =
      JsonValue::Number(static_cast<double>(disk_.consecutive_failures()));
  dj["degraded_entered"] =
      JsonValue::Number(static_cast<double>(disk_.degraded_entered()));
  dj["recovered"] = JsonValue::Number(static_cast<double>(disk_.recovered()));
  dj["probes_attempted"] =
      JsonValue::Number(static_cast<double>(disk_.probes_attempted()));
  const std::string last_failure = disk_.last_failure();
  if (!last_failure.empty()) {
    dj["last_failure"] = JsonValue::String(last_failure);
  }
  m["disk"] = JsonValue::Object(std::move(dj));

  const CacheStats cache = cache_.Stats();
  std::map<std::string, JsonValue> cj;
  cj["hits"] = JsonValue::Number(static_cast<double>(cache.hits));
  cj["misses"] = JsonValue::Number(static_cast<double>(cache.misses));
  cj["insertions"] = JsonValue::Number(static_cast<double>(cache.insertions));
  cj["evictions"] = JsonValue::Number(static_cast<double>(cache.evictions));
  cj["bytes"] = JsonValue::Number(static_cast<double>(cache.bytes));
  cj["entries"] = JsonValue::Number(static_cast<double>(cache.entries));
  cj["load_corrupt_skipped"] =
      JsonValue::Number(static_cast<double>(cache.load_corrupt_skipped));
  cj["load_failed"] = JsonValue::Bool(cache.load_failed);
  m["cache"] = JsonValue::Object(std::move(cj));

  std::map<std::string, JsonValue> tj;
  for (const auto& [tenant, stats] : tenants_.Snapshot()) {
    std::map<std::string, JsonValue> t;
    t["in_flight"] = JsonValue::Number(static_cast<double>(stats.in_flight));
    t["admitted"] = JsonValue::Number(static_cast<double>(stats.admitted));
    t["rejected_limit"] =
        JsonValue::Number(static_cast<double>(stats.rejected_limit));
    t["completed"] = JsonValue::Number(static_cast<double>(stats.completed));
    tj[tenant] = JsonValue::Object(std::move(t));
  }
  m["tenants"] = JsonValue::Object(std::move(tj));
  return JsonValue::Object(std::move(m));
}

}  // namespace ocdd::serve
