#ifndef OCDD_SERVE_SERVER_H_
#define OCDD_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "report/json_reader.h"
#include "serve/cache.h"
#include "serve/disk_health.h"
#include "serve/protocol.h"
#include "serve/tenant.h"
#include "serve/transport.h"

namespace ocdd::serve {

/// Configuration of one `ocdd serve` daemon (docs/serving.md).
struct ServerOptions {
  /// Unix-domain socket path; a stale file is unlinked at bind time.
  std::string socket_path;

  /// Endpoint spec overriding `socket_path` when non-empty — the CLI's
  /// `--listen`. Accepts everything ParseEndpoint does; "127.0.0.1:0" binds
  /// an ephemeral TCP port (the bound port is in `endpoint()` after Start).
  std::string listen_address;

  /// Executor threads; each runs at most one worker process at a time, so
  /// this is also the daemon-wide concurrency cap.
  std::size_t num_executors = 2;

  /// Admitted-but-not-yet-running requests the daemon will hold; beyond
  /// this the daemon sheds load with a typed `queue_full` reject.
  std::size_t queue_capacity = 16;

  /// Concurrent connections being read or answered inline; a request
  /// handed to the queue frees its connection's slot. Beyond this new
  /// connections are shed with a typed `connection_limit` reject. 0 = no
  /// cap. Distinct from `queue_capacity`: this bounds *sockets* (and the
  /// short-lived reader thread each one holds), that bounds admitted work.
  std::size_t max_connections = 64;

  /// Serve-side wall-clock backstop per worker attempt; 0 = none. The
  /// tenant's own time budget travels to the worker as `--time-limit` and
  /// normally fires first (a clean in-band stop); this one catches workers
  /// that stopped cooperating.
  double request_timeout_seconds = 0.0;

  /// Crash-retry policy: total attempts per request (first run included)
  /// and the bounded exponential backoff between them. Only signal deaths
  /// retry — clean stops and error exits are answers, not faults.
  int max_attempts = 3;
  double backoff_base_seconds = 0.05;
  double backoff_cap_seconds = 1.0;

  /// Seconds a SIGTERM drain waits for in-flight workers to finish on their
  /// own before interrupting them (SIGINT → they checkpoint and emit
  /// partial JSON).
  double drain_grace_seconds = 5.0;

  /// Admission watermark over the *committed* memory budgets of queued and
  /// running requests (each request commits its tenant's memory budget at
  /// admission); 0 disables. Requests whose admission would push the sum
  /// past the watermark are shed with `memory_watermark`.
  std::size_t memory_watermark_bytes = 0;

  /// Result cache budget; 0 disables caching entirely.
  std::size_t cache_capacity_bytes = 16u << 20;
  /// Directory for cache persistence across restarts; empty = memory only.
  std::string cache_dir;

  /// Root directory for per-request worker checkpoints (one subdirectory
  /// per cache key); empty disables worker checkpointing. With it set,
  /// crash retries resume instead of recomputing, and drain-interrupted
  /// workers leave a resumable snapshot behind.
  std::string checkpoint_root;

  /// Seconds between periodic result-cache persists while serving; 0 keeps
  /// the old behavior (persist only at drain). Periodic persistence both
  /// bounds the result loss of a daemon crash and gives the disk-health
  /// monitor a live write path to observe.
  double cache_persist_interval_seconds = 0.0;

  /// Consecutive durable-write failures before the daemon flips to disk
  /// degraded mode (docs/robustness.md, "Degraded mode"). In degraded mode
  /// the daemon keeps serving from memory: persistence is suspended,
  /// workers run without checkpoint dirs, and apply_batch (which *needs*
  /// disk) is shed with a typed `disk_degraded` reject.
  int disk_failure_threshold = 1;

  /// Seconds between recovery probes (write+fsync+unlink of a small file)
  /// while degraded; a successful probe returns the daemon to healthy and
  /// triggers a catch-up persist.
  double disk_probe_interval_seconds = 5.0;

  TenantConfig tenants;

  /// Worker argv prefix; the executor appends `<source> --algo <algo>
  /// --json` plus budget/checkpoint flags. The CLI passes
  /// `{self_exe, "run"}`; tests substitute `{"/bin/sh", script.sh}` fakes.
  std::vector<std::string> worker_argv_prefix;

  /// Worker argv prefix for "apply_batch" requests (incremental
  /// maintenance, docs/incremental.md); the executor appends `[<batch>]
  /// --state <dir> [--base <source>] --json` plus budget flags. The CLI
  /// passes `{self_exe, "apply-batch"}`. Requires `checkpoint_root` (the
  /// warm state lives under `<root>/incremental/<tenant>/<state>`); a
  /// stateless daemon answers apply_batch with a typed error.
  std::vector<std::string> batch_worker_argv_prefix;

  FrameLimits frame_limits;
  RequestLimits request_limits;

  /// Per-read/write socket timeout — one recv/send that makes no progress
  /// for this long fails. A client that stops mid-frame (torn frame) is
  /// answered with a typed reject and closed, never waited on forever.
  double io_timeout_seconds = 5.0;

  /// Total wall-clock budget for reading one request frame — the slowloris
  /// guard. A client trickling one byte per io_timeout window keeps each
  /// read alive but still hits this deadline and is evicted. Also the idle
  /// reaper: a connection that sends nothing at all for this long is closed
  /// silently. 0 = no total deadline (per-read timeout still applies).
  double frame_deadline_seconds = 10.0;
};

/// Aggregate daemon counters, all under one lock with the admission state so
/// a `stats` response is a consistent snapshot.
struct ServerCounters {
  std::uint64_t connections = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_bad_frame = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_limit = 0;
  std::uint64_t rejected_memory_watermark = 0;
  std::uint64_t rejected_connection_limit = 0;
  /// apply_batch shed while the disk was degraded (needs durable state).
  std::uint64_t rejected_disk_degraded = 0;
  /// accept() failures (EMFILE/ENFILE/...); each backs the accept loop off
  /// instead of busy-spinning.
  std::uint64_t accept_errors = 0;
  /// Periodic/drain cache persists that succeeded / failed.
  std::uint64_t cache_persist_ok = 0;
  std::uint64_t cache_persist_failed = 0;
  /// Connections evicted by the frame deadline after sending *some* bytes —
  /// slowloris clients (typed `torn_frame` reject, best effort).
  std::uint64_t slowloris_evicted = 0;
  /// Connections reaped by the frame deadline having sent *no* bytes —
  /// idle peers, closed without a response.
  std::uint64_t idle_reaped = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_timeout = 0;
  std::uint64_t completed_error = 0;
  std::uint64_t retries = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t drain_interrupted = 0;
};

/// The `ocdd serve` daemon: accept loop, per-connection reader threads,
/// admission control, a bounded queue feeding a pool of executor threads
/// (one worker process each), the result cache, and graceful drain.
/// Single-use: construct, Start(), Run().
///
/// Connection lifecycle: the accept loop only accepts and enforces the
/// connection cap; a short-lived reader thread reads the single request
/// frame (bounded by the per-read timeout *and* the total frame deadline)
/// and either answers inline (ping/stats/reject) or queues the work. The
/// executor that runs the worker sends the response and closes the fd. One
/// slow or malicious client therefore never blocks accepts or other
/// connections.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the endpoint and loads the persisted cache.
  Status Start();

  /// Serves until RequestStop(); then drains (reject queued, grace then
  /// interrupt in-flight, persist cache) and returns. Blocking.
  Status Run();

  /// Initiates graceful drain. Async-signal-safe (one write() on a pipe) —
  /// the CLI calls this straight from its SIGTERM handler.
  void RequestStop();

  /// Consistent stats snapshot (the `stats` request payload and the final
  /// drain report).
  report::JsonValue StatsJson() const;

  const std::string& socket_path() const { return options_.socket_path; }

  /// The bound endpoint. After Start() on a TCP spec with port 0 this
  /// carries the kernel-assigned port, so tests can bind ephemerally.
  const Endpoint& endpoint() const { return endpoint_; }

 private:
  struct Pending {
    int fd = -1;
    ServeRequest request;
    TenantQuota quota;
  };

  void AcceptLoop();
  /// Answers or queues one connection's request; true when it queued it,
  /// which frees the connection slot.
  bool HandleConnection(int fd);
  void ConnectionThread(int fd);
  /// Frees one connection slot and wakes the drain.
  void ReleaseConnection();
  void ExecutorLoop();
  /// Periodic cache persistence + degraded-mode probe-and-recover.
  void MaintenanceLoop();
  /// One cache persist attempt, reported to the disk-health monitor.
  void PersistCache();
  ServeResponse Execute(const Pending& pending);
  ServeResponse RunWorker(const Pending& pending, std::uint64_t fingerprint,
                          const CacheKey& key);
  ServeResponse RunBatchWorker(const Pending& pending);
  /// Stamps the disk_degraded flag on the response, sends it, closes fd.
  void SendResponse(int fd, ServeResponse response);
  void FinishRequest(const Pending& pending, const ServeResponse& response);

  ServerOptions options_;
  TenantTable tenants_;
  ResultCache cache_;
  DiskHealthMonitor disk_;

  Endpoint endpoint_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::atomic<bool> draining_{false};
  /// Flipped when the drain grace expires; RunWorkerProcess SIGINTs
  /// children watching it.
  std::atomic<bool> interrupt_workers_{false};

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::size_t running_ = 0;
  /// Sum of committed memory budgets of queued + running requests.
  std::size_t committed_memory_ = 0;
  ServerCounters counters_;

  /// Connection slots in use: a reader thread (detached) holds one until
  /// it answers its request or queues it. Drain waits for the count to
  /// reach zero — every reader is time-bounded by the frame deadline, so
  /// the wait terminates.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::size_t active_connections_ = 0;

  std::vector<std::thread> executors_;

  /// Maintenance thread (periodic persist + disk probes); joined at drain.
  std::thread maintenance_;
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
};

}  // namespace ocdd::serve

#endif  // OCDD_SERVE_SERVER_H_
