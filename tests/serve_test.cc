// Fault matrix for the `ocdd serve` daemon (docs/serving.md): worker kill
// mid-request, torn protocol frames, cache-file corruption, queue overflow,
// tenant and memory admission, graceful drain. The Server runs in-process
// with sh-script fake workers (the supervise_test pattern: the daemon only
// sees argv, exit status, and stdout, so a script models any worker), and
// every case asserts the core contract: the daemon never crashes and every
// admitted request terminates with a result, a typed reject, or a typed
// timeout.

#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/tenant.h"

namespace ocdd::serve {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_serve_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string WriteScript(const ScratchDir& scratch, const std::string& name,
                        const std::string& body) {
  std::string path = scratch.path + "/" + name;
  {
    std::ofstream out(path, std::ios::trunc);
    out << "#!/bin/sh\n" << body;
  }
  ::chmod(path.c_str(), 0755);
  return path;
}

/// A worker-report JSON line, single-quoted for sh echo.
std::string ReportLine(bool completed, const std::string& stop_reason) {
  return "echo '{\"completed\":" + std::string(completed ? "true" : "false") +
         ",\"stop_reason\":\"" + stop_reason +
         "\",\"algorithm\":\"fake\",\"checks\":10}'\n";
}

/// Runs one Server on its own thread for the duration of a test case.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options)
      : server_(std::move(options)) {
    Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] {
      Status ran = server_.Run();
      EXPECT_TRUE(ran.ok()) << ran.ToString();
    });
  }

  ~ServerHarness() { StopAndJoin(); }

  void StopAndJoin() {
    if (thread_.joinable()) {
      server_.RequestStop();
      thread_.join();
    }
  }

  Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerOptions BaseOptions(const ScratchDir& scratch,
                          const std::string& worker_script) {
  ServerOptions options;
  options.socket_path = scratch.path + "/daemon.sock";
  options.num_executors = 2;
  options.worker_argv_prefix = {"/bin/sh", worker_script};
  options.backoff_base_seconds = 0.001;
  options.backoff_cap_seconds = 0.002;
  options.drain_grace_seconds = 0.05;
  options.io_timeout_seconds = 2.0;
  return options;
}

ServeRequest RunRequest(const std::string& id,
                        const std::string& tenant = "default") {
  ServeRequest req;
  req.kind = "run";
  req.id = id;
  req.tenant = tenant;
  req.source = "NUMBERS";  // tiny built-in dataset; fingerprinting is real
  req.rows = 50;
  return req;
}

ClientOptions FastClient() {
  ClientOptions options;
  options.io_timeout_seconds = 20.0;
  return options;
}

/// Sends raw bytes (possibly a malformed frame), half-closes, and decodes
/// whatever single response frame comes back.
Result<ServeResponse> RawExchange(const std::string& socket_path,
                                  const std::string& bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal("connect failed");
  }
  if (!bytes.empty()) {
    ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n != static_cast<ssize_t>(bytes.size())) {
      ::close(fd);
      return Status::Internal("short write");
    }
  }
  ::shutdown(fd, SHUT_WR);  // a client that will never finish its frame

  FrameDecoder decoder;
  std::string payload;
  FrameError error;
  char buf[4096];
  for (;;) {
    FrameDecoder::Event ev = decoder.Next(&payload, &error);
    if (ev == FrameDecoder::Event::kFrame) break;
    if (ev == FrameDecoder::Event::kError) {
      ::close(fd);
      return Status::ParseError("bad response frame");
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("no response before EOF");
    }
    decoder.Feed(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ParseResponse(payload);
}

// ---------------------------------------------------------------------------
// Happy path + cache
// ---------------------------------------------------------------------------

TEST(ServeTest, RunPingStatsAndCacheHit) {
  ScratchDir scratch("happy");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));
  const std::string sock = harness.server().socket_path();

  ServeRequest ping;
  ping.kind = "ping";
  auto pong = SendRequest(sock, ping, FastClient());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->status, "ok");

  auto first = SendRequest(sock, RunRequest("r1"), FastClient());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, "ok");
  EXPECT_EQ(first->id, "r1");
  EXPECT_EQ(first->cache, "miss");
  EXPECT_EQ(first->attempts, 1);
  ASSERT_TRUE(first->have_report);
  EXPECT_TRUE(first->report["completed"].bool_value());

  // Identical request, different tenant and id: served from the cache
  // without a worker (attempts 0).
  auto second = SendRequest(sock, RunRequest("r2", "other"), FastClient());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, "ok");
  EXPECT_EQ(second->cache, "hit");
  EXPECT_EQ(second->attempts, 0);

  // use_cache=false forces a fresh worker.
  ServeRequest uncached = RunRequest("r3");
  uncached.use_cache = false;
  auto third = SendRequest(sock, uncached, FastClient());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->cache, "off");
  EXPECT_EQ(third->attempts, 1);

  ServeRequest stats;
  stats.kind = "stats";
  auto st = SendRequest(sock, stats, FastClient());
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->have_report);
  const report::JsonValue& counters = st->report["counters"];
  EXPECT_EQ(counters["admitted"].number_value(), 3.0);
  EXPECT_EQ(counters["completed_ok"].number_value(), 3.0);
  EXPECT_EQ(st->report["cache"]["hits"].number_value(), 1.0);
}

TEST(ServeTest, BudgetStoppedWorkerIsStillAnOkAnswer) {
  ScratchDir scratch("stopped");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(false, "check_budget"));
  ServerHarness harness(BaseOptions(scratch, script));

  auto resp =
      SendRequest(harness.server().socket_path(), RunRequest("r"), FastClient());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, "ok");
  ASSERT_TRUE(resp->have_report);
  EXPECT_FALSE(resp->report["completed"].bool_value());
  // Partial results are never cached.
  auto again = SendRequest(harness.server().socket_path(), RunRequest("r2"),
                           FastClient());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->cache, "miss");
}

// ---------------------------------------------------------------------------
// Fault matrix: worker kill mid-request
// ---------------------------------------------------------------------------

TEST(ServeTest, WorkerCrashRetriesThenSucceeds) {
  ScratchDir scratch("crash_retry");
  std::string script = WriteScript(
      scratch, "worker.sh",
      "marker=\"" + scratch.path + "/crashed_once\"\n"
      "if [ ! -f \"$marker\" ]; then\n"
      "  touch \"$marker\"\n"
      "  kill -9 $$\n"
      "fi\n" +
          ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));

  auto resp =
      SendRequest(harness.server().socket_path(), RunRequest("r"), FastClient());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "ok");
  EXPECT_EQ(resp->attempts, 2);

  ServeRequest stats;
  stats.kind = "stats";
  auto st = SendRequest(harness.server().socket_path(), stats, FastClient());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->report["counters"]["worker_crashes"].number_value(), 1.0);
  EXPECT_EQ(st->report["counters"]["retries"].number_value(), 1.0);
}

TEST(ServeTest, PersistentCrashExhaustsRetriesWithTypedError) {
  ScratchDir scratch("crash_always");
  std::string script = WriteScript(scratch, "worker.sh", "kill -9 $$\n");
  ServerOptions options = BaseOptions(scratch, script);
  options.max_attempts = 3;
  ServerHarness harness(std::move(options));

  auto resp =
      SendRequest(harness.server().socket_path(), RunRequest("r"), FastClient());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "error");
  EXPECT_EQ(resp->attempts, 3);
  EXPECT_NE(resp->error.find("signal 9"), std::string::npos) << resp->error;
}

TEST(ServeTest, WorkerErrorExitAndGarbageOutputAreTypedErrors) {
  ScratchDir scratch("worker_error");
  std::string bad_exit = WriteScript(scratch, "bad_exit.sh", "exit 2\n");
  std::string garbage =
      WriteScript(scratch, "garbage.sh", "echo this is not json\n");
  {
    ServerHarness harness(BaseOptions(scratch, bad_exit));
    auto resp = SendRequest(harness.server().socket_path(), RunRequest("r"),
                            FastClient());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, "error");
    EXPECT_NE(resp->error.find("code 2"), std::string::npos);
  }
  {
    ServerHarness harness(BaseOptions(scratch, garbage));
    auto resp = SendRequest(harness.server().socket_path(), RunRequest("r"),
                            FastClient());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, "error");
    EXPECT_NE(resp->error.find("no parseable"), std::string::npos);
  }
}

TEST(ServeTest, ServeSideTimeoutIsTyped) {
  ScratchDir scratch("timeout");
  // Ignores SIGINT so the escalation ladder has to SIGKILL it.
  std::string script =
      WriteScript(scratch, "worker.sh", "trap '' INT\nsleep 30\n");
  ServerOptions options = BaseOptions(scratch, script);
  options.request_timeout_seconds = 0.2;
  ServerHarness harness(std::move(options));

  auto resp =
      SendRequest(harness.server().socket_path(), RunRequest("r"), FastClient());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "timeout");
  EXPECT_FALSE(resp->have_report);
}

// ---------------------------------------------------------------------------
// Fault matrix: torn and malformed frames
// ---------------------------------------------------------------------------

TEST(ServeTest, TornFrameGetsTypedReject) {
  ScratchDir scratch("torn");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));

  // Half a frame, then EOF: the daemon answers with a typed reject instead
  // of hanging or crashing.
  const std::string full = EncodeFrame(SerializeRequest(RunRequest("r")));
  auto resp =
      RawExchange(harness.server().socket_path(), full.substr(0, 20));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "rejected");
  EXPECT_EQ(resp->reject_reason, "torn_frame");
}

TEST(ServeTest, BadMagicAndCrcMismatchGetTypedRejects) {
  ScratchDir scratch("badframe");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));
  const std::string sock = harness.server().socket_path();

  std::string bad_magic = EncodeFrame(SerializeRequest(RunRequest("r")));
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  auto resp1 = RawExchange(sock, bad_magic);
  ASSERT_TRUE(resp1.ok());
  EXPECT_EQ(resp1->status, "rejected");
  EXPECT_EQ(resp1->reject_reason, "bad_frame:bad_magic");

  std::string bad_crc = EncodeFrame(SerializeRequest(RunRequest("r")));
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x01);
  auto resp2 = RawExchange(sock, bad_crc);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->status, "rejected");
  EXPECT_EQ(resp2->reject_reason, "bad_frame:crc_mismatch");

  // The daemon survives the abuse and still serves honest clients.
  auto ok = SendRequest(sock, RunRequest("after"), FastClient());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, "ok");
}

TEST(ServeTest, MalformedJsonPayloadIsBadRequest) {
  ScratchDir scratch("badreq");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));

  auto resp = RawExchange(harness.server().socket_path(),
                          EncodeFrame("{\"kind\":\"run\",..."));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, "rejected");
  EXPECT_EQ(resp->reject_reason, "bad_request");
  EXPECT_FALSE(resp->error.empty());
}

TEST(ServeTest, UnloadableSourceIsTypedError) {
  ScratchDir scratch("badsource");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));

  ServeRequest req = RunRequest("r");
  req.source = "NO_SUCH_DATASET";
  auto resp = SendRequest(harness.server().socket_path(), req, FastClient());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, "error");
  EXPECT_NE(resp->error.find("source"), std::string::npos);
  EXPECT_EQ(resp->attempts, 0) << "no worker should have been spawned";
}

// ---------------------------------------------------------------------------
// Fault matrix: admission control and load shedding
// ---------------------------------------------------------------------------

TEST(ServeTest, QueueOverflowShedsWithTypedReject) {
  ScratchDir scratch("overflow");
  std::string script =
      WriteScript(scratch, "worker.sh", "sleep 0.4\n" + ReportLine(true, "none"));
  ServerOptions options = BaseOptions(scratch, script);
  options.num_executors = 1;
  options.queue_capacity = 1;
  ServerHarness harness(std::move(options));
  const std::string sock = harness.server().socket_path();

  // Fill the single executor, give it time to be picked up, then flood.
  std::vector<std::thread> threads;
  std::vector<std::string> statuses(5);
  std::vector<std::string> reasons(5);
  for (int i = 0; i < 5; ++i) {
    threads.emplace_back([&, i] {
      std::string id = "r";
      id += std::to_string(i);
      ServeRequest req = RunRequest(id);
      req.use_cache = false;
      auto resp = SendRequest(sock, req, FastClient());
      if (resp.ok()) {
        statuses[i] = resp->status;
        reasons[i] = resp->reject_reason;
      } else {
        statuses[i] = "transport_error";
      }
    });
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (auto& t : threads) t.join();

  int ok = 0, shed = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(statuses[i] == "ok" || statuses[i] == "rejected")
        << statuses[i];
    if (statuses[i] == "ok") ++ok;
    if (statuses[i] == "rejected") {
      EXPECT_EQ(reasons[i], "queue_full");
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "5 requests into 1 executor + 1 slot must shed";
  EXPECT_EQ(ok + shed, 5) << "every request terminated typed";
}

TEST(ServeTest, SequentialClientsNeverHitTheConnectionCap) {
  // Each client sends its requests one after another, so no more
  // connections than clients are ever open at once: with the cap above
  // that, none may be shed. A queued request frees its slot at the
  // hand-off, not when its reader thread is next scheduled.
  ScratchDir scratch("sequential");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  constexpr int kClients = 4;
  constexpr int kRequests = 500;
  ServerOptions options = BaseOptions(scratch, script);
  options.max_connections = kClients + 1;
  ServerHarness harness(options);
  const std::string sock = harness.server().socket_path();
  auto warm = SendRequest(sock, RunRequest("warm"), FastClient());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->status, "ok");

  std::atomic<int> not_ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequests; ++i) {
        auto resp = SendRequest(
            sock, RunRequest(std::to_string(c) + "-" + std::to_string(i)),
            FastClient());
        if (!resp.ok() || resp->status != "ok") ++not_ok;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(not_ok.load(), 0);

  ServeRequest stats;
  stats.kind = "stats";
  auto st = SendRequest(sock, stats, FastClient());
  ASSERT_TRUE(st.ok());
  const report::JsonValue& counters = st->report["counters"];
  EXPECT_EQ(counters["rejected"]["connection_limit"].number_value(), 0.0);
  EXPECT_EQ(counters["completed_ok"].number_value(),
            1.0 + kClients * kRequests);
}

TEST(ServeTest, TenantLimitIsEnforcedPerTenant) {
  ScratchDir scratch("tenant");
  std::string script =
      WriteScript(scratch, "worker.sh", "sleep 0.4\n" + ReportLine(true, "none"));
  ServerOptions options = BaseOptions(scratch, script);
  options.num_executors = 4;
  TenantQuota limited;
  limited.max_in_flight = 1;
  options.tenants.overrides["alice"] = limited;
  ServerHarness harness(std::move(options));
  const std::string sock = harness.server().socket_path();

  ServeRequest slow = RunRequest("a1", "alice");
  slow.use_cache = false;
  std::thread first([&] {
    auto resp = SendRequest(sock, slow, FastClient());
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Same tenant: over the cap → typed reject. Other tenant: unaffected.
  auto second = SendRequest(sock, RunRequest("a2", "alice"), FastClient());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, "rejected");
  EXPECT_EQ(second->reject_reason, "tenant_limit");

  ServeRequest other = RunRequest("b1", "bob");
  other.use_cache = false;
  auto third = SendRequest(sock, other, FastClient());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->status, "ok");
  first.join();
}

TEST(ServeTest, MemoryWatermarkSheds) {
  ScratchDir scratch("memory");
  std::string script =
      WriteScript(scratch, "worker.sh", "sleep 0.4\n" + ReportLine(true, "none"));
  ServerOptions options = BaseOptions(scratch, script);
  options.num_executors = 4;
  options.tenants.default_quota.budgets.memory_bytes = 1u << 20;
  options.memory_watermark_bytes = 1u << 20;  // exactly one request fits
  ServerHarness harness(std::move(options));
  const std::string sock = harness.server().socket_path();

  ServeRequest slow = RunRequest("m1");
  slow.use_cache = false;
  std::thread first([&] {
    auto resp = SendRequest(sock, slow, FastClient());
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, "ok");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto second = SendRequest(sock, RunRequest("m2"), FastClient());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, "rejected");
  EXPECT_EQ(second->reject_reason, "memory_watermark");
  first.join();
}

// ---------------------------------------------------------------------------
// Fault matrix: graceful drain
// ---------------------------------------------------------------------------

TEST(ServeTest, DrainInterruptsInFlightWorkAndTerminatesTyped) {
  ScratchDir scratch("drain");
  // A worker that drains on SIGINT: emits a partial report and exits clean
  // — the cooperative-cancel contract of real `ocdd run` children.
  std::string script = WriteScript(
      scratch, "worker.sh",
      "trap 'echo \"{\\\"completed\\\":false,\\\"stop_reason\\\":"
      "\\\"cancelled\\\"}\"; exit 0' INT\n"
      "sleep 30 &\nwait $!\n");
  ServerOptions options = BaseOptions(scratch, script);
  options.drain_grace_seconds = 0.05;
  ServerHarness harness(std::move(options));
  const std::string sock = harness.server().socket_path();

  ServeRequest req = RunRequest("inflight");
  req.use_cache = false;
  Result<ServeResponse> resp = Status::Internal("not yet run");
  std::thread client([&] { resp = SendRequest(sock, req, FastClient()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  harness.StopAndJoin();  // SIGTERM-equivalent: RequestStop + wait for Run()
  client.join();

  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, "ok") << "a drained partial report is an answer";
  ASSERT_TRUE(resp->have_report);
  EXPECT_FALSE(resp->report["completed"].bool_value());
  EXPECT_EQ(resp->report["stop_reason"].string_value(), "cancelled");

  const report::JsonValue stats = harness.server().StatsJson();
  EXPECT_EQ(stats["counters"]["drain_interrupted"].number_value(), 1.0);
  EXPECT_TRUE(stats["draining"].bool_value());
  EXPECT_EQ(stats["running"].number_value(), 0.0);
}

TEST(ServeTest, DrainRejectsNewRequestsTyped) {
  ScratchDir scratch("drain_reject");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerHarness harness(BaseOptions(scratch, script));
  const std::string sock = harness.server().socket_path();
  harness.StopAndJoin();
  // The socket is gone after drain; a late client gets a connect error,
  // never a hang.
  ClientOptions options = FastClient();
  options.connect_attempts = 2;
  options.connect_retry_seconds = 0.01;
  auto resp = SendRequest(sock, RunRequest("late"), options);
  EXPECT_FALSE(resp.ok());
}

// ---------------------------------------------------------------------------
// Fault matrix: cache-file corruption + persistence
// ---------------------------------------------------------------------------

TEST(ServeTest, CachePersistsAcrossRestartAndSurvivesCorruption) {
  ScratchDir scratch("cache");
  std::string script =
      WriteScript(scratch, "worker.sh", ReportLine(true, "none"));
  ServerOptions options = BaseOptions(scratch, script);
  options.cache_dir = scratch.path + "/cache";

  {
    ServerHarness harness(options);
    auto resp = SendRequest(harness.server().socket_path(), RunRequest("r"),
                            FastClient());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->cache, "miss");
  }  // drain persists the cache

  {
    // Second daemon generation: the persisted entry serves a hit.
    ServerHarness harness(options);
    auto resp = SendRequest(harness.server().socket_path(), RunRequest("r"),
                            FastClient());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->cache, "hit");
    EXPECT_EQ(resp->attempts, 0);
  }

  // Corrupt every cache generation on disk: the daemon must start cold and
  // still serve (miss, then a fresh worker run) — never crash, never error.
  for (const auto& entry : fs::directory_iterator(options.cache_dir)) {
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXGARBAGEXXXX", 15);
  }
  {
    ServerHarness harness(options);
    auto resp = SendRequest(harness.server().socket_path(), RunRequest("r"),
                            FastClient());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, "ok");
    EXPECT_EQ(resp->cache, "miss");
    EXPECT_EQ(resp->attempts, 1);
  }
}

// ---------------------------------------------------------------------------
// Component tests: ResultCache and tenant config
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  ResultCache cache(100);
  cache.Put({1, 1}, std::string(40, 'a'));
  cache.Put({2, 2}, std::string(40, 'b'));
  std::string out;
  EXPECT_TRUE(cache.Get({1, 1}, &out));  // 1 becomes MRU
  cache.Put({3, 3}, std::string(40, 'c'));  // evicts 2 (LRU)
  EXPECT_TRUE(cache.Get({1, 1}, &out));
  EXPECT_FALSE(cache.Get({2, 2}, &out));
  EXPECT_TRUE(cache.Get({3, 3}, &out));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 100u);

  // An entry larger than the whole budget is dropped, not inserted.
  cache.Put({4, 4}, std::string(200, 'd'));
  EXPECT_FALSE(cache.Get({4, 4}, &out));
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put({1, 1}, "");
  std::string out;
  EXPECT_FALSE(cache.Get({1, 1}, &out));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, SaveLoadRoundTripPreservesRecency) {
  ScratchDir scratch("cache_rt");
  ResultCache cache(1000);
  cache.Put({1, 1}, "one");
  cache.Put({2, 2}, "two");
  SnapshotStore store(scratch.path + "/store", "serve_cache");
  ASSERT_TRUE(cache.Save(store).ok());

  ResultCache loaded(1000);
  loaded.Load(store);
  std::string out;
  EXPECT_TRUE(loaded.Get({1, 1}, &out));
  EXPECT_EQ(out, "one");
  EXPECT_TRUE(loaded.Get({2, 2}, &out));
  EXPECT_EQ(out, "two");
  EXPECT_FALSE(loaded.Stats().load_failed);

  // A tighter budget on load re-applies eviction (LRU dropped first).
  ResultCache tight(4);
  tight.Load(store);
  EXPECT_TRUE(tight.Get({2, 2}, &out)) << "MRU survives the tight budget";
  EXPECT_FALSE(tight.Get({1, 1}, &out));
}

TEST(ResultCacheTest, LoadFromNothingOrGarbageStartsCold) {
  ScratchDir scratch("cache_cold");
  SnapshotStore store(scratch.path + "/missing", "serve_cache");
  ResultCache cache(100);
  cache.Load(store);
  EXPECT_TRUE(cache.Stats().load_failed);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(TenantConfigTest, ParsesDefaultsAndOverrides) {
  auto config = ParseTenantConfig(R"({
    "default": {"time_limit_seconds": 30, "max_checks": 1000,
                "memory_bytes": 1048576, "max_in_flight": 4},
    "tenants": {"alice": {"max_in_flight": 1},
                "bob": {"time_limit_seconds": 5}}
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->default_quota.max_in_flight, 4u);
  EXPECT_EQ(config->default_quota.budgets.max_checks, 1000u);
  // Overrides inherit unset fields from the default.
  const TenantQuota& alice = config->overrides.at("alice");
  EXPECT_EQ(alice.max_in_flight, 1u);
  EXPECT_EQ(alice.budgets.time_limit_seconds, 30.0);
  const TenantQuota& bob = config->overrides.at("bob");
  EXPECT_EQ(bob.budgets.time_limit_seconds, 5.0);
  EXPECT_EQ(bob.max_in_flight, 4u);
}

TEST(TenantConfigTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTenantConfig("not json").ok());
  EXPECT_FALSE(ParseTenantConfig("[]").ok());
  EXPECT_FALSE(ParseTenantConfig(R"({"default": 5})").ok());
  EXPECT_FALSE(
      ParseTenantConfig(R"({"default": {"max_checks": -1}})").ok());
  EXPECT_FALSE(ParseTenantConfig(R"({"tenants": "alice"})").ok());
}

TEST(TenantTableTest, AdmissionAccounting) {
  TenantConfig config;
  config.default_quota.max_in_flight = 2;
  TenantTable table(std::move(config));
  EXPECT_TRUE(table.TryAdmit("t"));
  EXPECT_TRUE(table.TryAdmit("t"));
  EXPECT_FALSE(table.TryAdmit("t"));
  EXPECT_TRUE(table.TryAdmit("other")) << "caps are per tenant";
  table.Release("t", /*completed=*/true);
  EXPECT_TRUE(table.TryAdmit("t"));
  const auto stats = table.Snapshot();
  EXPECT_EQ(stats.at("t").admitted, 3u);
  EXPECT_EQ(stats.at("t").rejected_limit, 1u);
  EXPECT_EQ(stats.at("t").completed, 1u);
}

}  // namespace
}  // namespace ocdd::serve
