// The injectable I/O environment (docs/robustness.md, "Disk faults"): fault
// spec grammar, site matching, trigger semantics (#N one-shot, @rate, every
// call), each simulated failure mode surfacing as an ordinary errno at the
// call site and a typed Status through IoErrorStatus, the crash latch, and
// the mutating-op log.

#include "common/io_env.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <string>

#include "common/run_context.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_io_env_test_" + tag + "_" + std::to_string(::getpid())))
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

/// Faults armed on the process-global env leak across tests unless cleared.
class IoEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { IoEnv::Get().ClearFaults(); }
};

TEST_F(IoEnvTest, ParseSpecGrammar) {
  auto specs = ParseIoFaultSpecs("snapshot.*=enospc,io.rename=crash#3,*=eio@0.25");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 3u);

  EXPECT_EQ((*specs)[0].site_pattern, "snapshot.*");
  EXPECT_EQ((*specs)[0].kind, IoFaultKind::kEnospc);
  EXPECT_EQ((*specs)[0].after_n, 0u);
  EXPECT_LT((*specs)[0].rate, 0.0);

  EXPECT_EQ((*specs)[1].site_pattern, "io.rename");
  EXPECT_EQ((*specs)[1].kind, IoFaultKind::kCrash);
  EXPECT_EQ((*specs)[1].after_n, 3u);

  EXPECT_EQ((*specs)[2].kind, IoFaultKind::kEio);
  EXPECT_DOUBLE_EQ((*specs)[2].rate, 0.25);

  EXPECT_FALSE(ParseIoFaultSpecs("snapshot.write").ok());     // no '='
  auto run = ParseIoFaultSpecs("ocd.check=cancel,x=alloc#2,*=throw@0.5");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ((*run)[0].kind, IoFaultKind::kCancel);
  EXPECT_EQ((*run)[1].kind, IoFaultKind::kAlloc);
  EXPECT_EQ((*run)[2].kind, IoFaultKind::kThrow);
  EXPECT_FALSE(ParseIoFaultSpecs("x=warp").ok());             // unknown kind
  EXPECT_FALSE(ParseIoFaultSpecs("x=eio@1.5").ok());          // rate > 1
  EXPECT_FALSE(ParseIoFaultSpecs("x=eio#0").ok());            // N must be >= 1
  EXPECT_TRUE(ParseIoFaultSpecs("")->empty());
}

TEST_F(IoEnvTest, SitePatternMatching) {
  IoFaultSpec exact{"snapshot.write", IoFaultKind::kEio, 0, -1.0};
  EXPECT_TRUE(exact.Matches("snapshot.write"));
  EXPECT_FALSE(exact.Matches("snapshot.write2"));
  EXPECT_FALSE(exact.Matches("snapshot"));

  IoFaultSpec prefix{"snapshot.*", IoFaultKind::kEio, 0, -1.0};
  EXPECT_TRUE(prefix.Matches("snapshot.write"));
  EXPECT_TRUE(prefix.Matches("snapshot.rename"));
  EXPECT_FALSE(prefix.Matches("quarantine.write"));

  IoFaultSpec all{"*", IoFaultKind::kEio, 0, -1.0};
  EXPECT_TRUE(all.Matches("anything.at_all"));
}

TEST_F(IoEnvTest, EnospcFaultSetsErrnoAndTypedStatus) {
  ScratchDir scratch("enospc");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("t_enospc.write=enospc").ok());

  const std::string path = scratch.path + "/f";
  Status s = IoWriteFileSynced(env, "t_enospc", path, "hello", 5);
  ASSERT_FALSE(s.ok());
  // ENOSPC is operational, not a bug: ResourceExhausted is what flips the
  // daemon's degraded mode.
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("io write failed"), std::string::npos)
      << s.message();
  EXPECT_GE(env.StatsFor("t_enospc.write").faults_fired, 1u);
}

TEST_F(IoEnvTest, OneShotTriggerFiresOnNthCallOnly) {
  ScratchDir scratch("oneshot");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("t_oneshot.write=eio#2").ok());

  // First write passes, second fails, third passes again (one-shot).
  EXPECT_TRUE(
      IoWriteFileSynced(env, "t_oneshot", scratch.path + "/a", "x", 1).ok());
  Status second =
      IoWriteFileSynced(env, "t_oneshot", scratch.path + "/b", "x", 1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kInternal);  // EIO: a real fault
  EXPECT_TRUE(
      IoWriteFileSynced(env, "t_oneshot", scratch.path + "/c", "x", 1).ok());
}

TEST_F(IoEnvTest, ShortWriteTruncatesButTerminates) {
  ScratchDir scratch("short");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("t_short.write=short#1").ok());

  // One short write then clean ones: the write loop finishes and the file
  // carries all the bytes (a lone short write is retried by the loop, as
  // POSIX intends).
  const std::string path = scratch.path + "/f";
  ASSERT_TRUE(IoWriteFileSynced(env, "t_short", path, "abcdefgh", 8).ok());
  auto back = IoReadFileAll(env, "t_short", path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "abcdefgh");
}

TEST_F(IoEnvTest, CrashLatchFailsEveryLaterOp) {
  ScratchDir scratch("crash");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("t_crash.fsync=crash").ok());

  const std::string path = scratch.path + "/f";
  Status first = IoWriteFileSynced(env, "t_crash", path, "x", 1);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(env.crashed());

  // From the filesystem's point of view the process is dead: even an
  // unrelated site fails until the simulated reboot (ClearFaults).
  Status after =
      IoWriteFileSynced(env, "t_other", scratch.path + "/g", "y", 1);
  EXPECT_FALSE(after.ok());

  env.ClearFaults();
  EXPECT_FALSE(env.crashed());
  EXPECT_TRUE(
      IoWriteFileSynced(env, "t_other", scratch.path + "/g", "y", 1).ok());
}

TEST_F(IoEnvTest, RateFaultIsSeededAndDeterministic) {
  ScratchDir scratch("rate");
  IoEnv& env = IoEnv::Get();

  // `*=cancel@0` matches every algorithm point and never fires: with
  // `poll_points`, each I/O call is preceded by injection-point polls that
  // take the armed path. They must not perturb the I/O rate draws.
  auto run_sweep = [&](std::uint64_t seed, bool poll_points) {
    env.ClearFaults();
    env.SeedFaultRng(seed);
    EXPECT_TRUE(env.ArmFaultString("*=eio@0.5,*=cancel@0").ok());
    RunContext ctx;
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      if (poll_points) {
        ctx.AtInjectionPoint("t_rate.check");
        ctx.AtInjectionPoint("t_rate.check");
      }
      const std::string dir = scratch.path + "/" +
                              std::to_string(poll_points) + "_" +
                              std::to_string(i);
      pattern += env.Mkdir("t_rate.mkdir", dir, 0755) == 0 ? '.' : 'X';
    }
    EXPECT_FALSE(ctx.stop_requested());  // I/O kinds never fire at points
    return pattern;
  };

  const std::string a = run_sweep(7, false);
  const std::string b = run_sweep(7, true);
  EXPECT_EQ(a, b);  // same seed, same fault pattern
  EXPECT_NE(a.find('X'), std::string::npos);  // some faults fired
  EXPECT_NE(a.find('.'), std::string::npos);  // some calls passed
}

TEST_F(IoEnvTest, KindsMatchOnlyTheirOwnClassOfSite) {
  ScratchDir scratch("classes");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(env.ArmFaultString("*=throw,*=eio#2").ok());
  // Run kinds fire at algorithm points, and those polls do not count
  // towards the I/O spec's #2 ...
  RunContext ctx;
  EXPECT_THROW(ctx.AtInjectionPoint("t_class.check"), FaultInjectedError);
  EXPECT_THROW(ctx.AtInjectionPoint("t_class.check"), FaultInjectedError);
  // ... while I/O sites ignore `*=throw` and see their own 2nd call fail.
  EXPECT_EQ(env.Mkdir("t_class.mkdir", scratch.path + "/a", 0755), 0);
  EXPECT_NE(env.Mkdir("t_class.mkdir", scratch.path + "/b", 0755), 0);
}

TEST_F(IoEnvTest, SeenSitesEnumeratesTheInjectionSurface) {
  ScratchDir scratch("sites");
  IoEnv& env = IoEnv::Get();
  ASSERT_TRUE(
      IoWriteFileSynced(env, "t_sites", scratch.path + "/f", "x", 1).ok());
  std::vector<std::string> sites = env.SeenSites();
  auto has = [&](const char* s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  EXPECT_TRUE(has("t_sites.open"));
  EXPECT_TRUE(has("t_sites.write"));
  EXPECT_TRUE(has("t_sites.fsync"));
  EXPECT_TRUE(has("t_sites.close"));
}

TEST_F(IoEnvTest, OpLogRecordsMutatingOpsAndReplays) {
  ScratchDir scratch("oplog");
  ScratchDir replayed("oplog_replay");
  IoEnv& env = IoEnv::Get();

  env.StartOpLog();
  ASSERT_TRUE(
      IoWriteFileSynced(env, "t_log", scratch.path + "/a.tmp", "hello", 5)
          .ok());
  ASSERT_EQ(env.Rename("t_log.rename", scratch.path + "/a.tmp",
                       scratch.path + "/a.dat"),
            0);
  std::vector<IoOp> ops = env.TakeOpLog();

  // open-trunc, write, rename — reads/fsyncs/closes are not state changes.
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, IoOp::Kind::kOpenTrunc);
  EXPECT_EQ(ops[1].kind, IoOp::Kind::kWrite);
  EXPECT_EQ(ops[1].data, "hello");
  EXPECT_EQ(ops[2].kind, IoOp::Kind::kRename);

  // Full replay into a fresh root reproduces the final state.
  ASSERT_TRUE(ReplayOpLog(ops, ops.size(), /*tear_last=*/false, scratch.path,
                          replayed.path)
                  .ok());
  auto full = IoReadFileAll(env, "t_verify", replayed.path + "/a.dat");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, "hello");

  // Replay with the rename torn: crash *before* the atomic op — the tmp
  // file exists, the final name does not.
  ScratchDir torn("oplog_torn");
  ASSERT_TRUE(ReplayOpLog(ops, ops.size(), /*tear_last=*/true, scratch.path,
                          torn.path)
                  .ok());
  EXPECT_TRUE(fs::exists(torn.path + "/a.tmp"));
  EXPECT_FALSE(fs::exists(torn.path + "/a.dat"));

  // Replay with the write torn: half the bytes persisted.
  ScratchDir half("oplog_half");
  ASSERT_TRUE(ReplayOpLog(ops, 2, /*tear_last=*/true, scratch.path,
                          half.path)
                  .ok());
  auto torn_bytes = IoReadFileAll(env, "t_verify", half.path + "/a.tmp");
  ASSERT_TRUE(torn_bytes.ok());
  EXPECT_EQ(*torn_bytes, "he");
}

TEST_F(IoEnvTest, IoErrorStatusMapsDescriptorExhaustion) {
  errno = EMFILE;
  Status emfile = IoErrorStatus("open", "/some/path");
  EXPECT_EQ(emfile.code(), StatusCode::kResourceExhausted);
  errno = EIO;
  Status eio = IoErrorStatus("write", "/some/path");
  EXPECT_EQ(eio.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ocdd
