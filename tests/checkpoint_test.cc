#include "common/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "algo/fastod/fastod.h"
#include "algo/fd/tane.h"
#include "common/io_env.h"
#include "common/run_context.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"
#include "qa/claims.h"
#include "relation/coded_relation.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_ckpt_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// Path of generation `gen` of store `name` in `dir` (the store's layout).
std::string GenerationPath(const std::string& dir, const char* name,
                           std::uint64_t gen) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(gen));
  return dir + "/" + name + "." + buf + ".snap";
}

/// Flips one bit in the middle of `path`: corruption at rest.
void FlipMiddleByte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int ch = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(ch ^ 0x04, f);
  std::fclose(f);
}

rel::CodedRelation TestRelation() {
  auto relation = datagen::MakeDataset("LINEITEM", 120, 7);
  EXPECT_TRUE(relation.ok());
  return rel::CodedRelation::Encode(*relation);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(ByteCodecTest, Roundtrip) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.Str("hello");
  w.U32Vec({1, 2, 3});
  w.IdVec({4, 5});
  std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.U32Vec(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.IdVec(), (std::vector<std::size_t>{4, 5}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteCodecTest, TruncationLatchesNotOk) {
  ByteWriter w;
  w.U64(42);
  std::string bytes = w.Take();
  bytes.resize(5);

  ByteReader r(bytes);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());
  // Latched: subsequent reads stay zero and not-ok.
  EXPECT_EQ(r.U8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(ByteCodecTest, AdversarialStrLengthPrefixIsRejectedBeforeAllocating) {
  // A string length prefix of 0xFFFFFFFF with only a few bytes behind it:
  // the reader must latch not-ok without ever requesting a 4 GB buffer.
  ByteWriter w;
  w.U32(0xFFFFFFFFu);
  w.U8('x');
  std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodecTest, AdversarialU32VecCountIsRejectedBeforeAllocating) {
  ByteWriter w;
  w.U32(0xFFFFFFFFu);  // claims 4 billion elements
  w.U32(1);
  w.U32(2);
  std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_TRUE(r.U32Vec().empty());
  EXPECT_FALSE(r.ok());
}

TEST(ByteCodecTest, AdversarialBytesLengthIsRejected) {
  std::string bytes = "abc";
  ByteReader r(bytes);
  EXPECT_EQ(r.Bytes(static_cast<std::size_t>(-1)), "");
  EXPECT_FALSE(r.ok());
  // Latched: a subsequent in-bounds read still fails.
  EXPECT_EQ(r.Bytes(1), "");
}

TEST(ByteCodecTest, RemainingAndPosTrackReads) {
  ByteWriter w;
  w.U32(7);
  w.U64(9);
  std::string bytes = w.Take();
  ByteReader r(bytes);
  EXPECT_EQ(r.remaining(), 12u);
  r.U32();
  EXPECT_EQ(r.pos(), 4u);
  EXPECT_EQ(r.remaining(), 8u);
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

std::string TwoSectionImage() {
  SnapshotBuilder b;
  b.AddSection("meta", "\x01\x02\x03");
  b.AddSection("frontier", std::string(1000, 'x'));
  return b.Encode();
}

TEST(SnapshotViewTest, Roundtrip) {
  auto view = SnapshotView::Decode(TwoSectionImage());
  ASSERT_TRUE(view.ok());
  ASSERT_NE(view->Find("meta"), nullptr);
  EXPECT_EQ(*view->Find("meta"), "\x01\x02\x03");
  ASSERT_NE(view->Find("frontier"), nullptr);
  EXPECT_EQ(view->Find("frontier")->size(), 1000u);
  EXPECT_EQ(view->Find("absent"), nullptr);
  EXPECT_EQ(view->SectionNames(),
            (std::vector<std::string>{"frontier", "meta"}));
}

TEST(SnapshotViewTest, DetectsCorruption) {
  const std::string good = TwoSectionImage();
  EXPECT_TRUE(SnapshotView::Decode(good).ok());

  // A flip anywhere must be caught by a section CRC or the file trailer.
  for (std::size_t pos : {std::size_t{0}, good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    EXPECT_FALSE(SnapshotView::Decode(bad).ok()) << "flip at " << pos;
  }
  // Torn prefix of every length fails; so do appended trailing bytes.
  EXPECT_FALSE(SnapshotView::Decode(good.substr(0, good.size() / 2)).ok());
  EXPECT_FALSE(SnapshotView::Decode("").ok());
  EXPECT_FALSE(SnapshotView::Decode(good + "z").ok());
}

TEST(SnapshotViewTest, HugeSectionLengthWithValidCrcsIsRejected) {
  // Hand-craft an image whose framing CRCs all validate but whose one
  // section claims a ~16 EB payload. Decode must reject it on the
  // length-vs-remaining check, never on a failed allocation.
  ByteWriter body;
  body.U32(1);                        // section count
  body.Str("frontier");               // section name
  body.U64(0xFFFFFFFFFFFFFFFFull);    // adversarial payload length
  body.U32(0);                        // payload CRC (never reached)

  std::string image = "OCDDSNP1" + body.Take();
  const std::uint32_t file_crc = Crc32(image.data(), image.size());
  ByteWriter trailer;
  trailer.U32(file_crc);
  image += trailer.Take();
  image += "OCDDSNPE";

  auto view = SnapshotView::Decode(image);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kParseError);
  EXPECT_NE(view.status().message().find("exceeds remaining"),
            std::string::npos)
      << view.status().message();
}

TEST(SnapshotViewTest, HugeSectionCountIsRejected) {
  ByteWriter body;
  body.U32(0xFFFFFFFFu);  // claims 4 billion sections
  std::string image = "OCDDSNP1" + body.Take();
  const std::uint32_t file_crc = Crc32(image.data(), image.size());
  ByteWriter trailer;
  trailer.U32(file_crc);
  image += trailer.Take();
  image += "OCDDSNPE";

  auto view = SnapshotView::Decode(image);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("section count"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generation store
// ---------------------------------------------------------------------------

TEST(SnapshotStoreTest, GenerationsAdvanceAndPrune) {
  ScratchDir scratch("gens");
  SnapshotStore store(scratch.path, "algo");
  EXPECT_FALSE(store.Load().ok());

  for (int i = 0; i < 3; ++i) {
    SnapshotBuilder b;
    b.AddSection("meta", "gen" + std::to_string(i + 1));
    auto gen = store.Write(b.Encode(), /*keep=*/2);
    ASSERT_TRUE(gen.ok());
    EXPECT_EQ(*gen, static_cast<std::uint64_t>(i + 1));
  }
  // keep=2 pruned generation 1.
  EXPECT_EQ(store.Generations(), (std::vector<std::uint64_t>{2, 3}));

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->generation, 3u);
  EXPECT_EQ(loaded->corrupt_skipped, 0u);
  EXPECT_EQ(*loaded->view.Find("meta"), "gen3");
}

/// The fault matrix: a newer generation that never became valid leaves the
/// previous one recoverable. Covered here: a bit flipped in the file at
/// rest, and a rename that fails after the temp file is durable (the
/// never-renamed generation). Torn writes are replayed op by op in
/// crash_consistency_test.
TEST(SnapshotStoreTest, FaultMatrixFallsBackToPreviousGeneration) {
  for (const bool flip_at_rest : {true, false}) {
    SCOPED_TRACE(flip_at_rest ? "bit flip at rest" : "snapshot.rename=eio#1");
    ScratchDir scratch(flip_at_rest ? "fault_flip" : "fault_rename");
    SnapshotStore store(scratch.path, "algo");

    SnapshotBuilder good;
    good.AddSection("meta", "good");
    ASSERT_TRUE(store.Write(good.Encode()).ok());

    SnapshotBuilder next;
    next.AddSection("meta", "doomed");
    if (flip_at_rest) {
      ASSERT_TRUE(store.Write(next.Encode()).ok());
      FlipMiddleByte(GenerationPath(scratch.path, "algo", 2));
      EXPECT_EQ(store.Generations(), (std::vector<std::uint64_t>{1, 2}));
    } else {
      IoEnv& env = IoEnv::Get();
      ASSERT_TRUE(env.ArmFaultString("snapshot.rename=eio#1").ok());
      auto written = store.Write(next.Encode());
      env.ClearFaults();
      EXPECT_FALSE(written.ok());
      EXPECT_EQ(store.Generations(), (std::vector<std::uint64_t>{1}));
    }

    // Load must transparently recover the good generation.
    auto loaded = store.Load();
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->generation, 1u);
    EXPECT_EQ(loaded->corrupt_skipped, flip_at_rest ? 1u : 0u);
    EXPECT_EQ(*loaded->view.Find("meta"), "good");

    // The next write succeeds and supersedes the corrupt leftovers.
    SnapshotBuilder retry;
    retry.AddSection("meta", "recovered");
    ASSERT_TRUE(store.Write(retry.Encode()).ok());
    auto after = store.Load();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after->view.Find("meta"), "recovered");
  }
}

// ---------------------------------------------------------------------------
// Algorithm stop → resume ≡ uninterrupted
// ---------------------------------------------------------------------------

using AlgoRunner = qa::ClaimSet (*)(const rel::CodedRelation&, RunContext*,
                                    const CheckpointConfig*);

void CheckStopResumeEquivalence(const char* tag, AlgoRunner runner) {
  SCOPED_TRACE(tag);
  rel::CodedRelation coded = TestRelation();
  qa::ClaimSet complete = runner(coded, nullptr, nullptr);
  ASSERT_TRUE(complete.completed);
  ASSERT_GE(complete.num_checks, 2u);

  ScratchDir scratch(std::string("resume_") + tag);
  CheckpointConfig cfg;
  cfg.dir = scratch.path;

  // Stop mid-lattice under a check budget; the run drains to a snapshot.
  RunContext stopped_ctx;
  stopped_ctx.set_check_budget(complete.num_checks / 2);
  qa::ClaimSet partial = runner(coded, &stopped_ctx, &cfg);
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.stop_reason, StopReason::kCheckBudget);

  // Resume with no budget: identical claims to the uninterrupted run.
  CheckpointConfig resume_cfg = cfg;
  resume_cfg.resume = true;
  RunContext resume_ctx;
  qa::ClaimSet resumed = runner(coded, &resume_ctx, &resume_cfg);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.Render(), complete.Render());

  // Resuming the *completed* run is a no-op that replays the full result.
  RunContext again_ctx;
  qa::ClaimSet again = runner(coded, &again_ctx, &resume_cfg);
  EXPECT_TRUE(again.completed);
  EXPECT_EQ(again.Render(), complete.Render());
}

TEST(CheckpointResumeTest, OcddiscoverStopResumeEquivalence) {
  CheckStopResumeEquivalence("ocddiscover", &qa::RunOcddiscoverClaims);
}

TEST(CheckpointResumeTest, FastodStopResumeEquivalence) {
  CheckStopResumeEquivalence("fastod", &qa::RunFastodClaims);
}

TEST(CheckpointResumeTest, TaneStopResumeEquivalence) {
  CheckStopResumeEquivalence("tane", &qa::RunTaneClaims);
}

/// An injected fault (the stand-in for a crash the process survives) also
/// drains to a snapshot, and the resumed run converges all the same.
TEST(CheckpointResumeTest, FaultInjectedStopDrainsAndResumes) {
  rel::CodedRelation coded = TestRelation();
  qa::ClaimSet complete = qa::RunOcddiscoverClaims(coded);
  ASSERT_TRUE(complete.completed);

  ScratchDir scratch("fault_drain");
  CheckpointConfig cfg;
  cfg.dir = scratch.path;

  IoEnv& env = IoEnv::Get();
  env.ArmFault({"ocd.check", IoFaultKind::kThrow, complete.num_checks / 2,
                -1.0});
  RunContext faulted;
  qa::ClaimSet partial = qa::RunOcddiscoverClaims(coded, &faulted, &cfg);
  env.ClearFaults();
  EXPECT_FALSE(partial.completed);
  EXPECT_EQ(partial.stop_reason, StopReason::kFaultInjected);
  EXPECT_FALSE(SnapshotStore(scratch.path, "ocddiscover").Generations()
                   .empty());

  CheckpointConfig resume_cfg = cfg;
  resume_cfg.resume = true;
  RunContext resume_ctx;
  qa::ClaimSet resumed =
      qa::RunOcddiscoverClaims(coded, &resume_ctx, &resume_cfg);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.Render(), complete.Render());
}

/// Corrupt newest generation at rest (bit flip on disk): resume falls back
/// to the previous generation and still converges.
TEST(CheckpointResumeTest, ResumeFallsBackPastCorruptGeneration) {
  rel::CodedRelation coded = TestRelation();
  qa::ClaimSet complete = qa::RunOcddiscoverClaims(coded);
  ASSERT_TRUE(complete.completed);

  ScratchDir scratch("at_rest");
  CheckpointConfig cfg;
  cfg.dir = scratch.path;
  RunContext stopped_ctx;
  stopped_ctx.set_check_budget(complete.num_checks / 2);
  (void)qa::RunOcddiscoverClaims(coded, &stopped_ctx, &cfg);

  SnapshotStore store(scratch.path, "ocddiscover");
  std::vector<std::uint64_t> gens = store.Generations();
  ASSERT_FALSE(gens.empty());
  FlipMiddleByte(GenerationPath(scratch.path, "ocddiscover", gens.back()));

  CheckpointConfig resume_cfg = cfg;
  resume_cfg.resume = true;
  RunContext resume_ctx;
  qa::ClaimSet resumed =
      qa::RunOcddiscoverClaims(coded, &resume_ctx, &resume_cfg);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.Render(), complete.Render());
}

/// A snapshot taken on one relation must not be applied to another: the
/// fingerprint mismatch downgrades resume to a fresh (still correct) run.
TEST(CheckpointResumeTest, FingerprintMismatchStartsFresh) {
  rel::CodedRelation coded = TestRelation();
  auto other_rel = datagen::MakeDataset("LINEITEM", 90, 99);
  ASSERT_TRUE(other_rel.ok());
  rel::CodedRelation other = rel::CodedRelation::Encode(*other_rel);
  ASSERT_NE(coded.Fingerprint(), other.Fingerprint());

  ScratchDir scratch("fingerprint");
  core::OcdDiscoverOptions stop_opts;
  stop_opts.checkpoint.dir = scratch.path;
  RunContext stopped_ctx;
  stopped_ctx.set_check_budget(5);
  stop_opts.run_context = &stopped_ctx;
  (void)core::DiscoverOcds(coded, stop_opts);

  core::OcdDiscoverOptions resume_opts;
  resume_opts.checkpoint.dir = scratch.path;
  resume_opts.checkpoint.resume = true;
  core::OcdDiscoverResult crossed = core::DiscoverOcds(other, resume_opts);
  EXPECT_TRUE(crossed.completed);
  EXPECT_FALSE(crossed.checkpoint_stats.resumed);
  EXPECT_NE(crossed.checkpoint_stats.warning.find("different relation"),
            std::string::npos);

  core::OcdDiscoverResult fresh = core::DiscoverOcds(other);
  EXPECT_EQ(crossed.ods, fresh.ods);
  EXPECT_EQ(crossed.ocds, fresh.ocds);
}

TEST(CheckpointResumeTest, ResumingAtEveryLevelBoundaryMatchesOneRun) {
  // Claims are kept by list id and sorted once after the walk; the claims a
  // snapshot restores go through the same sort as the ones the resumed run
  // emits.
  auto relation = datagen::MakeDataset("LATTICE", 400, 42);
  ASSERT_TRUE(relation.ok());
  const rel::CodedRelation coded = rel::CodedRelation::Encode(*relation);
  const core::OcdDiscoverResult fresh = core::DiscoverOcds(coded);
  ASSERT_TRUE(fresh.completed);
  ASSERT_FALSE(fresh.ocds.empty());

  // One generation per level boundary, every one kept.
  ScratchDir all("every_level");
  RunContext ctx;
  ctx.set_checkpoint_cadence(/*every_checks=*/1, /*every_seconds=*/0.0);
  core::OcdDiscoverOptions opts;
  opts.run_context = &ctx;
  opts.checkpoint.dir = all.path;
  opts.checkpoint.keep_generations = 100;
  ASSERT_TRUE(core::DiscoverOcds(coded, opts).completed);
  const std::vector<std::uint64_t> generations =
      SnapshotStore(all.path, "ocddiscover").Generations();
  // A snapshot at the start of each level from 3 to the last (none is due
  // before the first checks), then the finished run's.
  ASSERT_EQ(generations.size(), fresh.levels_completed - 1);

  ScratchDir one("one_level");
  for (std::uint64_t gen : generations) {
    SCOPED_TRACE(gen);
    fs::remove_all(one.path);
    fs::create_directories(one.path);
    fs::copy_file(GenerationPath(all.path, "ocddiscover", gen),
                  GenerationPath(one.path, "ocddiscover", gen));
    core::OcdDiscoverOptions resume;
    resume.checkpoint.dir = one.path;
    resume.checkpoint.resume = true;
    const core::OcdDiscoverResult resumed = core::DiscoverOcds(coded, resume);
    ASSERT_TRUE(resumed.checkpoint_stats.resumed)
        << resumed.checkpoint_stats.warning;
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.ocds, fresh.ocds);
    EXPECT_EQ(resumed.ods, fresh.ods);
    EXPECT_EQ(resumed.num_checks, fresh.num_checks);
    EXPECT_EQ(resumed.candidates_generated, fresh.candidates_generated);
    EXPECT_EQ(resumed.levels_completed, fresh.levels_completed);
  }
}

/// A snapshot written before lists became table ids resumes to the same
/// result: the fixture is generation 3 of `ocdd run LINEITEM --rows 60
/// --algo discover --max-checks 250 --checkpoint DIR` from the release
/// whose candidates still held their lists (state format version 1).
TEST(CheckpointResumeTest, ResumesFromAVersionOneSnapshotOnDisk) {
  auto relation = datagen::MakeDataset("LINEITEM", 60, 42);
  ASSERT_TRUE(relation.ok());
  const rel::CodedRelation coded = rel::CodedRelation::Encode(*relation);
  const core::OcdDiscoverResult fresh = core::DiscoverOcds(coded);
  ASSERT_TRUE(fresh.completed);

  ScratchDir scratch("version_one");
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    // A resumed run writes and prunes generations: start each from 3 alone.
    fs::remove_all(scratch.path);
    fs::create_directories(scratch.path);
    fs::copy_file(std::string(OCDD_TEST_SRC_DIR) +
                      "/fixtures/ocddiscover_v1_lineitem60.snap",
                  GenerationPath(scratch.path, "ocddiscover", 3));
    core::OcdDiscoverOptions opts;
    opts.num_threads = threads;
    opts.checkpoint.dir = scratch.path;
    opts.checkpoint.resume = true;
    const core::OcdDiscoverResult resumed = core::DiscoverOcds(coded, opts);
    ASSERT_TRUE(resumed.checkpoint_stats.resumed)
        << resumed.checkpoint_stats.warning;
    EXPECT_EQ(resumed.checkpoint_stats.resumed_generation, 3u);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.ocds, fresh.ocds);
    EXPECT_EQ(resumed.ods, fresh.ods);
    EXPECT_EQ(resumed.num_checks, fresh.num_checks);
  }
}

/// A checkpoint directory holding `fixture` as generation 3 of `name`,
/// set to resume.
CheckpointConfig ResumeFromFixture(const ScratchDir& scratch,
                                   const char* name, const char* fixture) {
  fs::create_directories(scratch.path);
  fs::copy_file(std::string(OCDD_TEST_SRC_DIR) + "/fixtures/" + fixture,
                GenerationPath(scratch.path, name, 3));
  CheckpointConfig cfg;
  cfg.dir = scratch.path;
  cfg.resume = true;
  return cfg;
}

rel::CodedRelation Lineitem60() {
  auto relation = datagen::MakeDataset("LINEITEM", 60, 42);
  EXPECT_TRUE(relation.ok());
  return rel::CodedRelation::Encode(*relation);
}

/// A FASTOD snapshot written before the set-lattice walks were shared
/// resumes to the uninterrupted result: the fixture is generation 3 of
/// `ocdd run LINEITEM --rows 60 --algo fastod --max-checks 1500
/// --checkpoint DIR` (state format 1, the layout the walk still writes).
TEST(CheckpointResumeTest, ResumesAFastodVersionOneSnapshotOnDisk) {
  const rel::CodedRelation coded = Lineitem60();
  ScratchDir scratch("fastod_v1");
  algo::FastodOptions opts;
  opts.checkpoint =
      ResumeFromFixture(scratch, "fastod", "fastod_v1_lineitem60.snap");
  const algo::FastodResult resumed = algo::DiscoverFastod(coded, opts);
  const algo::FastodResult fresh = algo::DiscoverFastod(coded);
  ASSERT_TRUE(resumed.checkpoint_stats.resumed)
      << resumed.checkpoint_stats.warning;
  EXPECT_EQ(resumed.checkpoint_stats.resumed_generation, 3u);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.ods, fresh.ods);
  EXPECT_EQ(resumed.num_checks, fresh.num_checks);
}

/// The same for TANE's state format 1 (`--algo fds --max-checks 600`),
/// whose layout differs from the format 2 it now writes.
TEST(CheckpointResumeTest, ResumesATaneVersionOneSnapshotOnDisk) {
  const rel::CodedRelation coded = Lineitem60();
  ScratchDir scratch("tane_v1");
  algo::TaneOptions opts;
  opts.checkpoint =
      ResumeFromFixture(scratch, "tane", "tane_v1_lineitem60.snap");
  const algo::TaneResult resumed = algo::DiscoverFds(coded, opts);
  const algo::TaneResult fresh = algo::DiscoverFds(coded);
  ASSERT_TRUE(resumed.checkpoint_stats.resumed)
      << resumed.checkpoint_stats.warning;
  EXPECT_EQ(resumed.checkpoint_stats.resumed_generation, 3u);
  EXPECT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.fds, fresh.fds);
  EXPECT_EQ(resumed.num_checks, fresh.num_checks);
}

/// Resume with an empty/missing directory warns and runs fresh.
TEST(CheckpointResumeTest, ResumeWithoutSnapshotWarnsAndRunsFresh) {
  rel::CodedRelation coded = TestRelation();
  ScratchDir scratch("no_snapshot");
  core::OcdDiscoverOptions opts;
  opts.checkpoint.dir = scratch.path;
  opts.checkpoint.resume = true;
  core::OcdDiscoverResult result = core::DiscoverOcds(coded, opts);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.checkpoint_stats.resumed);
  EXPECT_FALSE(result.checkpoint_stats.warning.empty());

  core::OcdDiscoverResult fresh = core::DiscoverOcds(coded);
  EXPECT_EQ(result.ods, fresh.ods);
  EXPECT_EQ(result.ocds, fresh.ocds);
}

}  // namespace
}  // namespace ocdd
