// Incremental maintenance vs from-scratch rediscovery (docs/incremental.md).
//
// One IncrementalSession is bootstrapped over LATTICE, then a stream of
// batches (append-only, delete-only, mixed; sizes 1..1000) is applied to it.
// Each `ApplyBatch` is timed against a from-scratch `DiscoverFromScratch`
// run on the *same* materialized relation with the same options. A session
// step is that same walk plus merging the batch, so the speedup should sit
// near 1 at every batch size; the bench watches that the session adds no
// cost of its own.
//
// Entries land in $OCDD_BENCH_JSON_DIR/BENCH_incremental.json
// (tools/run_bench.sh). Knobs: OCDD_BENCH_ROWS,
// OCDD_BENCH_BATCH_SIZES (comma list), OCDD_SCALE=full for paper rows.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "algo/incremental/incremental.h"
#include "bench_util.h"
#include "common/rng.h"
#include "datagen/registry.h"
#include "relation/batch.h"
#include "relation/relation.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Entry {
  std::string kind;
  std::size_t batch_size = 0;
  std::size_t rows = 0;
  double incremental_seconds = 0.0;
  double scratch_seconds = 0.0;
  double speedup = 0.0;
  std::uint64_t checks = 0;
  std::size_t ocds = 0;
  std::size_t ods = 0;
  bool completed = true;
};

/// `count` fresh append rows: copies of random existing rows, so types are
/// right by construction and the new rows collide with live value ranges.
std::vector<std::vector<ocdd::rel::Value>> DrawAppends(
    const ocdd::rel::Relation& rel, std::size_t count, ocdd::Rng& rng) {
  std::vector<std::vector<ocdd::rel::Value>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = rng.Uniform(rel.num_rows());
    std::vector<ocdd::rel::Value> row;
    row.reserve(rel.num_columns());
    for (std::size_t c = 0; c < rel.num_columns(); ++c) {
      row.push_back(rel.ValueAt(src, static_cast<ocdd::rel::ColumnId>(c)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// `count` distinct sorted delete indices drawn from [0, rows).
std::vector<std::size_t> DrawDeletes(std::size_t rows, std::size_t count,
                                     ocdd::Rng& rng) {
  std::vector<std::size_t> pool(rows);
  for (std::size_t i = 0; i < rows; ++i) pool[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.Uniform(rows - i)]);
  }
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

void WriteReport(const std::vector<Entry>& entries, const std::string& dataset,
                 double bootstrap_seconds) {
  std::string dir = ".";
  if (const char* env = std::getenv("OCDD_BENCH_JSON_DIR")) {
    if (*env != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_incremental.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"incremental\",\n  \"dataset\": \"%s\",\n"
               "  \"bootstrap_seconds\": %.6f,\n  \"entries\": [",
               dataset.c_str(), bootstrap_seconds);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(
        f,
        "%s\n    {\"kind\": \"%s\", \"batch_size\": %zu, \"rows\": %zu, "
        "\"incremental_seconds\": %.6f, \"scratch_seconds\": %.6f, "
        "\"speedup\": %.2f, \"checks\": %llu, \"ocds\": %zu, "
        "\"ods\": %zu, \"completed\": %s}",
        i == 0 ? "" : ",", e.kind.c_str(), e.batch_size, e.rows,
        e.incremental_seconds, e.scratch_seconds, e.speedup,
        static_cast<unsigned long long>(e.checks), e.ocds, e.ods,
        e.completed ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench report written to %s\n", path.c_str());
}

}  // namespace

int main() {
  const std::string dataset = "LATTICE";
  auto spec = ocdd::datagen::FindDataset(dataset);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 1;
  }
  std::size_t rows = ocdd::datagen::FullScaleRequested() ? spec->paper_rows
                                                         : spec->default_rows;
  if (const char* env = std::getenv("OCDD_BENCH_ROWS")) {
    const long v = std::atol(env);
    if (v > 0) rows = static_cast<std::size_t>(v);
  }
  auto base = ocdd::datagen::MakeDataset(dataset, rows);
  if (!base.ok()) {
    std::fprintf(stderr, "failed to build %s: %s\n", dataset.c_str(),
                 base.status().ToString().c_str());
    return 1;
  }

  ocdd::algo::IncrementalOptions opts;
  opts.num_threads = 1;  // same knob on both sides; the ratio is the story

  const Clock::time_point boot0 = Clock::now();
  auto session = ocdd::algo::IncrementalSession::Start(std::move(*base), opts);
  const double bootstrap_seconds = Seconds(boot0);
  if (!session.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::printf("%s rows=%zu bootstrap=%s\n", dataset.c_str(), rows,
              ocdd::bench::FormatTime(bootstrap_seconds, true).c_str());

  ocdd::Rng rng(0xBE7C);
  const std::vector<std::size_t> sizes = ocdd::bench::SizeListFromEnv(
      "OCDD_BENCH_BATCH_SIZES", {1, 10, 100, 1000});
  const char* kinds[] = {"append", "delete", "mixed"};

  std::vector<Entry> entries;
  int status = 0;
  for (const char* kind : kinds) {
    for (std::size_t size : sizes) {
      const ocdd::rel::Relation& cur = session->relation();
      ocdd::rel::RowBatch batch;
      if (std::string(kind) == "append") {
        batch.appends = DrawAppends(cur, size, rng);
      } else if (std::string(kind) == "delete") {
        batch.deletes = DrawDeletes(cur.num_rows(), size, rng);
      } else {
        const std::size_t d = size / 2;
        batch.deletes = DrawDeletes(cur.num_rows(), d, rng);
        batch.appends = DrawAppends(cur, size - d, rng);
      }

      const Clock::time_point inc0 = Clock::now();
      auto stats = session->ApplyBatch(batch);
      const double inc_s = Seconds(inc0);
      if (!stats.ok()) {
        std::fprintf(stderr, "apply failed (%s/%zu): %s\n", kind, size,
                     stats.status().ToString().c_str());
        return 1;
      }

      const Clock::time_point scr0 = Clock::now();
      ocdd::core::OcdDiscoverResult scratch =
          ocdd::algo::DiscoverFromScratch(session->relation(), opts);
      const double scr_s = Seconds(scr0);

      // The contract the QA oracle enforces in depth; here a cheap guard so
      // a session that drifted from the oracle can't post a number.
      if (scratch.ods.size() != stats->result.ods.size() ||
          scratch.ocds.size() != stats->result.ocds.size()) {
        std::fprintf(stderr,
                     "EQUIVALENCE BROKEN (%s/%zu): incremental %zu ods/%zu "
                     "ocds vs scratch %zu/%zu\n",
                     kind, size, stats->result.ods.size(),
                     stats->result.ocds.size(), scratch.ods.size(),
                     scratch.ocds.size());
        status = 1;
      }

      Entry e;
      e.kind = kind;
      e.batch_size = size;
      e.rows = stats->num_rows;
      e.incremental_seconds = inc_s;
      e.scratch_seconds = scr_s;
      e.speedup = inc_s > 0.0 ? scr_s / inc_s : 0.0;
      e.checks = stats->result.num_checks;
      e.ocds = stats->result.ocds.size();
      e.ods = stats->result.ods.size();
      e.completed = stats->result.completed && scratch.completed;
      entries.push_back(e);

      std::printf(
          "%-7s size=%-5zu rows=%-7zu inc=%-9s scratch=%-9s speedup=%6.1fx "
          "checks=%llu\n",
          kind, size, e.rows,
          ocdd::bench::FormatTime(inc_s, stats->result.completed).c_str(),
          ocdd::bench::FormatTime(scr_s, scratch.completed).c_str(),
          e.speedup, static_cast<unsigned long long>(e.checks));
    }
  }

  WriteReport(entries, dataset, bootstrap_seconds);
  return status;
}
