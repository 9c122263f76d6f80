#include "qa/harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "algo/incremental/incremental.h"
#include "common/io_env.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "core/ocd_discover.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "common/string_util.h"
#include "engine/supervisor.h"
#include "od/brute_force.h"
#include "qa/canonical.h"
#include "qa/metamorphic.h"
#include "qa/shrinker.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_reader.h"
#include "serve/chaos_proxy.h"
#include "serve/client.h"
#include "serve/server.h"

namespace ocdd::qa {

std::uint64_t IterationSeed(std::uint64_t seed, std::uint64_t i) {
  // Iteration 0 is the master seed itself so that `qa --seed S --iters 1`
  // replays a failure reported with iteration seed S exactly.
  if (i == 0) return seed;
  std::uint64_t z = seed + i * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::size_t kMaxDiscrepanciesPerFailure = 20;

void MaybeWriteRepro(const QaOptions& options, QaFailure* failure) {
  if (options.repro_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.repro_dir, ec);
  std::string path = options.repro_dir + "/qa_iter" +
                     std::to_string(failure->iteration) + "_seed" +
                     std::to_string(failure->iteration_seed) + ".csv";
  // Through io_env (sites "qa_repro.*"): a failed repro write surfaces as a
  // typed error on the failure record instead of a silently absent file —
  // losing the repro for a failure the harness just caught is itself a
  // reportable fault.
  Status wrote = IoWriteFileSynced(IoEnv::Get(), "qa_repro", path,
                                   failure->csv.data(), failure->csv.size());
  if (wrote.ok()) {
    failure->repro_path = path;
  } else {
    failure->repro_error = wrote.message();
  }
}

QaFailure MakeFailure(std::uint64_t iteration, std::uint64_t iteration_seed,
                      std::string kind, std::vector<Discrepancy> discrepancies,
                      const rel::Relation& relation) {
  QaFailure f;
  f.iteration = iteration;
  f.iteration_seed = iteration_seed;
  f.kind = std::move(kind);
  if (discrepancies.size() > kMaxDiscrepanciesPerFailure) {
    discrepancies.resize(kMaxDiscrepanciesPerFailure);
  }
  f.discrepancies = std::move(discrepancies);
  f.csv = rel::WriteCsvString(relation);
  f.rows = relation.num_rows();
  f.cols = relation.num_columns();
  return f;
}

/// Re-runs algorithms under a check budget / an armed fault and asserts the
/// partial result is a sound subset of the complete run: every partial claim
/// must hold semantically and be derivable from the complete closure. The
/// RunContext composition (PR 1) promises stopped runs degrade to valid
/// partial answers — this is where that promise is audited.
std::vector<Discrepancy> CheckStoppedRuns(const rel::CodedRelation& coded,
                                          const AlgorithmRuns& runs,
                                          std::uint64_t* checks,
                                          std::uint64_t* skipped) {
  std::vector<Discrepancy> out;
  const std::size_t n = coded.num_columns();
  const std::size_t L = DefaultMaxListLen(n);

  auto check_list_partial = [&](const ClaimSet& partial,
                                const od::OdInferenceEngine& complete,
                                const char* algorithm, const char* how) {
    for (const auto& od : partial.ods) {
      ++*checks;
      if (!od::BruteForceHoldsOd(coded, od.lhs, od.rhs)) {
        out.push_back({"stopped_run", algorithm,
                       std::string(how) + " unsound OD " + od.ToString()});
        continue;
      }
      if (od.lhs.Normalized().size() > L || od.rhs.Normalized().size() > L) {
        ++*skipped;
        continue;
      }
      if (!complete.Implies(od)) {
        out.push_back({"stopped_run", algorithm,
                       std::string(how) + " OD outside complete closure " +
                           od.ToString()});
      }
    }
    for (const auto& ocd : partial.ocds) {
      ++*checks;
      if (!od::BruteForceHoldsOcd(coded, ocd.lhs, ocd.rhs)) {
        out.push_back({"stopped_run", algorithm,
                       std::string(how) + " unsound OCD " + ocd.ToString()});
        continue;
      }
      if (ocd.lhs.Concat(ocd.rhs).Normalized().size() > L) {
        ++*skipped;
        continue;
      }
      if (!complete.ImpliesOcd(ocd)) {
        out.push_back({"stopped_run", algorithm,
                       std::string(how) + " OCD outside complete closure " +
                           ocd.ToString()});
      }
    }
  };

  if (runs.ocdd.num_checks >= 2) {
    od::OdInferenceEngine complete = BuildClosureEngine(n, L, runs.ocdd, skipped);

    RunContext budgeted;
    budgeted.set_check_budget(runs.ocdd.num_checks / 2);
    check_list_partial(RunOcddiscoverClaims(coded, &budgeted), complete,
                       "ocddiscover", "budgeted");

    IoEnv& env = IoEnv::Get();
    env.ArmFault({"ocd.check", IoFaultKind::kCancel,
                  std::max<std::uint64_t>(1, runs.ocdd.num_checks / 3),
                  -1.0});
    RunContext faulted;
    ClaimSet partial = RunOcddiscoverClaims(coded, &faulted);
    env.ClearFaults();
    check_list_partial(partial, complete, "ocddiscover", "fault-injected");
  }

  if (runs.order.num_checks >= 2) {
    od::OdInferenceEngine complete =
        BuildClosureEngine(n, L, runs.order, skipped);
    RunContext budgeted;
    budgeted.set_check_budget(runs.order.num_checks / 2);
    check_list_partial(RunOrderClaims(coded, &budgeted), complete, "order",
                       "budgeted");
  }

  if (runs.fastod.num_checks >= 2) {
    CanonicalClosure complete(runs.fastod.canonical);
    RunContext budgeted;
    budgeted.set_check_budget(runs.fastod.num_checks / 2);
    ClaimSet partial = RunFastodClaims(coded, &budgeted);
    for (const auto& cod : partial.canonical) {
      ++*checks;
      std::vector<rel::ColumnId> ctx = cod.context;
      std::sort(ctx.begin(), ctx.end());
      bool constancy = cod.kind == od::CanonicalOd::Kind::kConstancy;
      bool sound = constancy ? HoldsConstancy(coded, ctx, cod.right)
                             : HoldsCompat(coded, ctx, cod.left, cod.right);
      if (!sound) {
        out.push_back({"stopped_run", "fastod",
                       "budgeted unsound " + cod.ToString()});
        continue;
      }
      bool implied = constancy
                         ? complete.ImpliesConstancy(ctx, cod.right)
                         : complete.ImpliesCompat(ctx, cod.left, cod.right);
      if (!implied) {
        out.push_back({"stopped_run", "fastod",
                       "budgeted claim outside complete closure " +
                           cod.ToString()});
      }
    }
  }

  return out;
}

/// The resume-equivalence audit: for each checkpointable algorithm, run with
/// a checkpoint directory under a check budget that stops it mid-lattice,
/// then resume from the snapshot with no budget, and assert the resumed
/// claims are *identical* to the uninterrupted run's — not merely a sound
/// subset. This is the crash-safety contract `ocdd supervise` leans on: a
/// kill + resume must converge to the same closure as a run that was never
/// interrupted (docs/checkpointing.md).
std::vector<Discrepancy> CheckResumedRuns(const rel::CodedRelation& coded,
                                          const AlgorithmRuns& runs,
                                          const std::string& scratch_dir,
                                          std::uint64_t* checks) {
  std::vector<Discrepancy> out;

  auto check_one = [&](const char* algorithm, const ClaimSet& complete,
                       auto runner) {
    if (complete.num_checks < 2) return;
    const std::string dir = scratch_dir + "/" + algorithm;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    // Leg 1: checkpointed run stopped mid-lattice (drains to a snapshot; if
    // the budget happens to suffice, the final snapshot marks completion and
    // the resume below degenerates to a no-op replay — still equivalent).
    CheckpointConfig stopped_cfg;
    stopped_cfg.dir = dir;
    RunContext stopped_ctx;
    stopped_ctx.set_check_budget(complete.num_checks / 2);
    (void)runner(coded, &stopped_ctx, &stopped_cfg);

    // Leg 2: resume with no budget; must complete.
    CheckpointConfig resume_cfg;
    resume_cfg.dir = dir;
    resume_cfg.resume = true;
    RunContext resume_ctx;
    ClaimSet resumed = runner(coded, &resume_ctx, &resume_cfg);

    ++*checks;
    if (!resumed.completed) {
      out.push_back({"resumed_run", algorithm,
                     "resumed run did not complete (stop reason " +
                         std::string(StopReasonName(resumed.stop_reason)) +
                         ")"});
    } else {
      std::vector<std::string> want = complete.Render();
      std::vector<std::string> got = resumed.Render();
      std::vector<std::string> missing, extra;
      std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                          std::back_inserter(missing));
      std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                          std::back_inserter(extra));
      for (const std::string& s : missing) {
        out.push_back({"resumed_run", algorithm, "resume lost claim " + s});
      }
      for (const std::string& s : extra) {
        out.push_back({"resumed_run", algorithm, "resume invented claim " + s});
      }
    }
    std::filesystem::remove_all(dir, ec);
  };

  check_one("ocddiscover", runs.ocdd,
            [](const rel::CodedRelation& c, RunContext* ctx,
               const CheckpointConfig* cfg) {
              return RunOcddiscoverClaims(c, ctx, cfg);
            });
  check_one("fastod", runs.fastod,
            [](const rel::CodedRelation& c, RunContext* ctx,
               const CheckpointConfig* cfg) {
              return RunFastodClaims(c, ctx, cfg);
            });
  check_one("tane", runs.tane,
            [](const rel::CodedRelation& c, RunContext* ctx,
               const CheckpointConfig* cfg) {
              return RunTaneClaims(c, ctx, cfg);
            });
  return out;
}

/// The scalar-fallback equivalence stage: re-run OCDDISCOVER with the
/// check-kernel backend pinned to the scalar fallback (what `OCDD_SIMD=off`
/// selects at startup) and assert the closure — and the check accounting —
/// is identical to the default-backend run's, in both check modes. The
/// sort-walk leg reuses the iteration's existing default-backend claims as
/// the reference; the partition leg runs both backends back to back so the
/// extremes fill/scan kernels and the partition cache accounting are
/// covered too. A no-op when the scalar backend is already the active one.
std::vector<Discrepancy> CheckSimdFallback(const rel::CodedRelation& coded,
                                           const AlgorithmRuns& runs,
                                           std::uint64_t* checks) {
  std::vector<Discrepancy> out;
  if (simd::Active() == simd::Backend::kScalar) return out;

  auto diff_render = [&out](const std::vector<std::string>& want,
                            const std::vector<std::string>& got,
                            const char* leg) {
    std::vector<std::string> missing, extra;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    for (const std::string& s : missing) {
      out.push_back({"simd", leg, "scalar run lost " + s});
    }
    for (const std::string& s : extra) {
      out.push_back({"simd", leg, "scalar run invented " + s});
    }
  };

  // Leg 1: the sort-based checker (first-diff walk kernels) against the
  // iteration's default-backend claims. A one-byte cache admits no
  // partition, so every check sorts.
  simd::ForceBackendForTest(simd::Backend::kScalar);
  core::OcdDiscoverOptions sort_opts;
  sort_opts.max_partition_cache_bytes = 1;
  ClaimSet scalar = OcddiscoverClaims(core::DiscoverOcds(coded, sort_opts));
  ++*checks;
  diff_render(runs.ocdd.Render(), scalar.Render(), "sort-walk");
  if (scalar.num_checks != runs.ocdd.num_checks) {
    out.push_back({"simd", "sort-walk",
                   "scalar run performed " +
                       std::to_string(scalar.num_checks) + " checks, " +
                       "default backend " +
                       std::to_string(runs.ocdd.num_checks)});
  }

  // Leg 2: cached sorted partitions (extremes fill/scan kernels), scalar
  // first, then the default backend restored via Refresh.
  core::OcdDiscoverResult scalar_part = core::DiscoverOcds(coded);
  simd::Refresh();
  core::OcdDiscoverResult simd_part = core::DiscoverOcds(coded);
  ++*checks;
  if (scalar_part.ocds != simd_part.ocds ||
      scalar_part.ods != simd_part.ods) {
    out.push_back({"simd", "partitions",
                   "backends disagree on the partition-mode closure"});
  }
  if (scalar_part.num_checks != simd_part.num_checks ||
      scalar_part.partition_cache_bytes != simd_part.partition_cache_bytes) {
    out.push_back(
        {"simd", "partitions",
         "backends disagree on accounting: " +
             std::to_string(scalar_part.num_checks) + "/" +
             std::to_string(scalar_part.partition_cache_bytes) +
             " (scalar) vs " + std::to_string(simd_part.num_checks) + "/" +
             std::to_string(simd_part.partition_cache_bytes) + " bytes"});
  }
  return out;
}

/// A CSV rendering of the instance with deterministic malformed rows
/// spliced between the good ones.
struct DirtyCsv {
  std::string clean;  ///< WriteCsvString(relation), unmodified
  std::string text;   ///< clean + injected bad rows
  std::size_t num_bad = 0;
  /// Exact accounting only holds when the clean rendering has no quote
  /// characters — an injected `"broken` row next to a quoted field can merge
  /// records, which the generic contract tolerates but exact counts don't.
  bool exact = false;
};

DirtyCsv InjectBadRows(const rel::Relation& relation, Rng& rng) {
  DirtyCsv dirty;
  dirty.clean = rel::WriteCsvString(relation);
  dirty.exact = dirty.clean.find('"') == std::string::npos;
  dirty.num_bad = 1 + rng.Uniform(3);

  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < dirty.clean.size()) {
    std::size_t nl = dirty.clean.find('\n', start);
    std::size_t end = nl == std::string::npos ? dirty.clean.size() : nl;
    lines.push_back(dirty.clean.substr(start, end - start));
    start = end + 1;
  }

  // One-rejection-per-injection accounting constrains how injection kinds
  // may mix: a stray `"` scans forward until the next quote or NUL, so a
  // second `"broken` would close the first one's quote (merging the records
  // between them) and a NUL row after a `"broken` would be swallowed into
  // its span along with every good line between. Both are well-defined
  // recovery behaviour, just not one-rejection-per-row. So each instance
  // draws either from {ragged, broken-quote (at most one)} or from
  // {ragged, NUL} — over iterations all three kinds are exercised.
  const bool quote_flavour = rng.Uniform(2) == 0;
  bool quote_used = false;
  for (std::size_t b = 0; b < dirty.num_bad; ++b) {
    std::string bad;
    std::uint64_t kind = rng.Uniform(2);
    if (kind == 1 && quote_flavour && quote_used) kind = 0;
    if (kind == 0) {
      // Ragged width (one field too few, or too many for 1-col).
      bad = relation.num_columns() == 1 ? "!,!" : "!";
    } else if (quote_flavour) {
      bad = "\"broken";  // quote opened, never closed
      quote_used = true;
    } else {
      // Binary fed to a text reader.
      bad = std::string("nul") + '\0' + "byte";
      if (relation.num_columns() > 1) {
        bad += std::string(relation.num_columns() - 1, ',');
      }
    }
    // Any data position, including past the last row; never before the
    // header.
    std::size_t at = 1 + rng.Uniform(lines.size());
    lines.insert(lines.begin() + at, std::move(bad));
  }

  for (const std::string& line : lines) {
    dirty.text += line;
    dirty.text += '\n';
  }
  return dirty;
}

/// Self-contained consistency audit of the three bad-row policies on one
/// text — needs no knowledge of how the text was produced, so it doubles as
/// the shrinking predicate. Checks: skip and quarantine agree on
/// readability and on the surviving relation; the quarantine accounting
/// identities hold (total = ingested + rejected, per-code counts sum to
/// rejected, one preserved raw row per rejection); strict fail errors
/// exactly when rejections exist, with a structured IngestError rendering.
std::vector<Discrepancy> CheckIngestContract(const std::string& text,
                                             std::uint64_t* checks) {
  std::vector<Discrepancy> out;
  auto add = [&out](const char* policy, std::string detail) {
    out.push_back({"ingest", policy, std::move(detail)});
  };

  rel::CsvOptions quarantine_opts;
  quarantine_opts.on_bad_row = rel::BadRowPolicy::kQuarantine;
  auto quarantined = rel::ReadCsvWithReport(text, quarantine_opts);
  rel::CsvOptions skip_opts;
  skip_opts.on_bad_row = rel::BadRowPolicy::kSkip;
  auto skipped = rel::ReadCsvWithReport(text, skip_opts);

  ++*checks;
  if (quarantined.ok() != skipped.ok()) {
    add("skip~quarantine",
        std::string("policies disagree on readability: quarantine ") +
            (quarantined.ok() ? "accepts" : "rejects") + ", skip " +
            (skipped.ok() ? "accepts" : "rejects"));
    return out;
  }
  if (!quarantined.ok()) return out;  // both reject (e.g. bad header) — fine

  const rel::CsvIngestReport& report = quarantined->report;
  ++*checks;
  if (report.records_total != report.rows_ingested + report.rows_rejected) {
    add("quarantine",
        "count identity broken: " + std::to_string(report.records_total) +
            " records != " + std::to_string(report.rows_ingested) +
            " ingested + " + std::to_string(report.rows_rejected) +
            " rejected");
  }
  ++*checks;
  if (report.rejected_by_code.total() != report.rows_rejected) {
    add("quarantine", "per-code counts sum to " +
                          std::to_string(report.rejected_by_code.total()) +
                          ", not rows_rejected " +
                          std::to_string(report.rows_rejected) + " (" +
                          report.rejected_by_code.ToString() + ")");
  }
  ++*checks;
  if (report.quarantined_rows.size() != report.rows_rejected) {
    add("quarantine", "preserved " +
                          std::to_string(report.quarantined_rows.size()) +
                          " raw rows for " +
                          std::to_string(report.rows_rejected) +
                          " rejections");
  }
  ++*checks;
  if (quarantined->relation.num_rows() != report.rows_ingested) {
    add("quarantine",
        "relation has " + std::to_string(quarantined->relation.num_rows()) +
            " rows, report counted " + std::to_string(report.rows_ingested));
  }
  ++*checks;
  if (rel::WriteCsvString(quarantined->relation) !=
      rel::WriteCsvString(skipped->relation)) {
    add("skip~quarantine", "policies ingest different relations");
  }

  rel::CsvOptions fail_opts;  // kFail is the default
  auto failed = rel::ReadCsvWithReport(text, fail_opts);
  ++*checks;
  if (failed.ok() != report.clean()) {
    add("fail", report.clean()
                    ? "strict fail rejects input quarantine found clean: " +
                          failed.status().ToString()
                    : "strict fail accepted input with " +
                          std::to_string(report.rows_rejected) +
                          " quarantined rejections");
  }
  ++*checks;
  if (!failed.ok() && failed.status().ToString().find("ingest error [") ==
                          std::string::npos) {
    add("fail", "error is not a structured IngestError: " +
                    failed.status().ToString());
  }
  return out;
}

/// The seeded ingest stage of one qa iteration: splice malformed rows into
/// the instance's CSV, audit the policy contract, and — when the injection
/// is quote-free so exact accounting is provable — pin the exact counts and
/// the recovered relation against the known-good rendering.
std::vector<Discrepancy> CheckIngest(const rel::Relation& relation, Rng& rng,
                                     std::uint64_t* checks, DirtyCsv* dirty) {
  *dirty = InjectBadRows(relation, rng);
  std::vector<Discrepancy> out = CheckIngestContract(dirty->text, checks);
  if (!out.empty() || !dirty->exact) return out;

  rel::CsvOptions opts;
  opts.on_bad_row = rel::BadRowPolicy::kQuarantine;
  auto read = rel::ReadCsvWithReport(dirty->text, opts);
  ++*checks;
  if (!read.ok()) {
    out.push_back({"ingest", "quarantine",
                   "quote-free injection unreadable: " +
                       read.status().ToString()});
    return out;
  }
  if (read->report.rows_rejected != dirty->num_bad) {
    out.push_back({"ingest", "quarantine",
                   "injected " + std::to_string(dirty->num_bad) +
                       " bad rows, counted " +
                       std::to_string(read->report.rows_rejected) + " (" +
                       read->report.rejected_by_code.ToString() + ")"});
  }
  if (read->report.rows_ingested != relation.num_rows()) {
    out.push_back({"ingest", "quarantine",
                   "ingested " + std::to_string(read->report.rows_ingested) +
                       " of " + std::to_string(relation.num_rows()) +
                       " good rows"});
  }
  if (rel::WriteCsvString(read->relation) != dirty->clean) {
    out.push_back({"ingest", "quarantine",
                   "recovered relation differs from the pre-injection one"});
  }
  return out;
}

/// One seeded batch schedule over `base`, covering the batch shapes the
/// incremental contract names (docs/incremental.md): append-only with fresh
/// rows, delete-only, mixed with a duplicated row, an empty batch,
/// NULL-bearing appends (including an all-NULL row), and a final mixed
/// batch. Delete indices are drawn against the row count the relation will
/// have when each batch applies, so the schedule is valid by construction.
std::vector<rel::RowBatch> MakeBatchSchedule(const rel::Relation& base,
                                             Rng& rng) {
  const std::size_t cols = base.num_columns();
  std::size_t rows = base.num_rows();

  auto fresh_row = [&](bool with_nulls, bool all_nulls) {
    std::vector<rel::Value> row;
    row.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      if (all_nulls || (with_nulls && rng.Uniform(4) == 0)) {
        row.push_back(rel::Value::Null());
      } else {
        // A small domain keeps collisions and rank changes frequent — the
        // cases the warm counting fast paths must decide correctly.
        row.push_back(
            rel::Value::Int(static_cast<std::int64_t>(rng.Uniform(8))));
      }
    }
    return row;
  };
  // Duplicate of a base-relation row. If that row was deleted by an earlier
  // batch this is a re-insert — equally interesting for the warm state.
  auto duplicate_row = [&](std::size_t r) {
    std::vector<rel::Value> row;
    row.reserve(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      row.push_back(base.column(c).ValueAt(r));
    }
    return row;
  };
  // Distinct sorted pre-batch indices against the *current* row count.
  auto draw_deletes = [&](std::size_t want) {
    std::vector<std::size_t> ids(rows);
    for (std::size_t r = 0; r < rows; ++r) ids[r] = r;
    for (std::size_t r = 0; r + 1 < ids.size(); ++r) {
      std::size_t j = r + rng.Uniform(ids.size() - r);
      std::swap(ids[r], ids[j]);
    }
    ids.resize(std::min(want, rows));
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto advance = [&rows](const rel::RowBatch& b) {
    rows = rows - b.deletes.size() + b.appends.size();
  };

  std::vector<rel::RowBatch> schedule;
  {
    rel::RowBatch b;  // append-only, fresh rows
    std::size_t n = 1 + rng.Uniform(3);
    for (std::size_t k = 0; k < n; ++k) {
      b.appends.push_back(fresh_row(false, false));
    }
    advance(b);
    schedule.push_back(std::move(b));
  }
  {
    rel::RowBatch b;  // delete-only
    b.deletes = draw_deletes(1 + rng.Uniform(2));
    advance(b);
    schedule.push_back(std::move(b));
  }
  {
    rel::RowBatch b;  // mixed, with a duplicated row
    b.deletes = draw_deletes(rng.Uniform(3));
    if (base.num_rows() > 0) {
      b.appends.push_back(duplicate_row(rng.Uniform(base.num_rows())));
    }
    b.appends.push_back(fresh_row(false, false));
    advance(b);
    schedule.push_back(std::move(b));
  }
  schedule.emplace_back();  // empty batch: everything must be served warm
  {
    rel::RowBatch b;  // NULL-bearing appends, first row all-NULL
    b.appends.push_back(fresh_row(true, true));
    b.appends.push_back(fresh_row(true, false));
    advance(b);
    schedule.push_back(std::move(b));
  }
  {
    rel::RowBatch b;  // final mixed batch
    b.deletes = draw_deletes(rng.Uniform(3));
    std::size_t n = rng.Uniform(3);
    for (std::size_t k = 0; k < n; ++k) {
      b.appends.push_back(fresh_row(true, false));
    }
    advance(b);
    schedule.push_back(std::move(b));
  }
  return schedule;
}

/// The incremental-equivalence stage of one qa iteration: replay `schedule`
/// on an IncrementalSession over `base` and assert after every batch that
/// the session's claims and column reduction equal a from-scratch
/// discovery of the materialized relation — the contract of
/// docs/incremental.md. With a non-empty
/// `state_dir` the session is additionally dropped mid-schedule and
/// reopened from its on-disk warm state (the persistence leg); an empty
/// `state_dir` runs purely in memory, which is what the schedule shrinker's
/// predicate uses.
std::vector<Discrepancy> CheckIncremental(
    const rel::Relation& base, const std::vector<rel::RowBatch>& schedule,
    const std::string& state_dir, std::uint64_t* checks) {
  std::vector<Discrepancy> out;
  algo::IncrementalOptions iopts;
  iopts.state_dir = state_dir;
  if (!state_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }

  auto compare = [&](const algo::IncrementalSession& session,
                     const std::string& where) {
    ++*checks;
    core::OcdDiscoverResult oracle =
        algo::DiscoverFromScratch(session.relation(), iopts);
    if (!oracle.completed || !session.last_result().completed) {
      out.push_back({"incremental", "walk", where + ": walk incomplete"});
      return;
    }
    auto diff = [&](const char* what, const auto& inc_claims,
                    const auto& want_claims) {
      if (inc_claims == want_claims) return;
      std::vector<std::string> got, want;
      for (const auto& c : inc_claims) got.push_back(c.ToString());
      for (const auto& c : want_claims) want.push_back(c.ToString());
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      std::vector<std::string> missing, extra;
      std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                          std::back_inserter(missing));
      std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                          std::back_inserter(extra));
      for (const std::string& s : missing) {
        out.push_back({"incremental", what, where + " lost " + s});
      }
      for (const std::string& s : extra) {
        out.push_back({"incremental", what, where + " invented " + s});
      }
      if (missing.empty() && extra.empty()) {
        out.push_back({"incremental", what, where + " claims reordered"});
      }
    };
    diff("ods", session.last_result().ods, oracle.ods);
    diff("ocds", session.last_result().ocds, oracle.ocds);
    const core::ColumnReduction& got = session.last_result().reduction;
    const core::ColumnReduction& want = oracle.reduction;
    if (got.reduced_universe != want.reduced_universe ||
        got.constant_columns != want.constant_columns ||
        got.equivalence_classes != want.equivalence_classes) {
      out.push_back({"incremental", "reduction",
                     where + " reduced to " + got.ToString(session.coded()) +
                         ", from-scratch to " +
                         want.ToString(session.coded())});
    }
    if (session.last_result().candidates_generated !=
        oracle.candidates_generated) {
      out.push_back(
          {"incremental", "lattice",
           where + " visited " +
               std::to_string(session.last_result().candidates_generated) +
               " candidates, from-scratch " +
               std::to_string(oracle.candidates_generated)});
    }
  };

  auto started = algo::IncrementalSession::Start(base, iopts);
  if (!started.ok()) {
    out.push_back(
        {"incremental", "session", "Start: " + started.status().ToString()});
    return out;
  }
  algo::IncrementalSession session = std::move(started).value();
  compare(session, "bootstrap");

  // Reopen from disk once, mid-schedule — crossing the persistence boundary
  // with warm state that has already absorbed batches.
  const std::size_t reopen_after =
      state_dir.empty() ? schedule.size() + 1 : schedule.size() / 2;

  for (std::size_t b = 0; b < schedule.size() && out.empty(); ++b) {
    auto stats = session.ApplyBatch(schedule[b]);
    if (!stats.ok()) {
      out.push_back({"incremental", "apply",
                     "batch " + std::to_string(b + 1) + ": " +
                         stats.status().ToString()});
      return out;
    }
    const std::string where = "after batch " + std::to_string(b + 1);
    compare(session, where);

    if (out.empty() && b + 1 == reopen_after) {
      const std::uint64_t seq = session.batch_seq();
      session = algo::IncrementalSession();  // drop the in-memory state
      auto reopened = algo::IncrementalSession::Open(
          iopts, [] {
            return Result<rel::Relation>(
                Status::NotFound("loader must not be consulted"));
          });
      if (!reopened.ok()) {
        out.push_back({"incremental", "reopen",
                       where + ": " + reopened.status().ToString()});
        return out;
      }
      session = std::move(reopened).value();
      if (!session.resumed() || session.batch_seq() != seq) {
        out.push_back(
            {"incremental", "reopen",
             where + " warm state not restored (batch_seq " +
                 std::to_string(session.batch_seq()) + " of " +
                 std::to_string(seq) + "): " + session.open_warning()});
        return out;
      }
      // Restored claims must equal the oracle too (counters travel through
      // the snapshot's stats section and the reduction is recomputed from
      // the restored rows, so both are held to the same bar).
      compare(session, where + " (reopened)");
    }
  }
  return out;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"' + JsonEscape(s) + '"';
}

/// Canonicalizes a worker report for equivalence comparison: drops the keys
/// that legitimately differ between two runs of the same computation
/// (timing), then re-serializes with the canonical sorted-key writer. Every
/// semantic key — the dependency sets above all — survives verbatim.
std::string CanonicalReportForCompare(const report::JsonValue& doc) {
  std::map<std::string, report::JsonValue> members = doc.object();
  members.erase("elapsed_seconds");
  members.erase("checkpoint");
  return report::SerializeJson(report::JsonValue::Object(std::move(members)));
}

/// The serve-equivalence stage: one in-process daemon (started lazily on
/// first use, drained on destruction) whose workers are real `<cli> run`
/// processes, plus a direct `<cli> run` baseline per check. Asserts the
/// daemon answers the same question with byte-identical results, cold and
/// from its cache.
class ServeEquivalence {
 public:
  ServeEquivalence(std::string cli_path, std::string scratch_dir,
                   bool chaos = false)
      : cli_path_(std::move(cli_path)),
        scratch_(std::move(scratch_dir)),
        chaos_(chaos) {}

  ~ServeEquivalence() {
    if (proxy_) proxy_->Stop();
    if (server_) {
      server_->RequestStop();
      run_thread_.join();
    }
  }

  std::vector<Discrepancy> Check(const rel::Relation& relation,
                                 std::uint64_t iteration,
                                 std::uint64_t* checks) {
    std::vector<Discrepancy> out;
    if (!EnsureStarted()) {
      // Report the infra failure once; later iterations skip quietly
      // rather than drowning the summary in copies.
      if (!start_failure_reported_) {
        start_failure_reported_ = true;
        out.push_back({"serve", "daemon", start_error_});
      }
      return out;
    }
    ++*checks;

    // One CSV per check (distinct relations must be distinct cache keys —
    // the daemon fingerprints content, not paths, so reuse of the path is
    // itself part of the test).
    const std::string csv_path = scratch_ + "/serve_check.csv";
    Status wrote = rel::WriteCsvFile(relation, csv_path);
    if (!wrote.ok()) {
      out.push_back({"serve", "daemon", "scratch CSV: " + wrote.ToString()});
      return out;
    }

    // Direct baseline: exactly the argv the daemon hands its worker.
    engine::WorkerOutcome direct = engine::RunWorkerProcess(
        {cli_path_, "run", csv_path, "--algo", "discover", "--json",
         "--seed", "42"},
        {});
    Result<report::JsonValue> direct_doc =
        report::ParseJson(direct.stdout_text);
    if (direct.exit_code != 0 || !direct_doc.ok()) {
      out.push_back({"serve", "run",
                     "direct run failed (exit " +
                         std::to_string(direct.exit_code) + ")"});
      return out;
    }
    const std::string want = CanonicalReportForCompare(*direct_doc);

    serve::ServeRequest request;
    request.kind = "run";
    request.tenant = "qa";
    request.id = "qa-" + std::to_string(iteration);
    request.source = csv_path;
    for (const char* expect_cache : {"miss", "hit"}) {
      auto resp = serve::SendRequestOnce(server_->endpoint(), request);
      if (!resp.ok()) {
        out.push_back({"serve", expect_cache,
                       "transport: " + resp.status().ToString()});
        return out;
      }
      if (resp->status != "ok" || !resp->have_report) {
        out.push_back({"serve", expect_cache,
                       "daemon answered status=" + resp->status + " " +
                           resp->reject_reason + " " + resp->error});
        return out;
      }
      if (resp->cache != expect_cache) {
        out.push_back({"serve", expect_cache,
                       "expected a cache " + std::string(expect_cache) +
                           ", got " + resp->cache});
      }
      const std::string got = CanonicalReportForCompare(resp->report);
      if (got != want) {
        out.push_back({"serve", expect_cache,
                       "daemon-served report differs from direct `ocdd "
                       "run` (" +
                           std::to_string(got.size()) + " vs " +
                           std::to_string(want.size()) + " bytes)"});
      }
    }

    // Chaos leg: the same question again, but over TCP through the fault
    // proxy with a retrying client. Every injected reset/torn/latency/
    // corruption must be absorbed by a retry that lands on the (now warm)
    // result cache — the answer stays byte-identical.
    if (chaos_ && proxy_) {
      serve::ClientOptions copts;
      copts.connect_attempts = 10;
      copts.io_timeout_seconds = 5.0;
      serve::RetryOptions retry;
      retry.max_retries = 12;
      retry.deadline_seconds = 120.0;
      retry.backoff_base_seconds = 0.01;
      retry.backoff_cap_seconds = 0.1;
      retry.jitter_seed = iteration + 1;
      serve::ServeClient client(proxy_->endpoint(), copts, retry);
      serve::ClientResult result = client.Call(request);
      if (result.outcome != serve::ClientOutcome::kResponse) {
        out.push_back({"serve", "chaos",
                       std::string("chaos client gave up: ") +
                           serve::ClientOutcomeName(result.outcome) + ": " +
                           result.error});
      } else if (result.response.status != "ok" ||
                 !result.response.have_report) {
        out.push_back({"serve", "chaos",
                       "chaos answer status=" + result.response.status + " " +
                           result.response.reject_reason + " " +
                           result.response.error});
      } else if (CanonicalReportForCompare(result.response.report) != want) {
        out.push_back({"serve", "chaos",
                       "chaos-path report differs from direct `ocdd run`"});
      }
    }
    return out;
  }

 private:
  bool EnsureStarted() {
    if (server_) return true;
    if (!start_error_.empty()) return false;
    serve::ServerOptions opts;
    if (chaos_) {
      // Chaos mode exercises the TCP transport end to end: daemon on an
      // ephemeral TCP port, fault proxy in front of it.
      opts.listen_address = "127.0.0.1:0";
    } else {
      opts.socket_path = scratch_ + "/qa_serve.sock";
    }
    opts.num_executors = 1;
    opts.worker_argv_prefix = {cli_path_, "run"};
    opts.cache_capacity_bytes = 16u << 20;
    opts.drain_grace_seconds = 10.0;
    server_ = std::make_unique<serve::Server>(std::move(opts));
    Status started = server_->Start();
    if (!started.ok()) {
      start_error_ = started.ToString();
      server_.reset();
      return false;
    }
    run_thread_ = std::thread([server = server_.get()] { server->Run(); });
    if (chaos_) {
      serve::ChaosPlan plan;
      plan.fault = serve::ChaosFault::kMix;
      plan.probability = 0.5;
      plan.seed = 0xc4a05;
      plan.latency_seconds = 0.02;
      proxy_ =
          std::make_unique<serve::ChaosProxy>(server_->endpoint(), plan);
      Status proxy_started = proxy_->Start();
      if (!proxy_started.ok()) {
        start_error_ = proxy_started.ToString();
        proxy_.reset();
        server_->RequestStop();
        run_thread_.join();
        server_.reset();
        return false;
      }
    }
    return true;
  }

  std::string cli_path_;
  std::string scratch_;
  bool chaos_ = false;
  std::string start_error_;
  bool start_failure_reported_ = false;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::ChaosProxy> proxy_;
  std::thread run_thread_;
};

}  // namespace

QaSummary RunQa(const QaOptions& options) {
  QaSummary summary;
  summary.seed = options.seed;
  summary.iters_requested = options.iters;
  summary.corruption = CorruptionModeName(options.inject);

  // Per-process scratch (ctest runs harness instances in parallel; a shared
  // path would interleave snapshot generations across processes).
  std::string scratch = options.checkpoint_scratch_dir;
  const bool scratch_is_ours =
      (options.resume_runs || options.incremental ||
       !options.serve_cli_path.empty()) &&
      scratch.empty();
  if (scratch_is_ours) {
    scratch = (std::filesystem::temp_directory_path() /
               ("ocdd_qa_ckpt_" + std::to_string(::getpid())))
                  .string();
  }

  std::unique_ptr<ServeEquivalence> serve_stage;
  if (!options.serve_cli_path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(scratch, ec);
    serve_stage = std::make_unique<ServeEquivalence>(
        options.serve_cli_path, scratch, options.serve_chaos);
  }

  for (std::size_t i = 0; i < options.iters; ++i) {
    if (summary.failures.size() >= options.max_failures) break;
    ++summary.iterations_run;
    const std::uint64_t iter_seed = IterationSeed(options.seed, i);
    Rng rng(iter_seed);
    rel::Relation relation = datagen::MakeRandomRelation(rng, options.spec);
    rel::CodedRelation coded = rel::CodedRelation::Encode(relation);
    AlgorithmRuns runs = RunAllClaims(coded);

    OracleOptions oracle_options;
    oracle_options.max_side_len = options.max_side_len;
    oracle_options.corruption = options.inject;

    OracleReport report = CrossCheckRuns(coded, runs, oracle_options);
    summary.oracle_comparisons += report.comparisons;
    summary.skipped += report.skipped;

    if (!report.clean()) {
      auto still_fails = [&oracle_options](const rel::Relation& r) {
        if (r.num_rows() == 0 || r.num_columns() == 0) return false;
        return !CrossCheck(rel::CodedRelation::Encode(r), oracle_options)
                    .clean();
      };
      ShrinkResult shrunk = ShrinkFailingRelation(relation, still_fails);
      summary.shrink_evaluations += shrunk.evaluations;
      // Report the discrepancies of the *shrunk* instance — same failure,
      // minimal statement.
      OracleReport shrunk_report =
          CrossCheck(rel::CodedRelation::Encode(shrunk.relation),
                     oracle_options);
      QaFailure f = MakeFailure(
          i, iter_seed, "oracle",
          shrunk_report.clean() ? std::move(report.discrepancies)
                                : std::move(shrunk_report.discrepancies),
          shrunk.relation);
      MaybeWriteRepro(options, &f);
      summary.failures.push_back(std::move(f));
      continue;
    }

    bool failed = false;
    if (options.ingest) {
      DirtyCsv dirty;
      std::vector<Discrepancy> ds =
          CheckIngest(relation, rng, &summary.ingest_checks, &dirty);
      if (!ds.empty()) {
        // Shrink by raw lines when the self-contained contract reproduces;
        // exact-count mismatches depend on the injection and ship unshrunk.
        std::string repro_text = dirty.text;
        auto contract_fails = [](const std::string& text) {
          std::uint64_t scratch = 0;
          return !CheckIngestContract(text, &scratch).empty();
        };
        std::uint64_t scratch = 0;
        if (!CheckIngestContract(dirty.text, &scratch).empty()) {
          ShrinkCsvResult shrunk =
              ShrinkFailingCsvLines(dirty.text, contract_fails);
          summary.shrink_evaluations += shrunk.evaluations;
          repro_text = std::move(shrunk.csv);
        }
        QaFailure f;
        f.iteration = i;
        f.iteration_seed = iter_seed;
        f.kind = "ingest";
        if (ds.size() > kMaxDiscrepanciesPerFailure) {
          ds.resize(kMaxDiscrepanciesPerFailure);
        }
        f.discrepancies = std::move(ds);
        f.csv = std::move(repro_text);
        f.rows = relation.num_rows();
        f.cols = relation.num_columns();
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
        continue;
      }
    }

    if (options.metamorphic) {
      for (Transform t : kAllTransforms) {
        OracleReport mreport = CheckMetamorphic(relation, runs, t, rng);
        summary.metamorphic_comparisons += mreport.comparisons;
        summary.skipped += mreport.skipped;
        if (!mreport.clean()) {
          QaFailure f = MakeFailure(
              i, iter_seed, std::string("metamorphic/") + TransformName(t),
              std::move(mreport.discrepancies), relation);
          MaybeWriteRepro(options, &f);
          summary.failures.push_back(std::move(f));
          failed = true;
          break;
        }
      }
    }
    if (failed) continue;

    if (options.simd_fallback && i % 4 == 1 && runs.ocdd.completed) {
      std::vector<Discrepancy> ds =
          CheckSimdFallback(coded, runs, &summary.simd_checks);
      if (!ds.empty()) {
        QaFailure f =
            MakeFailure(i, iter_seed, "simd", std::move(ds), relation);
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
        continue;
      }
    }

    if (options.stopped_runs && i % 5 == 0 && runs.AllCompleted()) {
      std::vector<Discrepancy> ds = CheckStoppedRuns(
          coded, runs, &summary.stopped_run_checks, &summary.skipped);
      if (!ds.empty()) {
        QaFailure f =
            MakeFailure(i, iter_seed, "stopped_run", std::move(ds), relation);
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
        continue;
      }
    }

    if (options.resume_runs && i % 7 == 0 && runs.AllCompleted()) {
      std::vector<Discrepancy> ds =
          CheckResumedRuns(coded, runs, scratch, &summary.resume_checks);
      if (!ds.empty()) {
        QaFailure f =
            MakeFailure(i, iter_seed, "resumed_run", std::move(ds), relation);
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
        continue;
      }
    }

    // The incremental stage pays one from-scratch oracle walk per batch of
    // its schedule, so it shares the sparse cadences above.
    if (options.incremental && i % 3 == 0) {
      std::vector<rel::RowBatch> schedule = MakeBatchSchedule(relation, rng);
      std::vector<Discrepancy> ds =
          CheckIncremental(relation, schedule, scratch + "/incremental_stage",
                           &summary.incremental_checks);
      if (!ds.empty()) {
        // Shrink the schedule when the failure reproduces without the
        // persistence leg; disk-specific failures ship unshrunk. Candidates
        // that no longer apply cleanly are rejected, not counted as repros.
        auto schedule_fails = [&relation](
                                  const std::vector<rel::RowBatch>& cand) {
          rel::Relation cur = relation;
          for (const rel::RowBatch& b : cand) {
            auto next = rel::ApplyBatch(cur, b);
            if (!next.ok()) return false;
            cur = std::move(next).value();
          }
          std::uint64_t scratch_checks = 0;
          return !CheckIncremental(relation, cand, "", &scratch_checks)
                      .empty();
        };
        if (schedule_fails(schedule)) {
          ShrinkScheduleResult shrunk =
              ShrinkFailingSchedule(schedule, schedule_fails);
          summary.shrink_evaluations += shrunk.evaluations;
          std::uint64_t scratch_checks = 0;
          std::vector<Discrepancy> shrunk_ds = CheckIncremental(
              relation, shrunk.schedule, "", &scratch_checks);
          if (!shrunk_ds.empty()) {
            schedule = std::move(shrunk.schedule);
            ds = std::move(shrunk_ds);
          }
        }
        std::string rendered;
        for (std::size_t b = 0; b < schedule.size(); ++b) {
          rendered += "batch " + std::to_string(b + 1) + ":\n" +
                      rel::WriteBatchText(schedule[b], relation.schema());
        }
        ds.push_back({"incremental", "schedule", std::move(rendered)});
        QaFailure f =
            MakeFailure(i, iter_seed, "incremental", std::move(ds), relation);
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
        continue;
      }
    }

    // The serve stage spawns two real worker processes per check (direct
    // baseline + cold daemon run), so it runs on its own sparse cadence.
    if (serve_stage && i % 9 == 0) {
      std::vector<Discrepancy> ds =
          serve_stage->Check(relation, i, &summary.serve_checks);
      if (!ds.empty()) {
        QaFailure f =
            MakeFailure(i, iter_seed, "serve", std::move(ds), relation);
        MaybeWriteRepro(options, &f);
        summary.failures.push_back(std::move(f));
      }
    }
  }

  // Drain the daemon before tearing its scratch directory down.
  serve_stage.reset();
  if (scratch_is_ours) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
  return summary;
}

std::string SummaryToJson(const QaSummary& summary) {
  std::string out = "{\n";
  out += "  \"seed\": " + std::to_string(summary.seed) + ",\n";
  out += "  \"iters_requested\": " + std::to_string(summary.iters_requested) +
         ",\n";
  out += "  \"iterations_run\": " + std::to_string(summary.iterations_run) +
         ",\n";
  out += "  \"corruption\": ";
  AppendJsonString(out, summary.corruption);
  out += ",\n";
  out += "  \"oracle_comparisons\": " +
         std::to_string(summary.oracle_comparisons) + ",\n";
  out += "  \"metamorphic_comparisons\": " +
         std::to_string(summary.metamorphic_comparisons) + ",\n";
  out += "  \"stopped_run_checks\": " +
         std::to_string(summary.stopped_run_checks) + ",\n";
  out += "  \"resume_checks\": " + std::to_string(summary.resume_checks) +
         ",\n";
  out += "  \"ingest_checks\": " + std::to_string(summary.ingest_checks) +
         ",\n";
  out += "  \"incremental_checks\": " +
         std::to_string(summary.incremental_checks) + ",\n";
  out += "  \"simd_checks\": " + std::to_string(summary.simd_checks) + ",\n";
  out += "  \"serve_checks\": " + std::to_string(summary.serve_checks) +
         ",\n";
  out += "  \"skipped\": " + std::to_string(summary.skipped) + ",\n";
  out += "  \"shrink_evaluations\": " +
         std::to_string(summary.shrink_evaluations) + ",\n";
  out += std::string("  \"clean\": ") + (summary.clean() ? "true" : "false") +
         ",\n";
  out += "  \"failures\": [";
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    const QaFailure& f = summary.failures[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"iteration\": " + std::to_string(f.iteration) +
           ", \"seed\": " + std::to_string(f.iteration_seed) + ", \"kind\": ";
    AppendJsonString(out, f.kind);
    out += ", \"rows\": " + std::to_string(f.rows) +
           ", \"cols\": " + std::to_string(f.cols) + ", \"repro_path\": ";
    AppendJsonString(out, f.repro_path);
    if (!f.repro_error.empty()) {
      out += ", \"repro_error\": ";
      AppendJsonString(out, f.repro_error);
    }
    out += ", \"csv\": ";
    AppendJsonString(out, f.csv);
    out += ", \"discrepancies\": [";
    for (std::size_t d = 0; d < f.discrepancies.size(); ++d) {
      if (d > 0) out += ", ";
      AppendJsonString(out, f.discrepancies[d].ToString());
    }
    out += "]}";
  }
  out += summary.failures.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ocdd::qa
