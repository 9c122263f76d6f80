#ifndef OCDD_PERFBENCH_WORKLOADS_H_
#define OCDD_PERFBENCH_WORKLOADS_H_

// Inputs, the timed discovery op, and the correctness gate of the ocdd
// end-to-end benchmark (README.md). Everything the program under test
// receives is generated here from the workload seed: CSV files, batch files
// and serve requests.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/prof.h"
#include "common/rng.h"
#include "common/result.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "relation/relation.h"
#include "report/json_reader.h"

namespace perfbench {

/// The seed on which the documented result counts must also match.
inline constexpr std::uint64_t kDefaultSeed = 42;

// ---------------------------------------------------------------------------
// Discovery workloads: CSV file -> JSON bytes through OCDDISCOVER
// ---------------------------------------------------------------------------

/// Result counts of one report: the `checks` member and the sizes of the
/// `ocds` and `ods` collections.
struct Counts {
  std::uint64_t checks = 0;
  std::uint64_t ocds = 0;
  std::uint64_t ods = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct DiscoverySpec {
  const char* name;     ///< workload name
  const char* dataset;  ///< datagen registry name
  std::size_t rows;
  std::size_t threads;  ///< threads of the timed op
  Counts default_seed_counts;
  /// A traced run also measures the serving layers (main.cc, ServeMix).
  bool serve_layers;
};

/// `lattice` or `lineitem`; empty for any other name.
std::optional<DiscoverySpec> FindDiscoverySpec(const std::string& workload);

/// Writes the workload's CSV for `seed`. For LATTICE the seed only picks
/// the row order of the hidden total order, so every seed has the same
/// result; for LINEITEM it drives the generator.
ocdd::Status WriteDiscoveryInput(const DiscoverySpec& spec, std::uint64_t seed,
                                 const std::string& csv_path);

/// Per-layer wall times of one op, from outside the program.
struct OpTimings {
  double total_ms = 0.0;
  double ingest_ms = 0.0;     ///< rel::ReadCsvFileWithReport
  double encode_ms = 0.0;     ///< rel::CodedRelation::Encode
  double discover_ms = 0.0;   ///< core::DiscoverOcds
  double serialize_ms = 0.0;  ///< report::ToJson (+ ingest member)
};

struct DiscoveryOp {
  std::string json;  ///< the report, as `ocdd discover x.csv --json` prints it
  OpTimings t;
  std::uint64_t rows_rejected = 0;
  std::uint64_t candidates = 0;
  std::size_t levels = 0;
  std::size_t partition_cache_bytes = 0;
  /// Phase profile of Encode and of DiscoverOcds; empty unless `traced`.
  ocdd::prof::Report encode_profile;
  ocdd::prof::Report discover_profile;
};

/// One op: ingest `csv_path`, encode, discover with sorted partitions on
/// `threads` threads, serialize. `traced` brackets the layers with
/// `prof::Reset`/`prof::Snapshot`; the caller enables the profiler.
ocdd::Result<DiscoveryOp> RunDiscoveryOp(const std::string& csv_path,
                                         std::size_t threads, bool traced);

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// FNV-1a 64 over a report's canonical serialization, ignoring the members
/// that legitimately differ between runs of the same question
/// (`elapsed_seconds`, worker `checkpoint` bookkeeping). Without
/// `with_work_counts` it also ignores `checks` and `stop_state`, which an
/// incremental walk answers differently from a from-scratch one.
std::uint64_t ReportDigest(const ocdd::report::JsonValue& report,
                           bool with_work_counts);

/// What a correct op returns.
struct Expected {
  std::uint64_t digest = 0;
  std::optional<Counts> counts;  ///< checked on the default seed only
};

/// True when `json` parses, its digest matches and, when given, so do the
/// counts. `counts`, when not null, receives the report's counts.
bool PassesGate(const std::string& json, const Expected& expected,
                Counts* counts = nullptr);

/// The set-up reference of a discovery workload: the same op on one thread
/// (results are identical across thread counts). Carries the documented
/// counts when `seed` is the default seed.
ocdd::Result<Expected> DiscoveryReference(const DiscoverySpec& spec,
                                          std::uint64_t seed,
                                          const std::string& csv_path);

/// Digest of a from-scratch, in-process discovery of `relation`, rendered
/// as the CLI renders it: with the ingest accounting when `ingest` is given
/// (a CSV source). The oracle for every answer the daemon serves.
std::uint64_t InProcessDigest(const ocdd::rel::Relation& relation,
                              bool with_work_counts,
                              const ocdd::rel::CsvIngestReport* ingest);

/// True when the incremental warm state persisted under `state_dir` holds
/// exactly `relation` and the OCDs and ODs a from-scratch discovery of it
/// finds. (The state stores the claims, not the column reduction, so the
/// reduction is not compared.)
bool WarmStateMatches(const std::string& state_dir,
                      const ocdd::rel::Relation& relation);

// ---------------------------------------------------------------------------
// Serve mix inputs
// ---------------------------------------------------------------------------

inline constexpr int kServeClients = 2;
inline constexpr int kHitSources = 4;

enum class OpKind { kHit, kMiss, kApply };
const char* OpKindName(OpKind kind);

/// One client's seeded schedule: every block of ten requests holds 7 hits,
/// 2 misses and 1 apply, in a random order. With fixed shares per block the
/// mix is the same in every run, so a run's throughput does not depend on
/// how many misses its seed happened to draw.
class OpSchedule {
 public:
  explicit OpSchedule(std::uint64_t seed) : rng_(seed) {}
  OpKind Next();

 private:
  ocdd::Rng rng_;
  std::vector<OpKind> block_;  ///< the rest of the current block, reversed
};

/// Seed of the k-th miss of `client` (k < 100000); distinct for every
/// (client, k) of one run, so every miss is a relation the daemon has never
/// seen, and below 10^10.
std::uint64_t MissSeed(std::uint64_t seed, int client, std::uint64_t k);

/// Paths of the generated serve inputs, relative to the run directory.
struct ServeInputs {
  std::vector<std::string> hit_csvs;   ///< kHitSources small CSVs
  std::vector<std::string> base_csvs;  ///< one 1000-row base per client
};

/// Writes the hit sources and the client bases under `dir`.
ocdd::Result<ServeInputs> WriteServeInputs(std::uint64_t seed,
                                           const std::string& dir);

/// The rows a client appends, in order: the continuation of the DBTESMA
/// stream whose first 1000 rows are its base.
ocdd::rel::Relation AppendPool(std::uint64_t seed, int client);

/// A batch of 3 deletes (distinct indices below `num_rows`) and 3 appends
/// (the next pool rows from `*pool_next`), so the relation keeps its size.
ocdd::rel::RowBatch MakeApplyBatch(std::uint64_t draw, std::size_t num_rows,
                                   const ocdd::rel::Relation& pool,
                                   std::size_t* pool_next);

/// Bytes in the regular files under `dir` (0 when it does not exist).
std::uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // OCDD_PERFBENCH_WORKLOADS_H_
