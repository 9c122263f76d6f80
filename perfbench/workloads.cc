#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <utility>

#include "algo/incremental/incremental.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"
#include "relation/coded_relation.h"
#include "relation/csv.h"
#include "report/json_writer.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ocdd::core::OcdDiscoverOptions DiscoverOptions(std::size_t threads) {
  ocdd::core::OcdDiscoverOptions opts;
  opts.num_threads = threads;
  opts.use_sorted_partitions = true;
  return opts;
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Seeds of the serve inputs, kept apart from each other and from MissSeed.
std::uint64_t HitSeed(std::uint64_t seed, int i) {
  return seed * 1000 + 100 + static_cast<std::uint64_t>(i);
}
std::uint64_t StreamSeed(std::uint64_t seed, int client) {
  return seed * 1000 + 200 + static_cast<std::uint64_t>(client);
}

// A client's row stream: one DBTESMA relation whose first kBaseRows rows
// are the base and whose later rows are appended in order. Keys keep
// rising, so every append is a new tuple that follows the generator's
// structure (key -> batch -> region -> zone stays monotone) and the
// dependencies, hence the apply cost, stay the same batch after batch.
constexpr std::size_t kBaseRows = 1000;
constexpr std::size_t kStreamRows = 4000;

ocdd::Result<ocdd::rel::Relation> ClientStream(std::uint64_t seed,
                                               int client) {
  return ocdd::datagen::MakeDataset("DBTESMA", kStreamRows,
                                    StreamSeed(seed, client));
}

// Small enough that the fingerprint ingest of a cache hit stays near a
// millisecond, large enough that no seed gives a degenerate relation: at
// 60 rows some seeds turn up thousands of accidental OCDs, and a hit then
// costs a multi-megabyte report.
constexpr std::size_t kHitRows = 200;

Counts CountsOf(const ocdd::report::JsonValue& report) {
  return Counts{static_cast<std::uint64_t>(report["checks"].number_value()),
                report["ocds"].array().size(), report["ods"].array().size()};
}

}  // namespace

std::optional<DiscoverySpec> FindDiscoverySpec(const std::string& workload) {
  if (workload == "lattice") {
    return DiscoverySpec{"lattice", "LATTICE", 20000, 4, {50030, 9400, 0},
                         false};
  }
  if (workload == "lineitem") {
    return DiscoverySpec{"lineitem", "LINEITEM", 50000, 1, {136, 1, 1},
                         true};
  }
  return std::nullopt;
}

ocdd::Status WriteDiscoveryInput(const DiscoverySpec& spec, std::uint64_t seed,
                                 const std::string& csv_path) {
  OCDD_ASSIGN_OR_RETURN(ocdd::rel::Relation relation,
                        ocdd::datagen::MakeDataset(spec.dataset, spec.rows,
                                                   seed));
  return ocdd::rel::WriteCsvFile(relation, csv_path);
}

ocdd::Result<DiscoveryOp> RunDiscoveryOp(const std::string& csv_path,
                                         std::size_t threads, bool traced) {
  DiscoveryOp op;
  if (traced) ocdd::prof::Reset();
  const Clock::time_point t0 = Clock::now();
  OCDD_ASSIGN_OR_RETURN(ocdd::rel::CsvRead read,
                        ocdd::rel::ReadCsvFileWithReport(csv_path));
  const Clock::time_point t1 = Clock::now();
  ocdd::rel::CodedRelation coded =
      ocdd::rel::CodedRelation::Encode(read.relation);
  const Clock::time_point t2 = Clock::now();
  if (traced) {
    op.encode_profile = ocdd::prof::Snapshot();
    ocdd::prof::Reset();
  }
  const Clock::time_point t3 = Clock::now();
  ocdd::core::OcdDiscoverResult result =
      ocdd::core::DiscoverOcds(coded, DiscoverOptions(threads));
  const Clock::time_point t4 = Clock::now();
  if (traced) op.discover_profile = ocdd::prof::Snapshot();
  const Clock::time_point t5 = Clock::now();
  result.stop_state.ingest_rejected = read.report.rows_rejected;
  op.json = ocdd::report::WithIngest(ocdd::report::ToJson(result, coded),
                                     read.report);
  const Clock::time_point t6 = Clock::now();

  op.t.ingest_ms = MsBetween(t0, t1);
  op.t.encode_ms = MsBetween(t1, t2);
  op.t.discover_ms = MsBetween(t3, t4);
  op.t.serialize_ms = MsBetween(t5, t6);
  op.t.total_ms = MsBetween(t0, t6);
  op.rows_rejected = read.report.rows_rejected;
  op.candidates = result.candidates_generated;
  op.levels = result.levels_completed;
  op.partition_cache_bytes = result.partition_cache_bytes;
  return op;
}

std::uint64_t ReportDigest(const ocdd::report::JsonValue& report,
                           bool with_work_counts) {
  if (report.kind() != ocdd::report::JsonValue::Kind::kObject) return 0;
  std::map<std::string, ocdd::report::JsonValue> members = report.object();
  members.erase("elapsed_seconds");
  members.erase("checkpoint");
  if (!with_work_counts) {
    members.erase("checks");
    members.erase("stop_state");
  }
  return Fnv1a(ocdd::report::SerializeJson(
      ocdd::report::JsonValue::Object(std::move(members))));
}

bool PassesGate(const std::string& json, const Expected& expected,
                Counts* counts) {
  ocdd::Result<ocdd::report::JsonValue> doc = ocdd::report::ParseJson(json);
  if (!doc.ok()) return false;
  const Counts actual = CountsOf(*doc);
  if (counts != nullptr) *counts = actual;
  if (ReportDigest(*doc, true) != expected.digest) return false;
  return !expected.counts || actual == *expected.counts;
}

ocdd::Result<Expected> DiscoveryReference(const DiscoverySpec& spec,
                                          std::uint64_t seed,
                                          const std::string& csv_path) {
  OCDD_ASSIGN_OR_RETURN(DiscoveryOp op, RunDiscoveryOp(csv_path, 1, false));
  OCDD_ASSIGN_OR_RETURN(ocdd::report::JsonValue doc,
                        ocdd::report::ParseJson(op.json));
  Expected expected;
  expected.digest = ReportDigest(doc, true);
  if (seed == kDefaultSeed) expected.counts = spec.default_seed_counts;
  return expected;
}

std::uint64_t InProcessDigest(const ocdd::rel::Relation& relation,
                              bool with_work_counts,
                              const ocdd::rel::CsvIngestReport* ingest) {
  ocdd::rel::CodedRelation coded = ocdd::rel::CodedRelation::Encode(relation);
  ocdd::core::OcdDiscoverResult result =
      ocdd::core::DiscoverOcds(coded, DiscoverOptions(1));
  std::string json;
  if (ingest != nullptr) {
    result.stop_state.ingest_rejected = ingest->rows_rejected;
    json = ocdd::report::WithIngest(ocdd::report::ToJson(result, coded),
                                    *ingest);
  } else {
    json = ocdd::report::ToJson(result, coded);
  }
  ocdd::Result<ocdd::report::JsonValue> doc = ocdd::report::ParseJson(json);
  return doc.ok() ? ReportDigest(*doc, with_work_counts) : 0;
}

bool WarmStateMatches(const std::string& state_dir,
                      const ocdd::rel::Relation& relation) {
  ocdd::algo::IncrementalOptions opts;
  opts.state_dir = state_dir;
  auto session = ocdd::algo::IncrementalSession::Open(opts, nullptr);
  if (!session.ok()) return false;
  ocdd::rel::CodedRelation coded = ocdd::rel::CodedRelation::Encode(relation);
  if (coded.Fingerprint() != session->coded().Fingerprint()) return false;
  auto claims = [](const ocdd::core::OcdDiscoverResult& result,
                   const ocdd::rel::CodedRelation& rel) {
    auto doc = ocdd::report::ParseJson(ocdd::report::ToJson(result, rel));
    return doc.ok() ? std::make_pair((*doc)["ocds"], (*doc)["ods"])
                    : std::make_pair(ocdd::report::JsonValue(),
                                     ocdd::report::JsonValue());
  };
  const auto warm = claims(session->last_result(), session->coded());
  const auto fresh =
      claims(ocdd::core::DiscoverOcds(coded, DiscoverOptions(1)), coded);
  return session->last_result().completed && !warm.first.is_null() &&
         warm == fresh;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kHit: return "hit";
    case OpKind::kMiss: return "miss";
    case OpKind::kApply: return "apply";
  }
  return "?";
}

OpKind OpSchedule::Next() {
  if (block_.empty()) {
    block_.assign(7, OpKind::kHit);
    block_.insert(block_.end(), 2, OpKind::kMiss);
    block_.push_back(OpKind::kApply);
    rng_.Shuffle(block_);
  }
  const OpKind kind = block_.back();
  block_.pop_back();
  return kind;
}

std::uint64_t MissSeed(std::uint64_t seed, int client, std::uint64_t k) {
  // At most ten decimal digits: the request's JSON encoding keeps no more
  // (report::SerializeJson prints numbers with %.10g), so a longer seed
  // would reach the daemon altered.
  return ((seed % 10000) * 10 + static_cast<std::uint64_t>(client)) * 100000 +
         k % 100000;
}

ocdd::Result<ServeInputs> WriteServeInputs(std::uint64_t seed,
                                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return ocdd::Status::Internal("cannot create " + dir);
  ServeInputs inputs;
  for (int i = 0; i < kHitSources; ++i) {
    OCDD_ASSIGN_OR_RETURN(
        ocdd::rel::Relation r,
        ocdd::datagen::MakeDataset("DBTESMA", kHitRows, HitSeed(seed, i)));
    inputs.hit_csvs.push_back(dir + "/hit" + std::to_string(i) + ".csv");
    OCDD_RETURN_IF_ERROR(ocdd::rel::WriteCsvFile(r, inputs.hit_csvs.back()));
  }
  for (int c = 0; c < kServeClients; ++c) {
    OCDD_ASSIGN_OR_RETURN(ocdd::rel::Relation stream, ClientStream(seed, c));
    inputs.base_csvs.push_back(dir + "/base" + std::to_string(c) + ".csv");
    OCDD_RETURN_IF_ERROR(ocdd::rel::WriteCsvFile(stream.HeadRows(kBaseRows),
                                                 inputs.base_csvs.back()));
  }
  return inputs;
}

ocdd::rel::Relation AppendPool(std::uint64_t seed, int client) {
  ocdd::Result<ocdd::rel::Relation> stream = ClientStream(seed, client);
  if (!stream.ok()) return ocdd::rel::Relation();
  std::vector<std::size_t> rows;
  for (std::size_t r = kBaseRows; r < stream->num_rows(); ++r) {
    rows.push_back(r);
  }
  return stream->SelectRows(rows);
}

ocdd::rel::RowBatch MakeApplyBatch(std::uint64_t draw, std::size_t num_rows,
                                   const ocdd::rel::Relation& pool,
                                   std::size_t* pool_next) {
  ocdd::Rng rng(draw);
  ocdd::rel::RowBatch batch;
  while (batch.deletes.size() < 3) {
    const std::size_t row = rng.Uniform(num_rows);
    bool fresh = true;
    for (std::size_t d : batch.deletes) fresh = fresh && d != row;
    if (fresh) batch.deletes.push_back(row);
  }
  std::sort(batch.deletes.begin(), batch.deletes.end());
  for (int i = 0; i < 3; ++i) {
    const std::size_t row = (*pool_next)++ % pool.num_rows();
    std::vector<ocdd::rel::Value> values;
    for (std::size_t c = 0; c < pool.num_columns(); ++c) {
      values.push_back(pool.ValueAt(row, static_cast<ocdd::rel::ColumnId>(c)));
    }
    batch.appends.push_back(std::move(values));
  }
  return batch;
}

std::uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
