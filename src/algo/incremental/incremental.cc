#include "algo/incremental/incremental.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "common/timer.h"
#include "core/column_reduction.h"

namespace ocdd::algo {

namespace {

using od::AttributeList;

std::uint64_t DoubleBits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsDouble(std::uint64_t u) {
  double d = 0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

constexpr char kStateName[] = "incremental";
constexpr std::uint32_t kStateVersion = 1;

/// The walk every session step runs, and the oracle with it.
core::OcdDiscoverResult Walk(const rel::CodedRelation& coded,
                             const IncrementalOptions& options,
                             RunContext* ctx) {
  core::OcdDiscoverOptions w;
  w.run_context = ctx;
  w.num_threads = options.num_threads;
  w.max_level = options.max_level;
  return core::DiscoverOcds(coded, w);
}

}  // namespace

/// Private-member access for the snapshot codec.
struct SessionOps {
  static std::string EncodeState(const IncrementalSession& s);
  static Status DecodeState(const SnapshotView& view, IncrementalSession& s);

  static bool WriteState(IncrementalSession& s, std::string* warning) {
    if (!s.store_) return false;
    Result<std::uint64_t> gen =
        s.store_->Write(EncodeState(s), s.options_.keep_generations);
    if (!gen.ok()) {
      *warning = "warm-state snapshot not written: " + gen.status().message();
      return false;
    }
    return true;
  }
};

core::OcdDiscoverResult DiscoverFromScratch(const rel::Relation& relation,
                                            const IncrementalOptions& options,
                                            RunContext* ctx) {
  return Walk(rel::CodedRelation::Encode(relation), options, ctx);
}

Result<IncrementalSession> IncrementalSession::Start(
    rel::Relation base, const IncrementalOptions& options, RunContext* ctx) {
  IncrementalSession s;
  s.options_ = options;
  s.relation_ = std::move(base);
  s.coded_ = rel::CodedRelation::Encode(s.relation_);
  s.last_ = Walk(s.coded_, options, ctx);

  if (!options.state_dir.empty()) {
    // Deep state paths (e.g. <root>/incremental/<tenant>/<state>) are
    // created here; SnapshotStore itself only makes the leaf.
    std::error_code ec;
    std::filesystem::create_directories(options.state_dir, ec);
    s.store_ = std::make_unique<SnapshotStore>(options.state_dir, kStateName);
    std::string warning;
    SessionOps::WriteState(s, &warning);
    if (!warning.empty()) s.open_warning_ = warning;
  }
  return s;
}

Result<IncrementalSession> IncrementalSession::Open(
    const IncrementalOptions& options,
    const std::function<Result<rel::Relation>()>& base_loader,
    RunContext* ctx) {
  std::string why;
  if (!options.state_dir.empty()) {
    auto store = std::make_unique<SnapshotStore>(options.state_dir,
                                                 kStateName);
    Result<LoadedSnapshot> loaded = store->Load();
    if (loaded.ok()) {
      IncrementalSession s;
      s.options_ = options;
      Status st = SessionOps::DecodeState(loaded->view, s);
      if (st.ok()) {
        s.store_ = std::move(store);
        s.resumed_ = true;
        if (loaded->corrupt_skipped > 0) {
          s.open_warning_ = "skipped " +
                            std::to_string(loaded->corrupt_skipped) +
                            " corrupt warm-state generation(s)";
        }
        return s;
      }
      why = st.message();
    } else {
      why = loaded.status().message();
    }
  } else {
    why = "no state_dir configured";
  }

  // Degradation: no usable warm state — bootstrap from the base source
  // rather than failing (docs/incremental.md §degradation).
  if (!base_loader) {
    return Status::NotFound("no usable warm state (" + why +
                            ") and no base source to fall back to");
  }
  Result<rel::Relation> base = base_loader();
  if (!base.ok()) {
    return Status::NotFound("no usable warm state (" + why +
                            ") and the base source failed to load: " +
                            base.status().message());
  }
  Result<IncrementalSession> s = Start(std::move(base).value(), options, ctx);
  if (s.ok()) {
    s->open_warning_ = "warm state unusable (" + why +
                       "); rebuilt from scratch from the base source";
  }
  return s;
}

Result<BatchApplyStats> IncrementalSession::ApplyBatch(
    const rel::RowBatch& batch, RunContext* ctx) {
  WallTimer timer;
  Result<rel::Relation> merged = rel::ApplyBatch(relation_, batch);
  if (!merged.ok()) return merged.status();
  relation_ = std::move(merged).value();
  coded_ = rel::CodedRelation::Encode(relation_);
  last_ = Walk(coded_, options_, ctx);
  ++batch_seq_;

  BatchApplyStats stats;
  stats.batch_seq = batch_seq_;
  stats.deletes = batch.deletes.size();
  stats.appends = batch.appends.size();
  stats.num_rows = relation_.num_rows();
  stats.result = last_;
  stats.snapshot_written = SessionOps::WriteState(*this, &stats.warning);
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

// ---------------------------------------------------------------------------
// Warm-state snapshot codec (docs/incremental.md §warm-state-format).
// Sections: meta (version, batch_seq, fingerprint, shape, completed flag),
// schema (names + types), rows (typed binary values + null flags — not CSV,
// so types cannot drift on reload), claims (ods/ocds of the last walk),
// stats (walk counters), stop (the walk's stop reason and stop state;
// earlier readers ignore it). Generations written while the walk still kept a
// per-candidate outcome cache carry two more counters in `stats` and an
// `outcomes` section; the decoder ignores both.
// ---------------------------------------------------------------------------

std::string SessionOps::EncodeState(const IncrementalSession& s) {
  SnapshotBuilder b;

  ByteWriter meta;
  meta.U32(kStateVersion);
  meta.U64(s.batch_seq_);
  meta.U64(s.coded_.Fingerprint());
  meta.U64(s.relation_.num_rows());
  meta.U32(static_cast<std::uint32_t>(s.relation_.num_columns()));
  meta.U8(s.last_.completed ? 1 : 0);
  b.AddSection("meta", meta.Take());

  ByteWriter sc;
  sc.U32(static_cast<std::uint32_t>(s.relation_.num_columns()));
  for (std::size_t c = 0; c < s.relation_.num_columns(); ++c) {
    const rel::Attribute& a = s.relation_.schema().attribute(c);
    sc.Str(a.name);
    sc.U8(static_cast<std::uint8_t>(a.type));
  }
  b.AddSection("schema", sc.Take());

  ByteWriter rows;
  const std::size_t m = s.relation_.num_rows();
  for (std::size_t c = 0; c < s.relation_.num_columns(); ++c) {
    const rel::Column& col = s.relation_.column(c);
    for (std::size_t r = 0; r < m; ++r) {
      if (col.is_null(r)) {
        rows.U8(0);
        continue;
      }
      rows.U8(1);
      switch (col.type()) {
        case rel::DataType::kInt:
          rows.U64(static_cast<std::uint64_t>(col.int_at(r)));
          break;
        case rel::DataType::kDouble:
          rows.U64(DoubleBits(col.double_at(r)));
          break;
        case rel::DataType::kString:
          rows.Str(std::string(col.string_at(r)));
          break;
      }
    }
  }
  b.AddSection("rows", rows.Take());

  ByteWriter cl;
  cl.U32(static_cast<std::uint32_t>(s.last_.ods.size()));
  for (const od::OrderDependency& d : s.last_.ods) {
    cl.IdVec(d.lhs.ids());
    cl.IdVec(d.rhs.ids());
  }
  cl.U32(static_cast<std::uint32_t>(s.last_.ocds.size()));
  for (const od::OrderCompatibility& d : s.last_.ocds) {
    cl.IdVec(d.lhs.ids());
    cl.IdVec(d.rhs.ids());
  }
  b.AddSection("claims", cl.Take());

  ByteWriter st;
  st.U64(s.last_.num_checks);
  st.U64(s.last_.candidates_generated);
  st.U64(s.last_.levels_completed);
  b.AddSection("stats", st.Take());

  ByteWriter sp;
  sp.U8(static_cast<std::uint8_t>(s.last_.stop_reason));
  sp.U64(s.last_.stop_state.checks);
  sp.U64(s.last_.stop_state.level);
  sp.U64(s.last_.stop_state.frontier_size);
  b.AddSection("stop", sp.Take());

  return b.Encode();
}

Status SessionOps::DecodeState(const SnapshotView& view,
                               IncrementalSession& s) {
  const std::string* meta_s = view.Find("meta");
  const std::string* sc_s = view.Find("schema");
  const std::string* rows_s = view.Find("rows");
  const std::string* cl_s = view.Find("claims");
  const std::string* st_s = view.Find("stats");
  if (meta_s == nullptr || sc_s == nullptr || rows_s == nullptr ||
      cl_s == nullptr || st_s == nullptr) {
    return Status::ParseError("warm state: missing sections");
  }

  ByteReader meta(*meta_s);
  if (meta.U32() != kStateVersion) {
    return Status::ParseError("warm state: unknown version");
  }
  std::uint64_t batch_seq = meta.U64();
  std::uint64_t fingerprint = meta.U64();
  std::uint64_t num_rows = meta.U64();
  std::uint32_t num_cols = meta.U32();
  bool completed = meta.U8() != 0;
  if (!meta.ok()) return Status::ParseError("warm state: meta damaged");

  ByteReader sc(*sc_s);
  if (sc.U32() != num_cols) {
    return Status::ParseError("warm state: schema/meta width mismatch");
  }
  rel::Schema schema;
  for (std::uint32_t c = 0; c < num_cols && sc.ok(); ++c) {
    std::string name = sc.Str();
    std::uint8_t type = sc.U8();
    if (type > static_cast<std::uint8_t>(rel::DataType::kString)) {
      return Status::ParseError("warm state: bad column type");
    }
    schema.AddAttribute(
        rel::Attribute{std::move(name), static_cast<rel::DataType>(type)});
  }
  if (!sc.ok()) return Status::ParseError("warm state: schema damaged");

  ByteReader rows(*rows_s);
  std::vector<rel::Column> columns;
  columns.reserve(num_cols);
  for (std::uint32_t c = 0; c < num_cols; ++c) {
    rel::DataType type = schema.attribute(c).type;
    rel::Column col(type);
    for (std::uint64_t r = 0; r < num_rows && rows.ok(); ++r) {
      if (rows.U8() == 0) {
        col.Append(rel::Value::Null());
        continue;
      }
      switch (type) {
        case rel::DataType::kInt:
          col.Append(rel::Value::Int(static_cast<std::int64_t>(rows.U64())));
          break;
        case rel::DataType::kDouble:
          col.Append(rel::Value::Double(BitsDouble(rows.U64())));
          break;
        case rel::DataType::kString:
          col.Append(rel::Value::String(rows.Str()));
          break;
      }
    }
    columns.push_back(std::move(col));
  }
  if (!rows.ok()) return Status::ParseError("warm state: rows damaged");
  Result<rel::Relation> relation =
      rel::Relation::FromColumns(std::move(schema), std::move(columns));
  if (!relation.ok()) {
    return Status::ParseError("warm state: relation rebuild failed: " +
                              relation.status().message());
  }

  rel::CodedRelation coded = rel::CodedRelation::Encode(relation.value());
  if (coded.Fingerprint() != fingerprint) {
    return Status::ParseError("warm state: fingerprint mismatch");
  }

  ByteReader cl(*cl_s);
  core::OcdDiscoverResult last;
  std::uint32_t num_ods = cl.U32();
  for (std::uint32_t i = 0; i < num_ods && cl.ok(); ++i) {
    AttributeList lhs(cl.IdVec());
    AttributeList rhs(cl.IdVec());
    last.ods.push_back(od::OrderDependency{std::move(lhs), std::move(rhs)});
  }
  std::uint32_t num_ocds = cl.U32();
  for (std::uint32_t i = 0; i < num_ocds && cl.ok(); ++i) {
    AttributeList lhs(cl.IdVec());
    AttributeList rhs(cl.IdVec());
    last.ocds.push_back(
        od::OrderCompatibility{std::move(lhs), std::move(rhs)});
  }
  if (!cl.ok()) return Status::ParseError("warm state: claims damaged");

  ByteReader st(*st_s);
  last.num_checks = st.U64();
  last.candidates_generated = st.U64();
  last.levels_completed = static_cast<std::size_t>(st.U64());
  last.completed = completed;
  if (!st.ok()) return Status::ParseError("warm state: stats damaged");
  // Generations written before the `stop` section keep only the flag.
  if (const std::string* sp_s = view.Find("stop")) {
    ByteReader sp(*sp_s);
    const std::uint8_t reason = sp.U8();
    last.stop_state.checks = sp.U64();
    last.stop_state.level = static_cast<std::size_t>(sp.U64());
    last.stop_state.frontier_size = static_cast<std::size_t>(sp.U64());
    if (!sp.ok() || reason > static_cast<std::uint8_t>(StopReason::kLevelCap)) {
      return Status::ParseError("warm state: stop damaged");
    }
    last.stop_reason = static_cast<StopReason>(reason);
  }
  // The reduction is a function of the rows alone, so it is recomputed
  // here rather than stored.
  last.reduction = core::ReduceColumns(coded);

  s.relation_ = std::move(relation).value();
  s.coded_ = std::move(coded);
  s.last_ = std::move(last);
  s.batch_seq_ = batch_seq;
  return Status::OK();
}

}  // namespace ocdd::algo
