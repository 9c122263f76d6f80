#include "qa/claims.h"

#include <algorithm>

#include "algo/fastod/fastod.h"
#include "algo/fd/tane.h"
#include "algo/order/order_discover.h"
#include "core/ocd_discover.h"
#include "od/dependency_set.h"

namespace ocdd::qa {

void ClaimSet::SortAll() {
  od::SortUnique(ods);
  od::SortUnique(ocds);
  od::SortUnique(constant_columns);
  for (auto& cls : equivalence_classes) od::SortUnique(cls);
  od::SortUnique(equivalence_classes);
  od::SortUnique(canonical);
  od::SortUnique(fds);
}

std::vector<std::string> ClaimSet::Render() const {
  std::vector<std::string> out;
  for (const auto& od : ods) out.push_back("OD " + od.ToString());
  for (const auto& ocd : ocds) out.push_back("OCD " + ocd.ToString());
  for (rel::ColumnId c : constant_columns) {
    out.push_back("CONST [" + std::to_string(c) + "]");
  }
  for (const auto& cls : equivalence_classes) {
    std::string s = "EQUIV [";
    for (std::size_t i = 0; i < cls.size(); ++i) {
      if (i > 0) s += ",";
      s += std::to_string(cls[i]);
    }
    out.push_back(s + "]");
  }
  for (const auto& cod : canonical) out.push_back("COD " + cod.ToString());
  for (const auto& fd : fds) out.push_back("FD " + fd.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

ClaimSet RunOcddiscoverClaims(const rel::CodedRelation& relation,
                              RunContext* ctx,
                              const CheckpointConfig* checkpoint) {
  core::OcdDiscoverOptions opts;
  opts.run_context = ctx;
  if (checkpoint != nullptr) opts.checkpoint = *checkpoint;
  return OcddiscoverClaims(core::DiscoverOcds(relation, opts));
}

ClaimSet OcddiscoverClaims(const core::OcdDiscoverResult& r) {
  ClaimSet claims;
  claims.algorithm = "ocddiscover";
  claims.completed = r.completed;
  claims.stop_reason = r.stop_reason;
  claims.num_checks = r.num_checks;
  claims.ods = r.ods;
  claims.ocds = r.ocds;
  claims.constant_columns = r.reduction.constant_columns;
  claims.equivalence_classes = r.reduction.equivalence_classes;
  claims.SortAll();
  return claims;
}

ClaimSet RunOrderClaims(const rel::CodedRelation& relation, RunContext* ctx) {
  algo::OrderDiscoverOptions opts;
  opts.run_context = ctx;
  algo::OrderDiscoverResult r = algo::DiscoverOrderDependencies(relation, opts);
  ClaimSet claims;
  claims.algorithm = "order";
  claims.completed = r.completed;
  claims.stop_reason = r.stop_reason;
  claims.num_checks = r.num_checks;
  claims.ods = r.ods;
  claims.SortAll();
  return claims;
}

ClaimSet RunFastodClaims(const rel::CodedRelation& relation, RunContext* ctx,
                         const CheckpointConfig* checkpoint) {
  algo::FastodOptions opts;
  opts.run_context = ctx;
  if (checkpoint != nullptr) opts.checkpoint = *checkpoint;
  algo::FastodResult r = algo::DiscoverFastod(relation, opts);
  ClaimSet claims;
  claims.algorithm = "fastod";
  claims.completed = r.completed;
  claims.stop_reason = r.stop_reason;
  claims.num_checks = r.num_checks;
  claims.canonical = r.ods;
  claims.SortAll();
  return claims;
}

ClaimSet RunTaneClaims(const rel::CodedRelation& relation, RunContext* ctx,
                       const CheckpointConfig* checkpoint) {
  algo::TaneOptions opts;
  opts.run_context = ctx;
  if (checkpoint != nullptr) opts.checkpoint = *checkpoint;
  algo::TaneResult r = algo::DiscoverFds(relation, opts);
  ClaimSet claims;
  claims.algorithm = "tane";
  claims.completed = r.completed;
  claims.stop_reason = r.stop_reason;
  claims.num_checks = r.num_checks;
  claims.fds = r.fds;
  claims.SortAll();
  return claims;
}

AlgorithmRuns RunAllClaims(const rel::CodedRelation& relation) {
  AlgorithmRuns runs;
  runs.ocdd = RunOcddiscoverClaims(relation);
  runs.order = RunOrderClaims(relation);
  runs.fastod = RunFastodClaims(relation);
  runs.tane = RunTaneClaims(relation);
  return runs;
}

std::size_t DefaultMaxListLen(std::size_t num_columns) {
  if (num_columns > 4) return 3;
  return std::min<std::size_t>(num_columns, 4);
}

namespace {

/// Every permutation of `set` as an AttributeList (set is small: ≤ 4 ids).
std::vector<od::AttributeList> Permutations(std::vector<rel::ColumnId> set) {
  std::vector<od::AttributeList> out;
  std::sort(set.begin(), set.end());
  do {
    out.push_back(od::AttributeList(set));
  } while (std::next_permutation(set.begin(), set.end()));
  return out;
}

/// Adds `X' → X'A` for every permutation X' of `lhs` — the list form of the
/// FD `lhs ↦ rhs` (ties on the whole of X' are exactly agreement on the set).
void AddFdFacts(od::OdInferenceEngine& engine,
                const std::vector<rel::ColumnId>& lhs, rel::ColumnId rhs,
                std::uint64_t* skipped) {
  if (lhs.empty()) {
    if (!engine.AddEquivalence(od::AttributeList{},
                               od::AttributeList{rhs})) {
      ++*skipped;
    }
    return;
  }
  for (const od::AttributeList& perm : Permutations(lhs)) {
    od::OrderDependency od{perm, perm.WithAppended(rhs)};
    if (!engine.AddOd(od)) ++*skipped;
  }
}

}  // namespace

od::OdInferenceEngine BuildClosureEngine(std::size_t num_columns,
                                         std::size_t max_list_len,
                                         const ClaimSet& claims,
                                         std::uint64_t* skipped_out) {
  std::vector<rel::ColumnId> universe(num_columns);
  for (std::size_t i = 0; i < num_columns; ++i) universe[i] = i;
  od::OdInferenceEngine engine(std::move(universe), max_list_len);

  std::uint64_t skipped = 0;
  for (const auto& od : claims.ods) {
    if (!engine.AddOd(od)) ++skipped;
  }
  for (const auto& ocd : claims.ocds) {
    if (!engine.AddOcd(ocd)) ++skipped;
  }
  for (rel::ColumnId c : claims.constant_columns) {
    if (!engine.AddEquivalence(od::AttributeList{}, od::AttributeList{c})) {
      ++skipped;
    }
  }
  for (const auto& cls : claims.equivalence_classes) {
    for (std::size_t i = 1; i < cls.size(); ++i) {
      if (!engine.AddEquivalence(od::AttributeList{cls[0]},
                                 od::AttributeList{cls[i]})) {
        ++skipped;
      }
    }
  }
  for (const auto& fd : claims.fds) {
    AddFdFacts(engine, fd.lhs, fd.rhs, &skipped);
  }
  for (const auto& cod : claims.canonical) {
    if (cod.kind == od::CanonicalOd::Kind::kConstancy) {
      AddFdFacts(engine, cod.context, cod.right, &skipped);
      continue;
    }
    if (cod.context.empty()) {
      if (!engine.AddOcd(od::OrderCompatibility{
              od::AttributeList{cod.left}, od::AttributeList{cod.right}})) {
        ++skipped;
      }
      continue;
    }
    for (const od::AttributeList& perm : Permutations(cod.context)) {
      od::OrderCompatibility ocd{perm.WithAppended(cod.left),
                                 perm.WithAppended(cod.right)};
      if (!engine.AddOcd(ocd)) ++skipped;
    }
  }

  engine.ComputeClosure();
  if (skipped_out != nullptr) *skipped_out += skipped;
  return engine;
}

}  // namespace ocdd::qa
