#include "algo/ucc/ucc.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "algo/set_walk.h"
#include "common/timer.h"
#include "od/dependency_set.h"

namespace ocdd::algo {

std::string Ucc::ToString(const rel::CodedRelation& relation) const {
  std::string out = "{";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ",";
    out += relation.column_name(columns[i]);
  }
  out += "}";
  return out;
}

namespace {

/// UCC's rules for `SetLevelWalk`: one uniqueness check per set.
struct UccRules {
  struct State {};
  using Node = SetNode<State>;
  static constexpr int kPhases = 1;

  std::vector<Ucc>& uccs;

  bool reads_contexts() const { return false; }
  State Seed() const { return {}; }

  template <typename Count>
  void Check(int /*phase*/, Node& node, const SetHistory& /*history*/,
             Count&& count) {
    count("ucc.check");
    // No stripped class has ≥ 2 rows agreeing on the set: unique.
    if (node.partition.error() == 0) uccs.push_back({node.set.ToVector()});
  }

  bool Keep(const Node& node) const { return node.partition.error() != 0; }

  std::optional<State> Join(const std::vector<std::size_t>& /*attrs*/,
                            const std::vector<const Node*>& /*subsets*/) const {
    return State{};
  }
};

}  // namespace

UccResult DiscoverUccs(const rel::CodedRelation& relation,
                       const UccOptions& options) {
  WallTimer timer;
  UccResult result;
  RunContext local_ctx;
  UccRules rules{result.uccs};
  SetLevelWalk<UccRules> walk(
      "ucc", rules, relation,
      options.run_context != nullptr ? *options.run_context : local_ctx,
      result, options.max_level);
  walk.Seed();
  walk.Run([] {});
  od::SortUnique(result.uccs);
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

std::vector<Ucc> RankKeyCandidates(const rel::CodedRelation& relation,
                                   const UccResult& result) {
  std::vector<std::pair<double, Ucc>> scored;
  scored.reserve(result.uccs.size());
  for (const Ucc& ucc : result.uccs) {
    double entropy = 0.0;
    for (rel::ColumnId c : ucc.columns) {
      entropy += relation.ColumnEntropy(c);
    }
    scored.emplace_back(entropy, ucc);
  }
  // Compactness first (a primary key wants few columns), then diversity:
  // among equally small keys, the most entropic columns order the most data.
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.second.columns.size() != b.second.columns.size()) {
                return a.second.columns.size() < b.second.columns.size();
              }
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<Ucc> out;
  out.reserve(scored.size());
  for (auto& [score, ucc] : scored) out.push_back(std::move(ucc));
  return out;
}

}  // namespace ocdd::algo
