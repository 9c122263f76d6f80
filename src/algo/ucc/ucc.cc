#include "algo/ucc/ucc.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "algo/attr_set.h"
#include "algo/partition/stripped_partition.h"
#include "common/run_context.h"
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

struct Node {
  AttrSet set;
  StrippedPartition partition;
};

}  // namespace

UccResult DiscoverUccs(const rel::CodedRelation& relation,
                       const UccOptions& options) {
  WallTimer timer;
  UccResult result;
  std::size_t n = relation.num_columns();
  std::size_t m = relation.num_rows();
  if (n == 0 || n > AttrSet::kMaxAttrs) {
    result.completed = n == 0;
    return result;
  }

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;
  if (options.max_checks != 0) ctx->set_check_budget(options.max_checks);
  if (options.time_limit_seconds > 0.0) {
    ctx->set_time_limit_seconds(options.time_limit_seconds);
  }

  std::vector<Node> level;
  std::size_t level_bytes = 0;
  bool aborted = false;
  StopReason cap_reason = StopReason::kNone;
  level.reserve(n);
  for (std::size_t a = 0; a < n && !aborted; ++a) {
    Node node;
    node.set = AttrSet::Single(a);
    node.partition = StrippedPartition::ForColumn(relation, a);
    std::size_t bytes = node.partition.MemoryBytes();
    if (!ctx->ChargeMemory(bytes)) {
      aborted = true;
      break;
    }
    level_bytes += bytes;
    level.push_back(std::move(node));
  }

  std::size_t size = 1;
  try {
  while (!level.empty() && !aborted) {
    ctx->AtInjectionPoint("ucc.level");
    if (options.max_size != 0 && size > options.max_size) {
      aborted = true;
      cap_reason = StopReason::kLevelCap;
      break;
    }

    // Emit unique nodes (minimal by construction), keep the rest.
    std::vector<Node> survivors;
    survivors.reserve(level.size());
    for (Node& node : level) {
      if (ctx->ShouldStop()) {
        aborted = true;
        break;
      }
      ctx->AtInjectionPoint("ucc.check");
      ++result.num_checks;
      ctx->CountCheck(1);
      if (node.partition.error() == 0) {
        // No stripped class has ≥ 2 rows agreeing on the set: unique.
        Ucc ucc;
        for (std::size_t c : node.set.ToVector()) ucc.columns.push_back(c);
        result.uccs.push_back(std::move(ucc));
      } else {
        survivors.push_back(std::move(node));
      }
    }
    if (aborted) break;
    level = std::move(survivors);

    // Prefix-block join over the non-unique nodes; requiring every
    // immediate subset to be present (i.e. non-unique) enforces minimality.
    std::unordered_map<AttrSet, std::size_t, AttrSetHash> index;
    for (std::size_t i = 0; i < level.size(); ++i) {
      index.emplace(level[i].set, i);
    }
    std::map<std::vector<std::size_t>, std::vector<std::size_t>> blocks;
    for (std::size_t i = 0; i < level.size(); ++i) {
      std::vector<std::size_t> attrs = level[i].set.ToVector();
      attrs.pop_back();
      blocks[attrs].push_back(i);
    }
    std::vector<Node> next;
    std::size_t next_bytes = 0;
    for (const auto& [prefix, members] : blocks) {
      if (aborted) break;
      for (std::size_t i = 0; i < members.size() && !aborted; ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          if (ctx->ShouldStop()) {
            aborted = true;
            break;
          }
          const Node& x1 = level[members[i]];
          const Node& x2 = level[members[j]];
          AttrSet y = x1.set.Union(x2.set);
          bool all_present = true;
          for (std::size_t c : y.ToVector()) {
            if (index.find(y.WithoutAttr(c)) == index.end()) {
              all_present = false;
              break;
            }
          }
          if (!all_present) continue;
          ctx->AtInjectionPoint("ucc.generate");
          Node node;
          node.set = y;
          node.partition =
              StrippedPartition::Product(x1.partition, x2.partition, m);
          std::size_t bytes = node.partition.MemoryBytes();
          if (!ctx->ChargeMemory(bytes)) {
            aborted = true;
            break;
          }
          next_bytes += bytes;
          next.push_back(std::move(node));
        }
      }
    }
    if (aborted) break;
    level = std::move(next);
    ctx->ReleaseMemory(level_bytes);
    level_bytes = next_bytes;
    ++size;
  }
  } catch (const FaultInjectedError&) {
    ctx->RequestStop(StopReason::kFaultInjected);
    aborted = true;
  }
  ctx->ReleaseMemory(level_bytes);

  aborted = aborted || ctx->stop_requested();
  od::SortUnique(result.uccs);
  result.completed = !aborted;
  result.stop_reason = ctx->stop_reason() != StopReason::kNone
                           ? ctx->stop_reason()
                           : cap_reason;
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
