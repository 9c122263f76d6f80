#include "algo/fastod/fastod_bid.h"

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

std::string BidCanonicalOd::ToString(
    const rel::CodedRelation& relation) const {
  std::string out = "{";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i > 0) out += ",";
    out += relation.column_name(context[i]);
  }
  out += "}: ";
  switch (kind) {
    case Kind::kConstancy:
      out += "[] -> " + relation.column_name(right);
      break;
    case Kind::kConcordant:
      out += relation.column_name(left) + "+ ~ " +
             relation.column_name(right) + "+";
      break;
    case Kind::kAntiConcordant:
      out += relation.column_name(left) + "+ ~ " +
             relation.column_name(right) + "-";
      break;
  }
  return out;
}

namespace {

struct BidPair {
  std::size_t a;  ///< a < b
  std::size_t b;
  bool anti;      ///< false: A↑ ~ B↑, true: A↑ ~ B↓

  friend bool operator==(const BidPair& x, const BidPair& y) {
    return x.a == y.a && x.b == y.b && x.anti == y.anti;
  }
};

struct Node {
  AttrSet set;
  StrippedPartition partition;
  AttrSet cc;
  std::vector<BidPair> swap_pairs;
  std::vector<BidPair> falsified;
};

struct SwapOutcome {
  bool swap = false;
  bool a_varies = false;
  bool b_varies = false;
};

/// Polarity-aware swap check within each context class.
/// Concordant violation: a strictly ↑ while b strictly ↓.
/// Anti-concordant violation: a strictly ↑ while b strictly ↑.
SwapOutcome CheckSwapBid(const rel::CodedRelation& relation,
                         const StrippedPartition& context, std::size_t a,
                         std::size_t b, bool anti) {
  SwapOutcome out;
  const std::vector<std::int32_t>& ca = relation.column(a).codes;
  const std::vector<std::int32_t>& cb = relation.column(b).codes;

  std::vector<std::pair<std::int32_t, std::int32_t>> vals;
  for (const std::vector<std::uint32_t>& cls : context.classes()) {
    vals.clear();
    vals.reserve(cls.size());
    for (std::uint32_t row : cls) vals.emplace_back(ca[row], cb[row]);
    std::sort(vals.begin(), vals.end());

    if (vals.front().first != vals.back().first) out.a_varies = true;

    bool have_prev = false;
    std::int32_t prev_max_b = 0;
    std::int32_t prev_min_b = 0;
    std::size_t i = 0;
    while (i < vals.size()) {
      std::size_t j = i + 1;
      std::int32_t group_min_b = vals[i].second;
      std::int32_t group_max_b = vals[i].second;
      while (j < vals.size() && vals[j].first == vals[i].first) {
        group_max_b = std::max(group_max_b, vals[j].second);
        ++j;
      }
      if (group_min_b != group_max_b) out.b_varies = true;
      if (have_prev) {
        if (prev_max_b != group_min_b) out.b_varies = true;
        if (!anti && prev_max_b > group_min_b) out.swap = true;
        if (anti && prev_min_b < group_max_b) out.swap = true;
      }
      if (have_prev) {
        prev_max_b = std::max(prev_max_b, group_max_b);
        prev_min_b = std::min(prev_min_b, group_min_b);
      } else {
        prev_max_b = group_max_b;
        prev_min_b = group_min_b;
      }
      have_prev = true;
      i = j;
    }
    if (out.swap && out.a_varies && out.b_varies) return out;
  }
  return out;
}

}  // namespace

FastodBidResult DiscoverFastodBid(const rel::CodedRelation& relation,
                                  const FastodBidOptions& options) {
  WallTimer timer;
  FastodBidResult result;
  std::size_t n = relation.num_columns();
  std::size_t m = relation.num_rows();
  if (n == 0 || n > AttrSet::kMaxAttrs) {
    result.completed = n == 0;
    return result;
  }

  const AttrSet universe = AttrSet::FullUniverse(n);

  RunContext local_ctx;
  RunContext* ctx =
      options.run_context != nullptr ? options.run_context : &local_ctx;
  if (options.max_checks != 0) ctx->set_check_budget(options.max_checks);
  if (options.time_limit_seconds > 0.0) {
    ctx->set_time_limit_seconds(options.time_limit_seconds);
  }

  std::unordered_map<AttrSet, StrippedPartition, AttrSetHash> hist_prev1;
  std::unordered_map<AttrSet, StrippedPartition, AttrSetHash> hist_prev2;
  hist_prev1.emplace(AttrSet{}, StrippedPartition::ForEmptySet(m));

  std::vector<Node> level;
  std::size_t level_bytes = 0;
  bool aborted = false;
  StopReason cap_reason = StopReason::kNone;
  level.reserve(n);
  for (std::size_t a = 0; a < n && !aborted; ++a) {
    Node node;
    node.set = AttrSet::Single(a);
    node.partition = StrippedPartition::ForColumn(relation, a);
    node.cc = universe;
    std::size_t bytes = node.partition.MemoryBytes();
    if (!ctx->ChargeMemory(bytes)) {
      aborted = true;
      break;
    }
    level_bytes += bytes;
    level.push_back(std::move(node));
  }

  std::size_t ell = 1;
  try {
  while (!level.empty() && !aborted) {
    ctx->AtInjectionPoint("fastod_bid.level");
    if (options.max_level != 0 && ell > options.max_level) {
      aborted = true;
      cap_reason = StopReason::kLevelCap;
      break;
    }

    // Constancy (FD) candidates — identical to TANE / FASTOD.
    for (Node& node : level) {
      if (ctx->ShouldStop()) {
        aborted = true;
        break;
      }
      for (std::size_t a : node.set.Intersect(node.cc).ToVector()) {
        AttrSet lhs = node.set.WithoutAttr(a);
        auto it = hist_prev1.find(lhs);
        if (it == hist_prev1.end()) continue;
        ctx->AtInjectionPoint("fastod_bid.fd_check");
        ++result.num_checks;
        ctx->CountCheck(1);
        if (it->second.error() == node.partition.error()) {
          BidCanonicalOd fd;
          fd.kind = BidCanonicalOd::Kind::kConstancy;
          for (std::size_t b : lhs.ToVector()) fd.context.push_back(b);
          fd.right = a;
          result.ods.push_back(std::move(fd));
          node.cc.Remove(a);
          node.cc = node.cc.Without(universe.Without(node.set));
        }
      }
    }
    if (aborted) break;

    // Polarized swap candidates.
    for (Node& node : level) {
      if (ctx->ShouldStop()) {
        aborted = true;
        break;
      }
      for (const BidPair& pair : node.swap_pairs) {
        AttrSet context_set =
            node.set.WithoutAttr(pair.a).WithoutAttr(pair.b);
        auto it = hist_prev2.find(context_set);
        if (it == hist_prev2.end()) continue;
        ctx->AtInjectionPoint("fastod_bid.swap_check");
        ++result.num_checks;
        ctx->CountCheck(1);
        SwapOutcome outcome =
            CheckSwapBid(relation, it->second, pair.a, pair.b, pair.anti);
        if (outcome.swap) {
          node.falsified.push_back(pair);
        } else if (outcome.a_varies && outcome.b_varies) {
          BidCanonicalOd od;
          od.kind = pair.anti ? BidCanonicalOd::Kind::kAntiConcordant
                              : BidCanonicalOd::Kind::kConcordant;
          for (std::size_t c : context_set.ToVector()) {
            od.context.push_back(c);
          }
          od.left = pair.a;
          od.right = pair.b;
          result.ods.push_back(std::move(od));
        }
      }
    }
    if (aborted) break;

    // Prune and generate, as in FASTOD.
    std::vector<Node> kept;
    kept.reserve(level.size());
    for (Node& node : level) {
      if (!node.cc.empty() || !node.falsified.empty()) {
        kept.push_back(std::move(node));
      }
    }
    level = std::move(kept);

    std::unordered_map<AttrSet, std::size_t, AttrSetHash> index;
    for (std::size_t i = 0; i < level.size(); ++i) {
      index.emplace(level[i].set, i);
    }
    hist_prev2 = std::move(hist_prev1);
    hist_prev1.clear();
    for (const Node& node : level) {
      hist_prev1.emplace(node.set, node.partition);
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
          AttrSet cc = universe;
          for (std::size_t c : y.ToVector()) {
            auto it = index.find(y.WithoutAttr(c));
            if (it == index.end()) {
              all_present = false;
              break;
            }
            cc = cc.Intersect(level[it->second].cc);
          }
          if (!all_present) continue;

          std::vector<BidPair> pairs;
          std::vector<std::size_t> attrs = y.ToVector();
          if (ell >= 2) {
            for (std::size_t pi = 0; pi < attrs.size(); ++pi) {
              for (std::size_t pj = pi + 1; pj < attrs.size(); ++pj) {
                for (bool anti : {false, true}) {
                  BidPair pair{attrs[pi], attrs[pj], anti};
                  bool active = true;
                  for (std::size_t c : attrs) {
                    if (c == pair.a || c == pair.b) continue;
                    const Node& sub = level[index.at(y.WithoutAttr(c))];
                    if (std::find(sub.falsified.begin(),
                                  sub.falsified.end(),
                                  pair) == sub.falsified.end()) {
                      active = false;
                      break;
                    }
                  }
                  if (active) pairs.push_back(pair);
                }
              }
            }
          } else {
            pairs.push_back(BidPair{attrs[0], attrs[1], false});
            pairs.push_back(BidPair{attrs[0], attrs[1], true});
          }

          if (cc.empty() && pairs.empty()) continue;
          ctx->AtInjectionPoint("fastod_bid.generate");
          Node node;
          node.set = y;
          node.partition =
              StrippedPartition::Product(x1.partition, x2.partition, m);
          node.cc = cc;
          node.swap_pairs = std::move(pairs);
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
    ++ell;
  }
  } catch (const FaultInjectedError&) {
    ctx->RequestStop(StopReason::kFaultInjected);
    aborted = true;
  }
  ctx->ReleaseMemory(level_bytes);

  aborted = aborted || ctx->stop_requested();
  od::SortUnique(result.ods);
  for (const BidCanonicalOd& od : result.ods) {
    switch (od.kind) {
      case BidCanonicalOd::Kind::kConstancy:
        ++result.num_constancy;
        break;
      case BidCanonicalOd::Kind::kConcordant:
        ++result.num_concordant;
        break;
      case BidCanonicalOd::Kind::kAntiConcordant:
        ++result.num_anti;
        break;
    }
  }
  result.completed = !aborted;
  result.stop_reason = ctx->stop_reason() != StopReason::kNone
                           ? ctx->stop_reason()
                           : cap_reason;
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
