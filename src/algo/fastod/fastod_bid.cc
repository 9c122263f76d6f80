#include "algo/fastod/fastod_bid.h"

#include <utility>

#include "algo/fastod/canonical.h"
#include "common/timer.h"

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

FastodBidResult DiscoverFastodBid(const rel::CodedRelation& relation,
                                  const FastodBidOptions& options) {
  WallTimer timer;
  CanonicalResult run = DiscoverCanonical(
      relation,
      {"fastod_bid", "fastod_bid.fd_check", "fastod_bid.swap_check",
       Polarities::kBoth, 0},
      options.run_context, options.max_level);
  FastodBidResult result;
  static_cast<core::WalkCounters&>(result) = run;
  result.ods = std::move(run.ods);
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
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
