#include "qa/oracle.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "od/brute_force.h"
#include "od/inference.h"
#include "qa/canonical.h"

namespace ocdd::qa {

const char* CorruptionModeName(CorruptionMode mode) {
  switch (mode) {
    case CorruptionMode::kNone:
      return "none";
    case CorruptionMode::kDropOcddiscover:
      return "drop-ocddiscover";
    case CorruptionMode::kInventOrderOd:
      return "invent-order-od";
    case CorruptionMode::kDropFastodCompat:
      return "drop-fastod-compat";
  }
  return "?";
}

namespace {

/// The engine only materializes normalized lists of length ≤ max_len; facts
/// and queries beyond that are outside its vocabulary and must be skipped,
/// never flagged.
bool Representable(const od::AttributeList& list, std::size_t max_len) {
  return list.Normalized().size() <= max_len;
}

bool RepresentableOd(const od::OrderDependency& od, std::size_t max_len) {
  return Representable(od.lhs, max_len) && Representable(od.rhs, max_len);
}

bool RepresentableOcd(const od::OrderCompatibility& ocd, std::size_t max_len) {
  // ImpliesOcd consults XY ↔ YX; both concatenations normalize to the same
  // length.
  return Representable(ocd.lhs.Concat(ocd.rhs), max_len);
}

/// OCDDISCOVER's *effective* candidate space after column reduction: a
/// disjoint OCD whose sides, with claimed-constant columns dropped and every
/// column mapped to its claimed class representative, still have disjoint
/// sets is enumerated (possibly in expanded form); one whose sides collapse
/// onto a shared representative never is, and its validity (which then
/// hinges on FD facts such as key-ness inside the collapsed class) is not
/// entailed by OCDDISCOVER's claims. See docs/qa.md.
class OcddScope {
 public:
  OcddScope(std::size_t num_columns, const ClaimSet& ocdd)
      : is_constant_(num_columns, false), rep_(num_columns) {
    for (std::size_t c = 0; c < num_columns; ++c) rep_[c] = c;
    for (rel::ColumnId c : ocdd.constant_columns) is_constant_[c] = true;
    for (const auto& cls : ocdd.equivalence_classes) {
      for (rel::ColumnId c : cls) rep_[c] = cls.front();
    }
  }

  bool InScope(const od::AttributeList& x, const od::AttributeList& y) const {
    std::vector<rel::ColumnId> a = Reduced(x);
    std::vector<rel::ColumnId> b = Reduced(y);
    std::vector<rel::ColumnId> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    return both.empty();
  }

 private:
  std::vector<rel::ColumnId> Reduced(const od::AttributeList& list) const {
    std::vector<rel::ColumnId> out;
    for (rel::ColumnId id : list.ids()) {
      if (!is_constant_[id]) out.push_back(rep_[id]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  std::vector<bool> is_constant_;
  std::vector<rel::ColumnId> rep_;
};

std::vector<rel::ColumnId> SortedContext(const od::CanonicalOd& cod) {
  std::vector<rel::ColumnId> ctx = cod.context;
  std::sort(ctx.begin(), ctx.end());
  return ctx;
}

void ApplyCorruption(const rel::CodedRelation& relation, CorruptionMode mode,
                     std::size_t max_side_len, AlgorithmRuns* runs) {
  switch (mode) {
    case CorruptionMode::kNone:
      return;
    case CorruptionMode::kDropOcddiscover:
      runs->ocdd.ods.clear();
      runs->ocdd.ocds.clear();
      runs->ocdd.constant_columns.clear();
      runs->ocdd.equivalence_classes.clear();
      return;
    case CorruptionMode::kInventOrderOd: {
      std::vector<rel::ColumnId> universe(relation.num_columns());
      for (std::size_t i = 0; i < universe.size(); ++i) universe[i] = i;
      for (const auto& x : od::EnumerateLists(universe, max_side_len)) {
        for (const auto& y : od::EnumerateLists(universe, max_side_len)) {
          if (!x.DisjointWith(y)) continue;
          if (od::BruteForceHoldsOd(relation, x, y)) continue;
          runs->order.ods.push_back(od::OrderDependency{x, y});
          runs->order.SortAll();
          return;
        }
      }
      return;  // every candidate holds — nothing to invent on this instance
    }
    case CorruptionMode::kDropFastodCompat:
      runs->fastod.canonical.erase(
          std::remove_if(runs->fastod.canonical.begin(),
                         runs->fastod.canonical.end(),
                         [](const od::CanonicalOd& cod) {
                           return cod.kind ==
                                  od::CanonicalOd::Kind::kOrderCompatible;
                         }),
          runs->fastod.canonical.end());
      return;
  }
}

}  // namespace

OracleReport CrossCheck(const rel::CodedRelation& relation,
                        const OracleOptions& options) {
  return CrossCheckRuns(relation, RunAllClaims(relation), options);
}

OracleReport CrossCheckRuns(const rel::CodedRelation& relation,
                            AlgorithmRuns runs, const OracleOptions& options) {
  const std::size_t n = relation.num_columns();
  const std::size_t L =
      options.max_list_len != 0 ? options.max_list_len : DefaultMaxListLen(n);
  ApplyCorruption(relation, options.corruption, options.max_side_len, &runs);

  OracleReport report;
  report.all_completed = runs.AllCompleted();
  auto fail = [&report](const char* check, const char* algorithm,
                        std::string detail) {
    report.discrepancies.push_back(
        Discrepancy{check, algorithm, std::move(detail)});
  };

  // ---- Soundness: every emitted claim re-checked from the definitions.
  // Applies to stopped runs too: a budgeted run may be incomplete, never
  // wrong.
  for (const auto& od : runs.order.ods) {
    ++report.comparisons;
    if (!od::BruteForceHoldsOd(relation, od.lhs, od.rhs)) {
      fail("soundness", "order", od.ToString());
    }
  }
  for (const auto& od : runs.ocdd.ods) {
    ++report.comparisons;
    if (!od::BruteForceHoldsOd(relation, od.lhs, od.rhs)) {
      fail("soundness", "ocddiscover", od.ToString());
    }
  }
  for (const auto& ocd : runs.ocdd.ocds) {
    ++report.comparisons;
    if (!od::BruteForceHoldsOcd(relation, ocd.lhs, ocd.rhs)) {
      fail("soundness", "ocddiscover", ocd.ToString());
    }
  }
  for (rel::ColumnId c : runs.ocdd.constant_columns) {
    ++report.comparisons;
    if (!HoldsConstancy(relation, {}, c)) {
      fail("soundness", "ocddiscover", "CONST [" + std::to_string(c) + "]");
    }
  }
  for (const auto& cls : runs.ocdd.equivalence_classes) {
    od::AttributeList rep{cls.empty() ? 0 : cls.front()};
    for (std::size_t i = 1; i < cls.size(); ++i) {
      od::AttributeList other{cls[i]};
      ++report.comparisons;
      if (!od::BruteForceHoldsOd(relation, rep, other) ||
          !od::BruteForceHoldsOd(relation, other, rep)) {
        fail("soundness", "ocddiscover",
             "EQUIV " + rep.ToString() + "<->" + other.ToString());
      }
    }
  }
  for (const auto& cod : runs.fastod.canonical) {
    std::vector<rel::ColumnId> ctx = SortedContext(cod);
    ++report.comparisons;
    bool holds = cod.kind == od::CanonicalOd::Kind::kConstancy
                     ? HoldsConstancy(relation, ctx, cod.right)
                     : HoldsCompat(relation, ctx, cod.left, cod.right);
    if (!holds) fail("soundness", "fastod", cod.ToString());
  }
  for (const auto& fd : runs.tane.fds) {
    ++report.comparisons;
    if (!od::BruteForceHoldsFd(relation, fd.lhs, fd.rhs)) {
      fail("soundness", "tane", fd.ToString());
    }
  }

  // ---- Closures over each algorithm's claims.
  od::OdInferenceEngine eng_ocdd =
      BuildClosureEngine(n, L, runs.ocdd, &report.skipped);
  od::OdInferenceEngine eng_order =
      BuildClosureEngine(n, L, runs.order, &report.skipped);
  CanonicalClosure fastod_closure(runs.fastod.canonical);
  OcddScope ocdd_scope(n, runs.ocdd);

  // ---- Candidate sweep: completeness, exactness, and mapping-theorem
  // consistency over every side-bounded candidate. Brute force decides each
  // candidate from the definitions; each completed algorithm's closure must
  // agree wherever the candidate lies inside its documented scope.
  std::vector<rel::ColumnId> universe(n);
  for (std::size_t i = 0; i < n; ++i) universe[i] = i;
  const std::vector<od::AttributeList> lists =
      od::EnumerateLists(universe, options.max_side_len);

  for (const auto& x : lists) {
    for (const auto& y : lists) {
      if (x == y) continue;
      const od::OrderDependency cand{x, y};
      const bool valid = od::BruteForceHoldsOd(relation, x, y);

      ++report.comparisons;
      if (SemanticOdViaCanonical(relation, cand) != valid) {
        fail("mapping_theorem", "canonical", cand.ToString());
      }

      if (runs.fastod.completed) {
        // The canonical closure decides every list OD exactly.
        ++report.comparisons;
        if (fastod_closure.ImpliesOd(cand) != valid) {
          fail(valid ? "completeness" : "exactness", "fastod",
               cand.ToString());
        }
      }

      if (!x.DisjointWith(y)) continue;  // list engines: disjoint scope only
      if (!RepresentableOd(cand, L)) {
        report.skipped += 2;
        continue;
      }
      if (runs.order.completed) {
        ++report.comparisons;
        if (eng_order.Implies(cand) != valid) {
          fail(valid ? "completeness" : "exactness", "order", cand.ToString());
        }
      }
      if (runs.ocdd.completed) {
        // OCDDISCOVER is complete for OCDs, not for ODs: a valid OD `X → Y`
        // additionally needs FD facts OCDDISCOVER never claims (the paper
        // factors `X → Y` into `X ~ Y` plus split-freeness). Its closure must
        // therefore never *overclaim* an OD (exactness), while OD
        // completeness is checked on the OCD part in the sweep below.
        ++report.comparisons;
        if (!valid && eng_ocdd.Implies(cand)) {
          fail("exactness", "ocddiscover", cand.ToString());
        }
      }
    }
  }

  for (std::size_t i = 0; i < lists.size(); ++i) {
    for (std::size_t j = i + 1; j < lists.size(); ++j) {
      const od::OrderCompatibility cand{lists[i], lists[j]};
      const bool valid = od::BruteForceHoldsOcd(relation, cand.lhs, cand.rhs);

      ++report.comparisons;
      if (SemanticOcdViaCanonical(relation, cand) != valid) {
        fail("mapping_theorem", "canonical", cand.ToString());
      }

      if (runs.fastod.completed) {
        ++report.comparisons;
        if (fastod_closure.ImpliesOcd(cand) != valid) {
          fail(valid ? "completeness" : "exactness", "fastod",
               cand.ToString());
        }
      }

      if (!cand.lhs.DisjointWith(cand.rhs)) continue;
      if (!RepresentableOcd(cand, L)) {
        ++report.skipped;
        continue;
      }
      if (runs.ocdd.completed) {
        ++report.comparisons;
        bool implied = eng_ocdd.ImpliesOcd(cand);
        if (implied && !valid) {
          fail("exactness", "ocddiscover", cand.ToString());
        } else if (valid && !implied) {
          // Candidates the reduction collapses onto non-disjoint sides are
          // never enumerated; their validity is outside the claim scope.
          if (ocdd_scope.InScope(cand.lhs, cand.rhs)) {
            fail("completeness", "ocddiscover", cand.ToString());
          } else {
            ++report.skipped;
          }
        }
      }
    }
  }

  // ---- Reduction: OCDDISCOVER's column reduction must name exactly the
  // constant columns and group exactly the order-equivalent survivors.
  if (runs.ocdd.completed) {
    std::vector<bool> is_const(n, false);
    for (std::size_t c = 0; c < n; ++c) {
      is_const[c] = HoldsConstancy(relation, {}, c);
      ++report.comparisons;
      bool claimed =
          std::binary_search(runs.ocdd.constant_columns.begin(),
                             runs.ocdd.constant_columns.end(), c);
      if (is_const[c] != claimed) {
        fail("reduction", "ocddiscover",
             std::string(is_const[c] ? "missing" : "spurious") + " CONST [" +
                 std::to_string(c) + "]");
      }
    }
    auto same_class = [&runs](rel::ColumnId a, rel::ColumnId b) {
      for (const auto& cls : runs.ocdd.equivalence_classes) {
        bool has_a = std::find(cls.begin(), cls.end(), a) != cls.end();
        bool has_b = std::find(cls.begin(), cls.end(), b) != cls.end();
        if (has_a || has_b) return has_a && has_b;
      }
      return false;  // both singletons
    };
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        if (is_const[a] || is_const[b]) continue;  // reduced before grouping
        od::AttributeList la{static_cast<rel::ColumnId>(a)};
        od::AttributeList lb{static_cast<rel::ColumnId>(b)};
        bool equiv = od::BruteForceHoldsOd(relation, la, lb) &&
                     od::BruteForceHoldsOd(relation, lb, la);
        ++report.comparisons;
        if (equiv != same_class(a, b)) {
          fail("reduction", "ocddiscover",
               std::string(equiv ? "ungrouped" : "overgrouped") + " EQUIV " +
                   la.ToString() + "<->" + lb.ToString());
        }
      }
    }
  }

  // ---- Differential: each algorithm's claims re-derived from the others'
  // closures, scope permitting.
  if (runs.order.completed && runs.fastod.completed) {
    for (const auto& od : runs.order.ods) {
      ++report.comparisons;
      if (!fastod_closure.ImpliesOd(od)) {
        fail("differential", "order_vs_fastod", od.ToString());
      }
    }
  }
  if (runs.order.completed && runs.ocdd.completed) {
    // A valid OD is a valid OCD plus split-freeness; only the OCD part lies
    // inside OCDDISCOVER's claim scope.
    for (const auto& od : runs.order.ods) {
      od::OrderCompatibility ocd_part{od.lhs, od.rhs};
      if (!RepresentableOcd(ocd_part, L)) {
        ++report.skipped;
        continue;
      }
      ++report.comparisons;
      if (!eng_ocdd.ImpliesOcd(ocd_part)) {
        if (ocdd_scope.InScope(ocd_part.lhs, ocd_part.rhs)) {
          fail("differential", "order_vs_ocddiscover", ocd_part.ToString());
        } else {
          ++report.skipped;
        }
      }
    }
  }
  if (runs.ocdd.completed && runs.fastod.completed) {
    for (const auto& od : runs.ocdd.ods) {
      ++report.comparisons;
      if (!fastod_closure.ImpliesOd(od)) {
        fail("differential", "ocddiscover_vs_fastod", od.ToString());
      }
    }
    for (const auto& ocd : runs.ocdd.ocds) {
      ++report.comparisons;
      if (!fastod_closure.ImpliesOcd(ocd)) {
        fail("differential", "ocddiscover_vs_fastod", ocd.ToString());
      }
    }
  }
  if (runs.ocdd.completed && runs.order.completed) {
    for (const auto& od : runs.ocdd.ods) {
      if (!od.lhs.DisjointWith(od.rhs)) continue;  // outside ORDER's space
      if (!RepresentableOd(od, L)) {
        ++report.skipped;
        continue;
      }
      ++report.comparisons;
      if (!eng_order.Implies(od)) {
        fail("differential", "ocddiscover_vs_order", od.ToString());
      }
    }
  }
  if (runs.fastod.completed && runs.ocdd.completed) {
    // Only empty-context compatibility lands inside OCDDISCOVER's candidate
    // space (context-conditional compatibility has no disjoint list form).
    for (const auto& cod : runs.fastod.canonical) {
      if (cod.kind != od::CanonicalOd::Kind::kOrderCompatible ||
          !cod.context.empty()) {
        continue;
      }
      od::OrderCompatibility ocd{od::AttributeList{cod.left},
                                 od::AttributeList{cod.right}};
      ++report.comparisons;
      if (!eng_ocdd.ImpliesOcd(ocd)) {
        fail("differential", "fastod_vs_ocddiscover", cod.ToString());
      }
    }
  }

  // ---- Constancy vs FDs: the two set-based vocabularies must induce the
  // same closure (syntactic minimality criteria may differ, derivability may
  // not).
  if (runs.tane.completed && runs.fastod.completed) {
    for (const auto& fd : runs.tane.fds) {
      ++report.comparisons;
      if (!fastod_closure.ImpliesConstancy(fd.lhs, fd.rhs)) {
        fail("constancy_vs_fds", "tane_vs_fastod", fd.ToString());
      }
    }
    auto fds_imply = [&runs](const std::vector<rel::ColumnId>& ctx,
                             rel::ColumnId rhs) {
      if (std::binary_search(ctx.begin(), ctx.end(), rhs)) return true;
      for (const auto& fd : runs.tane.fds) {
        if (fd.rhs == rhs && std::includes(ctx.begin(), ctx.end(),
                                           fd.lhs.begin(), fd.lhs.end())) {
          return true;
        }
      }
      return false;
    };
    for (const auto& cod : runs.fastod.canonical) {
      if (cod.kind != od::CanonicalOd::Kind::kConstancy) continue;
      ++report.comparisons;
      if (!fds_imply(SortedContext(cod), cod.right)) {
        fail("constancy_vs_fds", "fastod_vs_tane", cod.ToString());
      }
    }
  }

  return report;
}

}  // namespace ocdd::qa
