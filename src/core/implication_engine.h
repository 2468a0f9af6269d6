// Layered implication engine: a facade over the implication problem
// Impl(C) (Section 3.4) that answers as many queries as possible with
// a *quick tier* of sound syntactic subsumption rules before paying
// for the full SAT-based contrapositive encoding of
// core/implication.h.
//
// Quick-tier rules (all underapproximations: a quick "implied" is
// always truly implied; a quick miss means "don't know", never "not
// implied"):
//
//   * verbatim     — phi occurs in Sigma (all six constraint
//                    flavours, modulo attribute-tuple permutation);
//   * key-subsumes — Sigma contains tau[Y] with Y a subset of X, so
//                    the key tau[X] over more attributes follows;
//   * singleton-root — a key on the root type holds in every document
//                    (there is exactly one root element);
//   * path-containment — for regular keys, Sigma's key over a larger
//                    node set implies phi's over a smaller one
//                    (L(beta_phi) subset of L(beta_sigma)); for
//                    regular inclusions, shrink the left side and
//                    grow the right (decided on the DFAs of
//                    src/regex/, shared through the global DFA memo);
//                    absolute unary constraints participate through
//                    their r._*.tau normal form;
//   * reflexivity  — tau[X] <= tau[X] and its regular/relative forms;
//   * closure      — transitivity over the unary absolute inclusion
//                    graph (constraints/inclusion_closure.h), sound
//                    under every DTD;
//   * root-context — relative constraints at the root context are
//                    exactly their absolute counterparts.
//
// Misses fall back to the full checker, memoized process-wide through
// base/shared_cache.h keyed on the canonical (DTD, Sigma, phi) text.
// Counters: impl/quick_hits, impl/quick_misses, impl/memo_hits,
// impl/full_checks (docs/implication.md, docs/observability.md).
#ifndef XMLVERIFY_CORE_IMPLICATION_ENGINE_H_
#define XMLVERIFY_CORE_IMPLICATION_ENGINE_H_

#include <optional>
#include <string>

#include "base/shared_cache.h"
#include "base/status.h"
#include "constraints/constraint.h"
#include "core/implication.h"
#include "xml/dtd.h"

namespace xmlverify {

/// Which layer produced an answer.
enum class ImplicationTier { kQuick, kMemo, kFull };
std::string ImplicationTierName(ImplicationTier tier);

struct ImplicationEngineOptions {
  /// Options for the full contrapositive check on quick-tier misses.
  ImplicationOptions full;
  /// Try the syntactic quick tier first (disable to measure the full
  /// encoding in isolation; the bench ablation does).
  bool use_quick = true;
  /// Memoize full-tier answers process-wide.
  bool use_memo = true;
};

struct ImplicationAnswer {
  bool implied = false;
  ImplicationTier tier = ImplicationTier::kFull;
  /// The quick-tier rule that fired ("verbatim", "key-subsumes",
  /// "closure", ...), empty for memo/full answers.
  std::string rule;
  /// A document satisfying (D, Sigma) but violating phi, when not
  /// implied and the full options request counterexamples. Memo hits
  /// carry no counterexample (the memo stores verdicts only), so a
  /// negative answer that needs one always re-solves.
  std::optional<XmlTree> counterexample;
  CheckStats stats;
};

/// The cached payload of one full-tier implication verdict.
struct ImplicationMemoEntry {
  bool implied = false;
};

class ImplicationChecker {
 public:
  explicit ImplicationChecker(ImplicationEngineOptions options = {})
      : options_(std::move(options)) {}

  /// Layered checks: quick tier, then memo, then the full encoding.
  /// Same contracts as the core/implication.h entry points (unary
  /// absolute phi only; errors surface solver budget exhaustion).
  Result<ImplicationAnswer> CheckKey(const Dtd& dtd,
                                     const ConstraintSet& sigma,
                                     const AbsoluteKey& phi) const;
  Result<ImplicationAnswer> CheckKey(const Dtd& dtd,
                                     const ConstraintSet& sigma,
                                     const RegularKey& phi) const;
  Result<ImplicationAnswer> CheckInclusion(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const AbsoluteInclusion& phi) const;
  Result<ImplicationAnswer> CheckInclusion(const Dtd& dtd,
                                           const ConstraintSet& sigma,
                                           const RegularInclusion& phi) const;
  /// Foreign key: implied iff the key on the referenced side and the
  /// inclusion both are. Quick tier must settle both parts to answer.
  Result<ImplicationAnswer> CheckForeignKey(const Dtd& dtd,
                                            const ConstraintSet& sigma,
                                            const AbsoluteInclusion& phi) const;

  /// Quick tier alone: no solver, no budgets, no errors. Sound and
  /// incomplete — `false` means "not settled", not "not implied".
  /// Relative constraints are supported here (verbatim, reflexivity,
  /// root-context, absolute-key strengthening) even though the full
  /// tier cannot decide them (Corollary 4.5).
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const AbsoluteKey& phi) const;
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const AbsoluteInclusion& phi) const;
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const RegularKey& phi) const;
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const RegularInclusion& phi) const;
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const RelativeKey& phi) const;
  bool QuickImplies(const Dtd& dtd, const ConstraintSet& sigma,
                    const RelativeInclusion& phi) const;

  /// Every constraint of `phis` quick-implied by `sigma`. This backs
  /// the INCONSISTENT branch of incremental re-verification
  /// (docs/serving.md): Sigma_new |= Sigma_old pointwise preserves an
  /// INCONSISTENT verdict of Sigma_old's spec.
  bool QuickImpliesAll(const Dtd& dtd, const ConstraintSet& sigma,
                       const ConstraintSet& phis) const;

  /// The process-wide memo behind the full tier, exposed for tests
  /// and statistics (hits()/misses()/Clear()).
  static SharedCache<ImplicationMemoEntry>& GlobalMemo();

 private:
  ImplicationEngineOptions options_;
};

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_IMPLICATION_ENGINE_H_
