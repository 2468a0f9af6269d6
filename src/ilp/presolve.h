// ILP presolve: standard MIP-style reductions applied to the linear
// fragment of an IntegerProgram before branch-and-bound (see
// docs/performance.md). All reductions are exact over nonnegative
// integers, so verdicts carry over both ways: a presolve infeasibility
// is a genuine kUnsat, and any integer point of the reduced system
// maps back (via PresolveInfo) to a point of the original one.
//
// Row reductions, applied to each row on its visit:
//   * fixed variables substitute out, folding into the right-hand side;
//   * empty-row / trivial-infeasibility detection (0 rel b);
//   * row gcd normalization with integer rounding — an equality whose
//     coefficient gcd does not divide its right-hand side refutes the
//     whole system (subsumes the solver's old per-row gcd test), and
//     inequalities tighten to floor/ceil(b/g);
//   * sign-canonical rows whose coefficients are all positive resolve
//     directly against x >= 0 (infeasible, redundant, or forcing every
//     variable in the row to zero);
//   * singleton rows convert to variable bounds.
// A variable is pinned the moment its bounds meet, and pinning queues
// every live row that holds it. Once the queue drains, rows with
// identical left-hand sides merge to the tightest representative
// (conflicting equalities and crossed <=/>= pairs refute; a pair that
// pinches into an equality is queued again). The run stops when a
// merge round queues nothing, which is the fixpoint: no row changes on
// another visit and no two rows share a left-hand side and relation.
// It needs no pass cap: each variable is pinned at most once and each
// row pinched at most once (the bound is spelled out in presolve.cc).
//
// With variable elimination allowed, pinned variables and variables
// absent from every surviving row leave the space (the latter pinned
// to their lower bound).
#ifndef XMLVERIFY_ILP_PRESOLVE_H_
#define XMLVERIFY_ILP_PRESOLVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "ilp/linear.h"

namespace xmlverify {

struct PresolveOptions {
  /// Allow removing variables (fixed-variable substitution and
  /// unused-variable elimination) and renumbering the survivors.
  /// Callers owning constraint classes that reference variables by id
  /// outside the linear rows (conditionals, prequadratics) must turn
  /// this off; every other reduction still applies.
  bool allow_variable_elimination = true;
};

struct PresolveStats {
  int64_t rows_dropped = 0;       // redundant or merged away
  int64_t gcd_tightened = 0;      // rows divided through by their gcd
  int64_t singleton_bounds = 0;   // singleton rows turned into bounds
  int64_t duplicates_merged = 0;  // same-lhs rows collapsed
  int64_t vars_fixed = 0;         // variables substituted out
};

/// Outcome of one presolve run: either a proof of integer
/// infeasibility, or the reduced system plus the witness back-map.
class PresolveInfo {
 public:
  bool infeasible() const { return infeasible_; }
  /// Human-readable refutation (set only when infeasible()).
  const std::string& infeasible_reason() const { return reason_; }

  /// The reduced system: surviving rows over the reduced variable
  /// space, followed by bound rows ("pre-ub"/"pre-lb") for surviving
  /// variables with tightened bounds.
  const std::vector<LinearConstraint>& rows() const { return rows_; }
  int reduced_num_vars() const { return reduced_num_vars_; }
  int original_num_vars() const {
    return static_cast<int>(vars_.size());
  }

  /// Reduced id of an original variable, or -1 when eliminated.
  VarId ReducedVar(VarId original) const {
    return vars_[original].eliminated ? -1 : vars_[original].reduced;
  }

  /// Maps a reduced-space assignment back onto the original variables:
  /// surviving variables copy through, eliminated ones take their
  /// pinned value. The result satisfies the original linear rows
  /// whenever `reduced` satisfies rows().
  std::vector<BigInt> MapSolution(const std::vector<BigInt>& reduced) const;

  const PresolveStats& stats() const { return stats_; }

 private:
  friend PresolveInfo PresolveProgram(const IntegerProgram& program,
                                      const PresolveOptions& options);
  struct VarEntry {
    bool eliminated = false;
    VarId reduced = -1;   // valid when !eliminated
    BigInt value;         // valid when eliminated
  };

  bool infeasible_ = false;
  std::string reason_;
  std::vector<LinearConstraint> rows_;
  std::vector<VarEntry> vars_;
  int reduced_num_vars_ = 0;
  PresolveStats stats_;
};

/// Presolves the linear rows and upper bounds of `program`. The
/// conditional and prequadratic constraint classes are untouched; when
/// any exist, pass allow_variable_elimination = false so their
/// variable ids stay valid in the reduced space.
PresolveInfo PresolveProgram(const IntegerProgram& program,
                             const PresolveOptions& options = {});

}  // namespace xmlverify

#endif  // XMLVERIFY_ILP_PRESOLVE_H_
