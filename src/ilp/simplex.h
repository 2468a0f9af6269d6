// Exact rational simplex (phase-1 feasibility).
//
// Decides feasibility of { A x rel b, x >= 0 } and produces a basic
// feasible point. Exactness matters: the consistency verdicts of the
// checkers reduce to feasibility questions, and floating-point LP
// could flip a verdict. Bland's rule guarantees termination.
//
// SolveLp and ResolveLp run the sparse tableau: rows stored as sorted
// (column, value) pairs of two-tier rationals (int64 fast tier, BigInt
// on overflow); pivots walk nonzeros only and drop artificials as they
// leave the basis, and a cold solve still stops at the dense tableau's
// vertex, in no more pivots. SolveLpDense runs that original dense
// BigInt-rational tableau, the reference tests and bench_solver compare
// the sparse one against (see docs/performance.md).
#ifndef XMLVERIFY_ILP_SIMPLEX_H_
#define XMLVERIFY_ILP_SIMPLEX_H_

#include <memory>
#include <string>
#include <vector>

#include "base/deadline.h"
#include "base/rational.h"
#include "base/resource_guard.h"
#include "ilp/linear.h"

namespace xmlverify {

/// Opaque snapshot of a feasible solve's final tableau, used to
/// warm-start the re-solve of a nearby system (same rows plus a few
/// extra bounds) through a short dual-simplex run instead of a
/// from-scratch phase-1. Produced on request
/// (SimplexOptions::export_warm_state). Siblings in a branch-and-bound
/// tree share one snapshot through its reference count, and it is not
/// immutable: ResolveLp copies the tableau while other references
/// remain, and moves it out when handed the last one (see ResolveLp).
/// Hold a snapshot only through shared_ptr copies, never through a
/// weak_ptr, raw pointer or reference that could outlive them.
struct SimplexWarmState;

/// Approximate resident footprint of a warm-state snapshot.
int64_t WarmStateBytes(const SimplexWarmState& state);

struct SimplexOptions {
  /// On a feasible solve, move the final tableau into
  /// SimplexResult::warm_state so the caller can warm-start re-solves
  /// of child systems via ResolveLp.
  bool export_warm_state = false;
};

struct SimplexResult {
  bool feasible = false;
  // The deadline expired mid-optimization. When set, `feasible` is
  // meaningless (the tableau was abandoned, not proven infeasible) and
  // callers must not draw verdicts from it.
  bool deadline_exceeded = false;
  // The memory budget was exhausted (or a solver_pivot fault was
  // injected) mid-optimization. Same contract as deadline_exceeded:
  // `feasible` is meaningless and carries no verdict.
  bool resource_exhausted = false;
  // Values of the structural variables 0..num_vars-1 (only meaningful
  // when feasible).
  std::vector<Rational> solution;
  // Number of pivots performed (for diagnostics/benchmarks).
  int64_t pivots = 0;
  // Diagnostic detail for resource_exhausted.
  std::string note;
  // Final tableau of a feasible solve, when
  // SimplexOptions::export_warm_state asked for it.
  std::shared_ptr<SimplexWarmState> warm_state;
  // ResolveLp only: the verdict came from the warm dual re-solve.
  bool warm_used = false;
  // ResolveLp only: the warm path was unusable (equality delta row,
  // degenerate dual chain) and the system was re-solved cold from
  // scratch.
  bool warm_fallback = false;
};

/// Finds a nonnegative rational point satisfying all `constraints`
/// over variables 0..num_vars-1, or reports infeasibility. The pivot
/// loop polls `deadline` cooperatively (amortized); on expiry the
/// result has deadline_exceeded set and no verdict. When `budget` is
/// given, the tableau's footprint is charged against its memory
/// ceiling before optimization, and the pivot loop consults the
/// `solver_pivot` fault-injection point; either exhaustion sets
/// resource_exhausted (again: no verdict).
SimplexResult SolveLp(int num_vars,
                      const std::vector<LinearConstraint>& constraints,
                      const Deadline& deadline = Deadline(),
                      const ResourceBudget* budget = nullptr,
                      const SimplexOptions& options = {});

/// SolveLp on the dense BigInt tableau, which keeps its artificials
/// and never exports warm state: the same verdict and vertex, in no
/// fewer pivots. No deadline or budget; only tests and bench_solver
/// call it.
SimplexResult SolveLpDense(int num_vars,
                           const std::vector<LinearConstraint>& constraints);

/// Re-solves the system `base` followed by `extra`, where `parent` is
/// the final tableau of the same rows minus the trailing `delta` rows
/// of `extra`. The rows are passed in two parts so that a warm re-solve
/// never copies `base`: it reads only the delta rows, and the two parts
/// are joined only for a cold fallback. Each inequality delta row is
/// appended to the parent's final tableau with its slack
/// basic — no artificials, so the parent's phase-1 optimality is
/// preserved as dual feasibility — and a Bland-rule dual simplex
/// restores primal feasibility in typically a handful of pivots. Falls
/// back to a cold SolveLp over base ++ extra (setting warm_fallback)
/// when the warm path does not apply: null/absent parent state, an
/// equality delta row, or a degenerate dual chain exceeding the pivot
/// valve. Either way the result is exactly equivalent to a
/// cold solve in its feasibility verdict, and observes the same
/// deadline, budget, and fault-injection contracts as SolveLp.
/// `parent` is taken by value. The warm path works on a copy of the
/// parent's tableau while other references to the snapshot remain;
/// when `parent` is the last one (branch and bound moves it in for the
/// second sibling in depth-first order), it moves the tableau out
/// instead, and the emptied snapshot goes away with the reference.
SimplexResult ResolveLp(std::shared_ptr<SimplexWarmState> parent,
                        const std::vector<LinearConstraint>& base,
                        const std::vector<LinearConstraint>& extra, int delta,
                        int num_vars, const Deadline& deadline = Deadline(),
                        const ResourceBudget* budget = nullptr,
                        const SimplexOptions& options = {});

}  // namespace xmlverify

#endif  // XMLVERIFY_ILP_SIMPLEX_H_
