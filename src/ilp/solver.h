// Branch-and-bound solver for IntegerProgram.
//
// Completeness notes (documented behaviour, see DESIGN.md §2):
//  * Linear fragment: exact. Satisfiable systems yield a BigInt
//    witness; unsatisfiable systems are refuted by LP infeasibility
//    along every branch (plus per-row gcd preprocessing).
//  * Conditional constraints are resolved by branching, exactly the
//    2^p case analysis of Lemma 8, but lazily (only violated
//    conditionals split).
//  * Prequadratic constraints (PDE) use spatial branching with an
//    optional global cap on variable values; exhausting the search
//    under a cap yields kUnknown rather than a false kUnsat, mirroring
//    the bounded-model flavour of the NEXPTIME upper bound.
#ifndef XMLVERIFY_ILP_SOLVER_H_
#define XMLVERIFY_ILP_SOLVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/deadline.h"
#include "base/resource_guard.h"
#include "ilp/linear.h"

namespace xmlverify {

enum class SolveOutcome {
  kSat,      // witness assignment available
  kUnsat,    // proven infeasible over nonnegative integers
  kUnknown,  // search capped (node limit or variable cap)
  kDeadlineExceeded,  // wall-clock budget expired before a verdict
  kResourceExhausted,  // memory budget exhausted (or fault injected)
};

struct SolveResult {
  SolveOutcome outcome = SolveOutcome::kUnknown;
  std::vector<BigInt> assignment;  // kSat only
  /// Branch-and-bound nodes expanded, each with one LP relaxation.
  /// The search stops at the first definitive leaf, which is the last
  /// node counted; a node-limit stop reports exactly max_nodes.
  int64_t nodes_explored = 0;
  int64_t lp_pivots = 0;
  std::string note;
};

struct SolverOptions {
  /// Maximum branch-and-bound nodes before giving up with kUnknown.
  int64_t max_nodes = 500000;
  /// If set, adds `x <= variable_cap` for every variable. Required for
  /// guaranteed termination in the presence of prequadratic
  /// constraints; exhausting the search with a cap active reports
  /// kUnknown, not kUnsat.
  std::optional<BigInt> variable_cap;
  /// Wall-clock budget, polled at every branch-and-bound node and
  /// (amortized) inside the simplex pivot loop. Expiry yields
  /// kDeadlineExceeded — never a definitive verdict. Default: never.
  Deadline deadline;
  /// Memory/depth budget. Search nodes are charged while resident on
  /// the branch stack and each LP tableau is charged for the solve's
  /// duration; exhaustion yields kResourceExhausted — like a deadline
  /// expiry, never a definitive verdict. Default: unlimited.
  ResourceBudget budget;
  /// Run the exact MIP presolve pass (src/ilp/presolve.h) before
  /// branch-and-bound. Variable elimination engages only for purely
  /// linear programs; with conditionals or prequadratics present the
  /// row reductions still apply over the original variable space.
  /// Off restores the legacy pipeline (the difftest reference).
  bool use_presolve = true;
  /// Use the sparse two-tier simplex for LP relaxations; off selects
  /// the legacy dense BigInt tableau.
  bool use_sparse_simplex = true;
  /// Dual-simplex warm starts: each branch child re-solves its LP from
  /// the parent's final tableau (the child differs by one or two bound
  /// rows) through a short dual-simplex run instead of a from-scratch
  /// phase-1. Sparse engine only — with use_sparse_simplex off the
  /// flag is ignored, so the legacy pipeline stays the cold,
  /// difftest-comparable reference. Equality delta rows and degenerate
  /// dual chains fall back to cold solves automatically (counted as
  /// solver/warm_start_fallbacks). Retained parent tableaus are shared
  /// between siblings and bounded by the branch depth; they are
  /// charged to the budget transiently during each re-solve.
  bool warm_start = true;
};

class IlpSolver {
 public:
  explicit IlpSolver(SolverOptions options = {}) : options_(options) {}

  /// Depth-first branch and bound on one stack, the growth (>=) child
  /// first. Returns at the first definitive leaf in DFS preorder;
  /// kUnsat only once every branch is refuted.
  SolveResult Solve(const IntegerProgram& program) const;

  /// Repeatedly solves with caps initial_cap, initial_cap^2, ... up to
  /// max_cap (needed only when `program` has prequadratic
  /// constraints). Returns the first kSat, or kUnknown/kUnsat from the
  /// final attempt.
  SolveResult SolveWithDeepening(const IntegerProgram& program,
                                 const BigInt& initial_cap,
                                 const BigInt& max_cap) const;

 private:
  SolverOptions options_;
};

}  // namespace xmlverify

#endif  // XMLVERIFY_ILP_SOLVER_H_
