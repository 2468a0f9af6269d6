// SAT(HRC_{K,FK}): consistency of hierarchical relative keys and
// foreign keys (Theorem 4.3), by memoized decomposition into scope
// subproblems solved with the absolute checker. Absolute unary
// constraints are folded in as context-r relative constraints.
//
// Rejects non-hierarchical specifications (conflicting pair reported)
// — SAT(RC_{K,FK}) in full is undecidable (Theorem 4.1); use the
// bounded checker for those.
#ifndef XMLVERIFY_CORE_SAT_HIERARCHICAL_H_
#define XMLVERIFY_CORE_SAT_HIERARCHICAL_H_

#include "base/status.h"
#include "constraints/constraint.h"
#include "core/verdict.h"
#include "ilp/solver.h"
#include "xml/dtd.h"

namespace xmlverify {

struct HierarchicalCheckOptions {
  SolverOptions solver;
  bool build_witness = true;  // replayed through the dynamic checker
};

Result<ConsistencyVerdict> CheckHierarchicalConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const HierarchicalCheckOptions& options = {});

/// Classification helpers for Figure 4's columns: whether the
/// specification is hierarchical, and its locality d (max scope
/// depth, Theorem 4.4's reformulation).
struct RelativeClassification {
  bool hierarchical = false;
  std::string conflict;  // description when not hierarchical
  int locality = 0;      // max Depth(D_tau); valid when hierarchical
};
Result<RelativeClassification> ClassifyRelative(
    const Dtd& dtd, const ConstraintSet& constraints);

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_SAT_HIERARCHICAL_H_
