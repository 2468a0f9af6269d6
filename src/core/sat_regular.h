// SAT(AC^{reg}_{K,FK}): consistency of unary regular-path keys and
// foreign keys (Theorem 3.4a). Absolute unary constraints in the set
// are folded in as r._*.tau paths. Exact verdicts; NEXPTIME-flavoured
// blow-up shows up as the exponential z_theta block.
#ifndef XMLVERIFY_CORE_SAT_REGULAR_H_
#define XMLVERIFY_CORE_SAT_REGULAR_H_

#include "base/status.h"
#include "constraints/constraint.h"
#include "core/verdict.h"
#include "ilp/solver.h"
#include "xml/dtd.h"

namespace xmlverify {

struct RegularCheckOptions {
  SolverOptions solver;
  bool build_witness = true;  // replayed through the dynamic checker
  /// Cap on distinct path expressions (the z_theta block is 2^k).
  int max_expressions = 16;
};

Result<ConsistencyVerdict> CheckRegularConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const RegularCheckOptions& options = {});

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_SAT_REGULAR_H_
