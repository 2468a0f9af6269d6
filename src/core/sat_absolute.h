// SAT(AC): consistency of absolute keys and foreign keys with a DTD.
//
// Covers, with exact verdicts:
//   * AC_K           keys only                    (PTIME in the paper)
//   * AC_{K,FK}      unary keys and foreign keys  (NP-complete [14])
//   * AC^{*,1}_{PK,FK} and disjoint AC^{*,1}_{K,FK}
//                    multi-attribute primary keys (PDE, Theorem 3.1)
// via the cardinality encoding Psi(D, Sigma) and the integer solver.
// Multi-attribute inclusions (undecidable, [14]) are rejected.
#ifndef XMLVERIFY_CORE_SAT_ABSOLUTE_H_
#define XMLVERIFY_CORE_SAT_ABSOLUTE_H_

#include <vector>

#include "base/status.h"
#include "constraints/constraint.h"
#include "core/verdict.h"
#include "ilp/solver.h"
#include "xml/dtd.h"

namespace xmlverify {

struct AbsoluteCheckOptions {
  SolverOptions solver;
  /// Build a witness tree for consistent specifications. A built
  /// witness is always replayed through the dynamic checker (cheap,
  /// and a strong internal soundness check).
  bool build_witness = true;
  /// Element types whose extent is forced to zero (hierarchical
  /// checker pruning).
  std::vector<int> forced_empty_types;
  /// Iterative-deepening caps, used only when prequadratic
  /// constraints are present (multi-attribute keys).
  BigInt deepening_initial_cap = BigInt(16);
  BigInt deepening_max_cap = BigInt::Pow2(24);
};

Result<ConsistencyVerdict> CheckAbsoluteConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const AbsoluteCheckOptions& options = {});

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_SAT_ABSOLUTE_H_
