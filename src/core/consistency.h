// Front door of the library: dispatches a specification to the right
// decision procedure per its constraint class (Figures 3 and 4), and
// falls back to bounded search on the undecidable fragments.
//
//   Specification spec = Specification::Parse(dtd_text, constraints)
//                            .ValueOrDie();
//   ConsistencyChecker checker;
//   ConsistencyVerdict verdict = checker.Check(spec).ValueOrDie();
//   if (verdict.consistent()) std::cout << verdict.witness->ToXml(...);
#ifndef XMLVERIFY_CORE_CONSISTENCY_H_
#define XMLVERIFY_CORE_CONSISTENCY_H_

#include <cstdint>

#include "base/cancel.h"
#include "base/deadline.h"
#include "base/resource_guard.h"
#include "base/status.h"
#include "core/brute_force.h"
#include "core/sat_absolute.h"
#include "core/sat_hierarchical.h"
#include "core/sat_regular.h"
#include "core/specification.h"
#include "core/verdict.h"

namespace xmlverify {

class ConsistencyChecker {
 public:
  struct Options {
    SolverOptions solver;
    bool build_witness = true;
    /// Cap on distinct regular path expressions (2^k blow-up).
    int max_expressions = 16;
    /// Fallback bounds for the undecidable fragments.
    BoundedSearchOptions bounded;
    /// Wall-clock budget for the whole check. Stamped into the solver
    /// and bounded-search options at dispatch; expiry yields a
    /// kDeadlineExceeded verdict (never an error, never a wrong
    /// definitive answer). Default: never expires.
    Deadline deadline;
    /// Memory/recursion budget for the whole check, stamped into every
    /// stage alongside the deadline. Exhaustion yields
    /// kResourceExhausted — or enters the degradation ladder below.
    /// Default: unlimited.
    ResourceBudget budget;
    /// Degradation ladder (see docs/robustness.md): when an *exact*
    /// stage exhausts its budget or gives up at a solver limit
    /// (kResourceExhausted / kUnknown), retry once with the bounded
    /// searcher under much smaller caps (consistency.cc) instead of
    /// reporting failure outright. A witness found there is a sound
    /// kConsistent; otherwise the final verdict is kUnknown (or
    /// kResourceExhausted if even the degraded stage ran out) and
    /// `verdict.degradation` records every rung. Stages that are
    /// already bounded searches do not re-degrade.
    bool degrade_on_exhaustion = true;
  };

  ConsistencyChecker() = default;
  explicit ConsistencyChecker(Options options)
      : options_(std::move(options)) {}

  /// Decides consistency of `spec`, choosing the procedure by its
  /// class. For decidable classes the verdict is exact; for the
  /// undecidable ones (AC^{*,*}; non-hierarchical RC) the fallback
  /// bounded search may return kUnknown, with the class named in the
  /// verdict note.
  Result<ConsistencyVerdict> Check(const Specification& spec) const;

 private:
  Result<ConsistencyVerdict> CheckDispatch(const Specification& spec,
                                           bool* exact_ran) const;

  Options options_;
};

/// A front end's limits for one check; 0 means none on that axis.
struct CheckLimits {
  int64_t timeout_millis = 0;
  int64_t memory_limit_bytes = 0;
  int max_depth = 0;
};

/// Checker options for one check under `limits`: a fresh
/// ResourceBudget with its own accounting block, and a deadline that
/// starts now and also expires when `cancel` (if given) is tripped.
/// Every front end (serve, batch, each xmlvc command) stamps its
/// checks here, once per check.
ConsistencyChecker::Options OptionsForOneCheck(
    const CheckLimits& limits, const CancelToken* cancel = nullptr);

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_CONSISTENCY_H_
