#ifndef LEDGER_FIGURES_H_
#define LEDGER_FIGURES_H_

#include <string>
#include <vector>

#include "core/specification.h"
#include "core/verdict.h"
#include "ledger/ledger.h"

namespace ledger {

/// One manifest entry of the `figures` workload.
struct FigureInstance {
  std::string name;  // "<cell>/<size>"
  xmlverify::Specification spec;
  xmlverify::ConsistencyOutcome expected;
  /// Where the expected verdict comes from: "dpll", "qbf-eval",
  /// "subset-sum-dp", "construction" or "paper".
  std::string source;
};

/// The Figs 3/4 manifest (fixed instances; a run's seed only orders
/// its checks).
std::vector<FigureInstance> BuildManifest();

}  // namespace ledger

#endif  // LEDGER_FIGURES_H_
