// Traced-run helpers: a decomposition replay that calls the library's
// layers one public function at a time, in the order the facade's
// procedure calls them, and the per-layer counters read from the
// program's own StatsRegistry.
#ifndef LEDGER_LAYERS_H_
#define LEDGER_LAYERS_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "core/specification.h"
#include "ledger/ledger.h"

namespace ledger {

/// Sizes and solver effort seen by decomposition replays.
struct LayerTotals {
  int64_t encoded = 0;     // replays that built an integer program
  int64_t vars = 0;
  int64_t rows = 0;
  int64_t cells = 0;
  int64_t solves = 0;
  int64_t nodes = 0;
  int64_t pivots = 0;
  int64_t presolves = 0;
  int64_t presolve_refuted = 0;
  int64_t root_lps = 0;
  int64_t root_lp_pivots = 0;
  int64_t witnesses = 0;
  int64_t witness_nodes = 0;
  int64_t hierarchical = 0;
  int64_t scopes = 0;
};

/// Decides `spec` by calling its procedure's layers directly, each
/// under a span of `log` (names as in PerLayerMetrics()). The probe
/// calls (`ilp.presolve`, `ilp.root_lp`) run as separate root spans:
/// the real solve already includes them. Returns the verdict reached.
xmlverify::Result<xmlverify::ConsistencyOutcome> DecomposedCheck(
    const xmlverify::Specification& spec, int64_t request, SpanLog* log,
    LayerTotals* totals);

/// The layer-call names a decomposition replay records.
const std::vector<std::string>& DecompositionLayers();

/// Adds the per-layer metrics derived from `totals` and from the
/// program's counters in `registry` (cache/*, solver/*, simplex/*,
/// bigint/*), normalized per check where they are counts.
void ReportLayerTotals(const LayerTotals& totals,
                       const xmlverify::StatsRegistry& registry,
                       int64_t checks, Report* report);

}  // namespace ledger

#endif  // LEDGER_LAYERS_H_
