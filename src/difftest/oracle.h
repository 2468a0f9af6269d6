// Cross-procedure consistency oracle: runs one specification through
// every decision procedure applicable to its class — the dispatching
// facade, the facade again on the reference solver configuration
// (presolve and warm starts off), the absolute/no-star/regular/
// hierarchical exact checkers, the bounded searcher, and (for tiny
// no-star non-recursive DTDs) an exhaustive brute-force enumeration
// that is complete and therefore yields a definitive INCONSISTENT —
// then compares the verdicts.
//
// Agreement rules:
//   - any two definitive verdicts (CONSISTENT / INCONSISTENT) must
//     match; UNKNOWN / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED agree
//     with everything (undecidable fragments degrade, never lie);
//   - every witness must satisfy T |= D and T |= Sigma under the
//     independent dynamic document checker;
//   - round-trip-safe witnesses must survive Serialize -> Parse ->
//     TreesEqual -> recheck (the Parse(Serialize(T)) == T property).
#ifndef XMLVERIFY_DIFFTEST_ORACLE_H_
#define XMLVERIFY_DIFFTEST_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/consistency.h"
#include "core/specification.h"
#include "core/verdict.h"
#include "ilp/solver.h"

namespace xmlverify {

struct OracleOptions {
  /// Per-procedure wall-clock budget in milliseconds (0 = none). Each
  /// procedure gets a fresh deadline so one slow encoder cannot starve
  /// the others into spurious DEADLINE_EXCEEDED verdicts.
  int64_t timeout_millis = 0;
  /// Caps for the one-sided bounded-search cross-check.
  BoundedSearchOptions bounded;
  /// Solver caps shared by the exact procedures.
  SolverOptions solver;
  /// Cap on distinct regular path expressions (2^k blow-up guard).
  int max_expressions = 16;
  /// Re-validate every witness with the dynamic document checker and
  /// round-trip it through the serializer/parser.
  bool check_witnesses = true;
  /// Attempt the complete brute-force refutation on specs whose DTD
  /// admits only finitely many documents small enough to enumerate.
  bool exhaustive = true;
  /// Size ceilings for the exhaustive refutation: the DTD's maximal
  /// document must fit within this many nodes / attribute slots.
  int exhaustive_max_nodes = 7;
  int exhaustive_max_slots = 4;
};

struct ProcedureRun {
  std::string name;           // "facade", "reference", "absolute", ...
  bool ran = false;           // produced a verdict
  std::string skip_reason;    // set when applicable but skipped
  ConsistencyVerdict verdict; // meaningful only when `ran`
};

struct CrossCheckReport {
  std::vector<ProcedureRun> runs;
  /// Human-readable disagreement descriptions; empty means all
  /// procedures (and all witness checks) agree.
  std::vector<std::string> disagreements;
  /// The definitive outcome, when at least one procedure reached one
  /// and no conflict was observed.
  std::optional<ConsistencyOutcome> consensus;

  bool agreed() const { return disagreements.empty(); }
};

/// Runs every applicable procedure on `spec` and cross-checks the
/// verdicts and witnesses. Never fails: internal errors surface as
/// disagreement entries, which is exactly what a differential tester
/// wants to catch.
CrossCheckReport CrossCheckSpecification(const Specification& spec,
                                         const OracleOptions& options = {});

/// True when Serialize -> Parse provably preserves `tree`: every text
/// node is non-empty, free of surrounding whitespace, and not adjacent
/// to a sibling text node (the parser strips indentation and merges
/// adjacent runs of text, so such trees cannot round-trip verbatim).
bool RoundTripSafe(const XmlTree& tree);

/// Upper bound on the node count (elements + text nodes) of any
/// document conforming to `dtd`, capped at `cap`; `cap` itself means
/// "unbounded or at least cap". Returns cap for recursive or starred
/// DTDs. Used to decide when bounded search is actually exhaustive.
int MaxDocumentNodes(const Dtd& dtd, int cap);

/// Upper bound on the total number of attribute slots of any
/// conforming document, capped at `cap` (same convention).
int MaxAttributeSlots(const Dtd& dtd, int cap);

}  // namespace xmlverify

#endif  // XMLVERIFY_DIFFTEST_ORACLE_H_
