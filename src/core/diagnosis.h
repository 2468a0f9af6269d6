// Inconsistency diagnosis: shrink an inconsistent specification to a
// minimal core — a subset of the constraints that is still
// inconsistent with the DTD, but becomes consistent when any single
// constraint is dropped. This turns a bare INCONSISTENT verdict into
// an actionable explanation ("these four constraints cannot coexist
// with the DTD"), in the spirit of the paper's worked examples where
// one added foreign key breaks the whole specification.
#ifndef XMLVERIFY_CORE_DIAGNOSIS_H_
#define XMLVERIFY_CORE_DIAGNOSIS_H_

#include "base/status.h"
#include "core/consistency.h"
#include "core/specification.h"

namespace xmlverify {

/// Requires that (dtd, constraints) is inconsistent with an exact
/// verdict; returns a minimal inconsistent core by iterative deletion
/// (|Sigma| consistency checks). Constraints whose removal makes the
/// verdict kUnknown are conservatively kept. When the check of the
/// whole specification runs out of time or budget, the result is
/// kDeadlineExceeded or kResourceExhausted; any other verdict than
/// INCONSISTENT is kInvalidArgument.
///
/// Each probe check gets `options` with a fresh accounting block and
/// the whole wall-clock allowance `options.deadline` had at entry, so
/// the minimization may run (|Sigma|+2) times that allowance. Once
/// the deadline's cancel token trips, no further probe starts and the
/// result is kDeadlineExceeded, never a partial core.
Result<ConstraintSet> MinimizeInconsistentCore(
    const Dtd& dtd, const ConstraintSet& constraints,
    const ConsistencyChecker::Options& options = {});

/// Specification hygiene: drops absolute unary constraints that are
/// implied (in the presence of the DTD) by the remaining ones, via
/// the implication checker — e.g. transitively redundant inclusions,
/// or keys forced by DTD cardinalities. Greedy, order-dependent but
/// sound: the returned set constrains exactly the same documents.
/// Regular/relative constraints and multi-attribute keys are kept
/// as-is (their implication problems are harder or undecidable). Each
/// implication check runs under `options` the way a probe of
/// MinimizeInconsistentCore does; one that does not settle keeps its
/// constraint.
Result<ConstraintSet> RemoveRedundantConstraints(
    const Dtd& dtd, const ConstraintSet& constraints,
    const ConsistencyChecker::Options& options = {});

/// Renders the rung-by-rung trail of a degraded check (see
/// ConsistencyChecker::Options::degrade_on_exhaustion) as a single
/// line for verdict notes and CLI output, e.g.
///   degradation ladder: exact: RESOURCE_EXHAUSTED (memory budget
///   exhausted at solver/node ...) -> degraded-bounded: UNKNOWN
///   (candidate budget exhausted)
/// This is the "structured partial diagnosis" a bottomed-out ladder
/// reports instead of a bare UNKNOWN.
std::string FormatDegradationReport(const std::vector<DegradationStep>& steps);

}  // namespace xmlverify

#endif  // XMLVERIFY_CORE_DIAGNOSIS_H_
