#include "core/diagnosis.h"

#include <variant>
#include <vector>

#include "core/implication.h"
#include "core/implication_engine.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

using AnyConstraint =
    std::variant<AbsoluteKey, AbsoluteInclusion, RegularKey, RegularInclusion,
                 RelativeKey, RelativeInclusion>;

std::vector<AnyConstraint> Flatten(const ConstraintSet& constraints) {
  std::vector<AnyConstraint> flat;
  for (const auto& c : constraints.absolute_keys()) flat.emplace_back(c);
  for (const auto& c : constraints.absolute_inclusions()) flat.emplace_back(c);
  for (const auto& c : constraints.regular_keys()) flat.emplace_back(c);
  for (const auto& c : constraints.regular_inclusions()) flat.emplace_back(c);
  for (const auto& c : constraints.relative_keys()) flat.emplace_back(c);
  for (const auto& c : constraints.relative_inclusions()) flat.emplace_back(c);
  return flat;
}

ConstraintSet Rebuild(const std::vector<AnyConstraint>& flat,
                      const std::vector<bool>& keep) {
  ConstraintSet set;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!keep[i]) continue;
    std::visit([&set](const auto& constraint) { set.Add(constraint); },
               flat[i]);
  }
  return set;
}

// Per-probe checker options: the caller's ceilings and cancel token,
// but a fresh accounting block and a clock restarted at `wall` (the
// allowance the caller's deadline had at entry, so every probe gets
// the same one). Sharing the caller's ResourceBudget across all
// |Sigma|+1 probes accumulates charges (and the one absolute deadline
// keeps ticking), so late probes would spuriously exhaust and their
// constraints be conservatively kept — degrading the "minimal" core
// toward the full set. Probes need verdicts only, not witnesses.
ConsistencyChecker::Options ProbeOptions(
    const ConsistencyChecker::Options& base, Deadline::Clock::duration wall) {
  ConsistencyChecker::Options probe = base;
  probe.build_witness = false;
  probe.deadline = base.deadline.Restarted(wall);
  probe.budget = ResourceBudget();
  probe.budget.set_memory_limit_bytes(base.budget.memory_limit_bytes());
  probe.budget.set_max_depth(base.budget.max_depth());
  return probe;
}

// Full-tier implication options under one probe's limits.
ImplicationOptions ProbeImplicationOptions(
    const ConsistencyChecker::Options& base, Deadline::Clock::duration wall) {
  const ConsistencyChecker::Options probe = ProbeOptions(base, wall);
  ImplicationOptions implication;
  implication.solver = probe.solver;
  implication.solver.deadline = probe.deadline;
  implication.solver.budget = probe.budget;
  implication.max_expressions = probe.max_expressions;
  implication.build_counterexample = false;
  return implication;
}

Status Cancelled() {
  return Status::DeadlineExceeded("core minimization cancelled");
}

// Is `constraint` implied by `rest` (under the DTD)? Decidable
// flavours go through the layered engine (quick tier first, solver on
// misses); relative and multi-attribute constraints get the quick
// tier only. Errors and unsettled answers count as "not implied".
bool ImpliedByRest(const ImplicationChecker& engine, const Dtd& dtd,
                   const ConstraintSet& rest, const AnyConstraint& constraint) {
  if (const auto* key = std::get_if<AbsoluteKey>(&constraint)) {
    if (!key->IsUnary()) return engine.QuickImplies(dtd, rest, *key);
    Result<ImplicationAnswer> answer = engine.CheckKey(dtd, rest, *key);
    return answer.ok() && answer->implied;
  }
  if (const auto* inc = std::get_if<AbsoluteInclusion>(&constraint)) {
    if (!inc->IsUnary()) return engine.QuickImplies(dtd, rest, *inc);
    Result<ImplicationAnswer> answer = engine.CheckInclusion(dtd, rest, *inc);
    return answer.ok() && answer->implied;
  }
  if (const auto* key = std::get_if<RegularKey>(&constraint)) {
    Result<ImplicationAnswer> answer = engine.CheckKey(dtd, rest, *key);
    return answer.ok() && answer->implied;
  }
  if (const auto* inc = std::get_if<RegularInclusion>(&constraint)) {
    Result<ImplicationAnswer> answer = engine.CheckInclusion(dtd, rest, *inc);
    return answer.ok() && answer->implied;
  }
  if (const auto* key = std::get_if<RelativeKey>(&constraint)) {
    return engine.QuickImplies(dtd, rest, *key);
  }
  if (const auto* inc = std::get_if<RelativeInclusion>(&constraint)) {
    return engine.QuickImplies(dtd, rest, *inc);
  }
  return false;
}

}  // namespace

Result<ConstraintSet> MinimizeInconsistentCore(
    const Dtd& dtd, const ConstraintSet& constraints,
    const ConsistencyChecker::Options& options) {
  const Deadline::Clock::duration wall = options.deadline.Remaining();
  std::vector<AnyConstraint> flat = Flatten(constraints);
  std::vector<bool> keep(flat.size(), true);

  Specification spec;
  // The Dtd has no public copy-from-reference constructor need — it is
  // copyable; assemble a working specification per probe.
  spec.dtd = dtd;
  spec.constraints = Rebuild(flat, keep);
  {
    ConsistencyChecker checker(ProbeOptions(options, wall));
    ASSIGN_OR_RETURN(ConsistencyVerdict verdict, checker.Check(spec));
    if (options.deadline.cancelled()) return Cancelled();
    // A budget too tight for the whole specification is a budget
    // outcome, not an input error. So is an UNKNOWN whose exact stage
    // ran out of budget: the degraded rung it fell back on cannot
    // refute, and its note carries the rung-by-rung trail.
    if (verdict.outcome == ConsistencyOutcome::kDeadlineExceeded) {
      return Status::DeadlineExceeded(
          "the whole specification did not settle within the deadline");
    }
    const bool exact_exhausted =
        !verdict.degradation.empty() &&
        verdict.degradation.front().outcome ==
            OutcomeName(ConsistencyOutcome::kResourceExhausted);
    if (verdict.outcome == ConsistencyOutcome::kResourceExhausted ||
        (verdict.outcome == ConsistencyOutcome::kUnknown && exact_exhausted)) {
      return Status::ResourceExhausted(
          "the whole specification ran out of budget: " + verdict.note);
    }
    if (verdict.outcome != ConsistencyOutcome::kInconsistent) {
      return Status::InvalidArgument(
          "MinimizeInconsistentCore requires an (exactly) inconsistent "
          "specification; got " + OutcomeName(verdict.outcome));
    }
  }

  // Iterative deletion: drop each constraint if the rest stays
  // inconsistent. Each probe runs under its own derived budget (see
  // ProbeOptions above); a probe that ends after the cancel token
  // tripped decides nothing.
  for (size_t i = 0; i < flat.size(); ++i) {
    keep[i] = false;
    spec.constraints = Rebuild(flat, keep);
    ConsistencyChecker checker(ProbeOptions(options, wall));
    Result<ConsistencyVerdict> probe = checker.Check(spec);
    if (options.deadline.cancelled()) return Cancelled();
    bool still_inconsistent =
        probe.ok() && probe->outcome == ConsistencyOutcome::kInconsistent;
    if (!still_inconsistent) keep[i] = true;  // needed for the core
  }

  // Implication pruning: a kept constraint implied by the rest of the
  // core constrains no document the rest does not, so dropping it
  // leaves an equiconsistent (still inconsistent) set. Iterative
  // deletion already yields 1-minimality when every probe settles;
  // this pass additionally shrinks cores whose probes ended kUnknown
  // or exhausted (those constraints were kept conservatively).
  ImplicationEngineOptions engine_options;
  engine_options.full = ProbeImplicationOptions(options, wall);
  const ImplicationChecker engine(engine_options);
  for (size_t i = 0; i < flat.size(); ++i) {
    if (!keep[i]) continue;
    keep[i] = false;
    ConstraintSet rest = Rebuild(flat, keep);
    const bool implied = ImpliedByRest(engine, dtd, rest, flat[i]);
    if (options.deadline.cancelled()) return Cancelled();
    if (implied) {
      trace::Count("diagnosis/implication_pruned");
    } else {
      keep[i] = true;
    }
  }
  return Rebuild(flat, keep);
}

Result<ConstraintSet> RemoveRedundantConstraints(
    const Dtd& dtd, const ConstraintSet& constraints,
    const ConsistencyChecker::Options& options) {
  const Deadline::Clock::duration wall = options.deadline.Remaining();
  RETURN_IF_ERROR(constraints.Validate(dtd));
  std::vector<AnyConstraint> flat = Flatten(constraints);
  std::vector<bool> keep(flat.size(), true);
  for (size_t i = 0; i < flat.size(); ++i) {
    // Only absolute unary constraints have a decidable implication
    // problem we expose; skip everything else.
    const AbsoluteKey* key = std::get_if<AbsoluteKey>(&flat[i]);
    const AbsoluteInclusion* inclusion =
        std::get_if<AbsoluteInclusion>(&flat[i]);
    if (key == nullptr && inclusion == nullptr) continue;
    if (key != nullptr && !key->IsUnary()) continue;
    if (inclusion != nullptr && !inclusion->IsUnary()) continue;

    keep[i] = false;
    ConstraintSet rest = Rebuild(flat, keep);
    const ImplicationOptions implication_options =
        ProbeImplicationOptions(options, wall);
    Result<ImplicationVerdict> implied =
        key != nullptr
            ? CheckKeyImplication(dtd, rest, *key, implication_options)
            : CheckInclusionImplication(dtd, rest, *inclusion,
                                        implication_options);
    if (!implied.ok() || !implied->implied) keep[i] = true;  // load-bearing
  }
  return Rebuild(flat, keep);
}

std::string FormatDegradationReport(const std::vector<DegradationStep>& steps) {
  std::string report = "degradation ladder:";
  bool first = true;
  for (const DegradationStep& step : steps) {
    report += first ? " " : " -> ";
    first = false;
    report += step.stage + ": " + step.outcome;
    if (!step.reason.empty()) report += " (" + step.reason + ")";
  }
  return report;
}

}  // namespace xmlverify
