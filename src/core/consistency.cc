#include "core/consistency.h"

#include "core/diagnosis.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

// Caps for the degraded rung — deliberately much smaller than the
// default bounded search: the ladder runs after the budget proved too
// tight, so the fallback must be cheap enough to finish inside it.
constexpr int kDegradedMaxNodes = 6;
constexpr int kDegradedNumValues = 2;
constexpr int64_t kDegradedMaxCandidates = 200000;

// The check's deadline and budget, stamped into one stage's options.
SolverOptions Stamped(SolverOptions solver,
                      const ConsistencyChecker::Options& check) {
  if (!check.deadline.is_infinite()) solver.deadline = check.deadline;
  solver.budget = check.budget;
  return solver;
}

BoundedSearchOptions Stamped(BoundedSearchOptions bounded,
                             const ConsistencyChecker::Options& check) {
  if (!check.deadline.is_infinite()) bounded.deadline = check.deadline;
  bounded.budget = check.budget;
  return bounded;
}

}  // namespace

ConsistencyChecker::Options OptionsForOneCheck(const CheckLimits& limits,
                                               const CancelToken* cancel) {
  ConsistencyChecker::Options options;
  if (limits.timeout_millis > 0) {
    options.deadline = Deadline::AfterMillis(limits.timeout_millis);
  }
  if (cancel != nullptr) {
    options.deadline = options.deadline.WithCancelToken(*cancel);
  }
  options.budget.set_memory_limit_bytes(limits.memory_limit_bytes);
  options.budget.set_max_depth(limits.max_depth);
  return options;
}

Result<ConsistencyVerdict> ConsistencyChecker::Check(
    const Specification& spec) const {
  bool exact_ran = false;
  Result<ConsistencyVerdict> result = CheckDispatch(spec, &exact_ran);

  // Procedures that propagate limits through Result-returning
  // recursion (the hierarchical checker) surface them as a Status;
  // fold them back into a verdict so every caller sees one shape.
  ConsistencyVerdict verdict;
  if (result.ok()) {
    verdict = std::move(result).value();
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    verdict.outcome = ConsistencyOutcome::kDeadlineExceeded;
    verdict.note = result.status().message();
  } else if (result.status().code() == StatusCode::kResourceExhausted) {
    verdict.outcome = ConsistencyOutcome::kResourceExhausted;
    verdict.note = result.status().message();
  } else {
    return result;
  }

  // Degradation ladder. Deadline expiry is deliberately not a rung:
  // the clock that killed the exact stage would kill the fallback too.
  bool ladder = exact_ran && options_.degrade_on_exhaustion &&
                (verdict.outcome == ConsistencyOutcome::kResourceExhausted ||
                 verdict.outcome == ConsistencyOutcome::kUnknown);
  if (!ladder) return verdict;

  trace::Count("resource/degradations");
  std::vector<DegradationStep> trail;
  trail.push_back({"exact", OutcomeName(verdict.outcome), verdict.note});

  BoundedSearchOptions degraded;
  degraded.max_nodes = kDegradedMaxNodes;
  degraded.num_values = kDegradedNumValues;
  degraded.max_candidates = kDegradedMaxCandidates;
  degraded = Stamped(std::move(degraded), options_);
  Result<ConsistencyVerdict> fallback =
      BoundedSearchConsistency(spec.dtd, spec.constraints, degraded);
  if (!fallback.ok()) {
    trail.push_back({"degraded-bounded", "ERROR",
                     fallback.status().message()});
    verdict.outcome = ConsistencyOutcome::kUnknown;
    verdict.degradation = std::move(trail);
    verdict.note = FormatDegradationReport(verdict.degradation);
    return verdict;
  }
  ConsistencyVerdict degraded_verdict = std::move(fallback).value();
  trail.push_back({"degraded-bounded", OutcomeName(degraded_verdict.outcome),
                   degraded_verdict.note});
  if (degraded_verdict.outcome == ConsistencyOutcome::kConsistent) {
    // A witness found under smaller caps is still a witness: the
    // degraded verdict is sound, just not the one the exact stage
    // would have produced.
    trace::Count("resource/degraded_recoveries");
    degraded_verdict.degradation = std::move(trail);
    degraded_verdict.note = "degraded: " + degraded_verdict.note;
    return degraded_verdict;
  }
  // Bottom of the ladder: report UNKNOWN with the rung-by-rung trail
  // (kResourceExhausted when even the degraded stage ran out of the
  // same budget, so a retry with a bigger one may help).
  verdict.outcome =
      degraded_verdict.outcome == ConsistencyOutcome::kResourceExhausted
          ? ConsistencyOutcome::kResourceExhausted
          : ConsistencyOutcome::kUnknown;
  verdict.degradation = std::move(trail);
  verdict.note = FormatDegradationReport(verdict.degradation);
  return verdict;
}

Result<ConsistencyVerdict> ConsistencyChecker::CheckDispatch(
    const Specification& spec, bool* exact_ran) const {
  TraceSpan check_span("check");
  RETURN_IF_ERROR(spec.constraints.Validate(spec.dtd));
  ConstraintClass constraint_class;
  {
    TraceSpan classify_span("check/classify");
    constraint_class = spec.Classify();
  }
  std::string class_name = ConstraintClassName(constraint_class);
  trace::Count("check/constraints",
               static_cast<int64_t>(spec.constraints.size()));

  auto annotate = [&class_name](ConsistencyVerdict verdict) {
    if (verdict.note.empty()) {
      verdict.note = "class: " + class_name;
    } else {
      verdict.note = "class: " + class_name + "; " + verdict.note;
    }
    return verdict;
  };

  switch (constraint_class) {
    case ConstraintClass::kAcKeysOnly:
    case ConstraintClass::kAcUnary:
    case ConstraintClass::kAcMultiPrimary: {
      *exact_ran = true;
      AbsoluteCheckOptions absolute;
      absolute.solver = Stamped(options_.solver, options_);
      absolute.build_witness = options_.build_witness;
      ASSIGN_OR_RETURN(
          ConsistencyVerdict verdict,
          CheckAbsoluteConsistency(spec.dtd, spec.constraints, absolute));
      return annotate(std::move(verdict));
    }
    case ConstraintClass::kAcRegular: {
      *exact_ran = true;
      RegularCheckOptions regular;
      regular.solver = Stamped(options_.solver, options_);
      regular.build_witness = options_.build_witness;
      regular.max_expressions = options_.max_expressions;
      ASSIGN_OR_RETURN(
          ConsistencyVerdict verdict,
          CheckRegularConsistency(spec.dtd, spec.constraints, regular));
      return annotate(std::move(verdict));
    }
    case ConstraintClass::kRelative:
    case ConstraintClass::kMixedRelative: {
      *exact_ran = true;
      HierarchicalCheckOptions hierarchical;
      hierarchical.solver = Stamped(options_.solver, options_);
      hierarchical.build_witness = options_.build_witness;
      Result<ConsistencyVerdict> verdict =
          CheckHierarchicalConsistency(spec.dtd, spec.constraints,
                                       hierarchical);
      if (verdict.ok()) return annotate(std::move(verdict).value());
      if (verdict.status().code() != StatusCode::kUnsupported) {
        return verdict.status();
      }
      // Non-hierarchical (or otherwise outside HRC): undecidable in
      // general — fall back to bounded search. This is already the
      // bounded rung, so the ladder must not re-degrade it.
      *exact_ran = false;
      ASSIGN_OR_RETURN(
          ConsistencyVerdict bounded,
          BoundedSearchConsistency(spec.dtd, spec.constraints,
                                   Stamped(options_.bounded, options_)));
      bounded.note = verdict.status().message() +
                     (bounded.note.empty() ? "" : "; " + bounded.note);
      return annotate(std::move(bounded));
    }
    case ConstraintClass::kAcMultiGeneral: {
      // Undecidable ([14]); bounded search only.
      ASSIGN_OR_RETURN(
          ConsistencyVerdict bounded,
          BoundedSearchConsistency(spec.dtd, spec.constraints,
                                   Stamped(options_.bounded, options_)));
      bounded.note =
          "SAT(AC^{*,*}) is undecidable; bounded search only" +
          (bounded.note.empty() ? std::string() : "; " + bounded.note);
      return annotate(std::move(bounded));
    }
  }
  return Status::Internal("unhandled constraint class");
}

}  // namespace xmlverify
