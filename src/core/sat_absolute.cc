#include "core/sat_absolute.h"

#include "checker/document_checker.h"
#include "core/witness.h"
#include "encoding/cardinality.h"
#include "encoding/flow_encoder.h"
#include "ilp/linear.h"
#include "trace/trace.h"

namespace xmlverify {

Result<ConsistencyVerdict> CheckAbsoluteConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const AbsoluteCheckOptions& options) {
  RETURN_IF_ERROR(constraints.Validate(dtd));

  IntegerProgram program;
  std::optional<TraceSpan> encode_span;
  encode_span.emplace("check/encode");
  ASSIGN_OR_RETURN(DtdFlowSystem flow,
                   DtdFlowSystem::Build(dtd, /*product=*/nullptr, &program));
  ASSIGN_OR_RETURN(
      AbsoluteCardinality cardinality,
      AbsoluteCardinality::Emit(dtd, constraints, options.forced_empty_types,
                                &flow, &program));
  encode_span.reset();

  IlpSolver solver(options.solver);
  std::optional<TraceSpan> solve_span;
  solve_span.emplace("check/solve");
  SolveResult solved =
      program.prequadratics().empty()
          ? solver.Solve(program)
          : solver.SolveWithDeepening(program, options.deepening_initial_cap,
                                      options.deepening_max_cap);
  solve_span.reset();

  ConsistencyVerdict verdict;
  verdict.stats.solver_nodes = solved.nodes_explored;
  verdict.stats.lp_pivots = solved.lp_pivots;
  verdict.stats.num_variables = program.num_variables();
  verdict.stats.num_constraints =
      static_cast<int>(program.linear().size() + program.conditionals().size() +
                       program.prequadratics().size());
  verdict.note = solved.note;

  switch (solved.outcome) {
    case SolveOutcome::kUnsat:
      verdict.outcome = ConsistencyOutcome::kInconsistent;
      return verdict;
    case SolveOutcome::kUnknown:
      verdict.outcome = ConsistencyOutcome::kUnknown;
      return verdict;
    case SolveOutcome::kDeadlineExceeded:
      verdict.outcome = ConsistencyOutcome::kDeadlineExceeded;
      return verdict;
    case SolveOutcome::kResourceExhausted:
      verdict.outcome = ConsistencyOutcome::kResourceExhausted;
      return verdict;
    case SolveOutcome::kSat:
      break;
  }
  verdict.outcome = ConsistencyOutcome::kConsistent;
  if (!options.build_witness) return verdict;

  TraceSpan witness_span("check/witness");
  ASSIGN_OR_RETURN(XmlTree tree, flow.BuildTree(solved.assignment));
  RETURN_IF_ERROR(AssignAbsoluteValues(dtd, constraints, cardinality,
                                       solved.assignment,
                                       options.value_prefix, &tree));
  Status valid = CheckDocument(tree, dtd, constraints);
  if (!valid.ok()) {
    return Status::Internal("constructed witness fails dynamic validation: " +
                            valid.message());
  }
  verdict.witness = std::move(tree);
  return verdict;
}

}  // namespace xmlverify
