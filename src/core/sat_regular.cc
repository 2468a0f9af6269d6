#include "core/sat_regular.h"

#include "checker/document_checker.h"
#include "encoding/regular_encoder.h"
#include "ilp/linear.h"
#include "trace/trace.h"

namespace xmlverify {

Result<ConsistencyVerdict> CheckRegularConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const RegularCheckOptions& options) {
  RETURN_IF_ERROR(constraints.Validate(dtd));
  ASSIGN_OR_RETURN(ConstraintSet regular,
                   AbsoluteAsRegular(constraints, dtd));

  IntegerProgram program;
  RegularEncoderOptions encoder_options;
  encoder_options.max_expressions = options.max_expressions;
  std::optional<TraceSpan> encode_span;
  encode_span.emplace("check/encode");
  ASSIGN_OR_RETURN(std::unique_ptr<RegularEncoder> encoder,
                   RegularEncoder::Build(dtd, regular, &program,
                                         encoder_options));
  encode_span.reset();

  IlpSolver solver(options.solver);
  std::optional<TraceSpan> solve_span;
  solve_span.emplace("check/solve");
  SolveResult solved = solver.Solve(program);
  solve_span.reset();

  ConsistencyVerdict verdict;
  verdict.stats.solver_nodes = solved.nodes_explored;
  verdict.stats.lp_pivots = solved.lp_pivots;
  verdict.stats.num_variables = program.num_variables();
  verdict.stats.num_constraints = static_cast<int>(
      program.linear().size() + program.conditionals().size());
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
  ASSIGN_OR_RETURN(XmlTree tree, encoder->BuildWitness(solved.assignment));
  Status valid = CheckDocument(tree, dtd, regular);
  if (!valid.ok()) {
    return Status::Internal(
        "constructed regular witness fails dynamic validation: " +
        valid.message());
  }
  verdict.witness = std::move(tree);
  return verdict;
}

}  // namespace xmlverify
