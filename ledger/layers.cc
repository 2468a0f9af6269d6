#include "ledger/layers.h"

#include <memory>
#include <optional>

#include "checker/document_checker.h"
#include "core/consistency.h"
#include "core/sat_hierarchical.h"
#include "core/witness.h"
#include "encoding/cardinality.h"
#include "encoding/flow_encoder.h"
#include "encoding/regular_encoder.h"
#include "ilp/linear.h"
#include "ilp/presolve.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"

namespace ledger {

using xmlverify::ConsistencyOutcome;
using xmlverify::Result;
using xmlverify::Status;

namespace {

// The probes run outside the replay root: they duplicate work the real
// solve does internally, so they must not count towards its coverage.
void ProbeSolver(const xmlverify::IntegerProgram& program, int64_t request,
                 SpanLog* log, LayerTotals* totals) {
  {
    ScopedSpan span(log, "ilp.presolve", request);
    xmlverify::PresolveInfo info = xmlverify::PresolveProgram(program);
    totals->presolves += 1;
    if (info.infeasible()) totals->presolve_refuted += 1;
  }
  {
    ScopedSpan span(log, "ilp.root_lp", request);
    xmlverify::SimplexResult lp =
        xmlverify::SolveLp(program.num_variables(), program.linear());
    totals->root_lps += 1;
    totals->root_lp_pivots += lp.pivots;
  }
}

ConsistencyOutcome OutcomeOf(const xmlverify::SolveResult& solved) {
  switch (solved.outcome) {
    case xmlverify::SolveOutcome::kSat:
      return ConsistencyOutcome::kConsistent;
    case xmlverify::SolveOutcome::kUnsat:
      return ConsistencyOutcome::kInconsistent;
    case xmlverify::SolveOutcome::kDeadlineExceeded:
      return ConsistencyOutcome::kDeadlineExceeded;
    case xmlverify::SolveOutcome::kResourceExhausted:
      return ConsistencyOutcome::kResourceExhausted;
    case xmlverify::SolveOutcome::kUnknown:
      break;
  }
  return ConsistencyOutcome::kUnknown;
}

// CheckAbsoluteConsistency, one layer at a time.
Result<ConsistencyOutcome> AbsoluteReplay(const xmlverify::Specification& spec,
                                          int64_t request, SpanLog* log,
                                          LayerTotals* totals) {
  xmlverify::IntegerProgram program;
  std::optional<xmlverify::DtdFlowSystem> flow;
  std::optional<xmlverify::AbsoluteCardinality> cardinality;
  {
    ScopedSpan span(log, "encoding.flow", request);
    Result<xmlverify::DtdFlowSystem> built =
        xmlverify::DtdFlowSystem::Build(spec.dtd, nullptr, &program);
    if (!built.ok()) return built.status();
    flow.emplace(std::move(built).value());
  }
  {
    ScopedSpan span(log, "encoding.cardinality", request);
    Result<xmlverify::AbsoluteCardinality> emitted =
        xmlverify::AbsoluteCardinality::Emit(spec.dtd, spec.constraints, {},
                                             &*flow, &program);
    if (!emitted.ok()) return emitted.status();
    cardinality.emplace(std::move(emitted).value());
  }
  totals->encoded += 1;
  totals->vars += program.num_variables();
  totals->rows += static_cast<int64_t>(program.linear().size() +
                                       program.conditionals().size() +
                                       program.prequadratics().size());
  ProbeSolver(program, request, log, totals);
  xmlverify::SolveResult solved;
  {
    ScopedSpan span(log, "ilp.solve", request);
    xmlverify::IlpSolver solver;
    xmlverify::AbsoluteCheckOptions defaults;
    solved = program.prequadratics().empty()
                 ? solver.Solve(program)
                 : solver.SolveWithDeepening(program,
                                             defaults.deepening_initial_cap,
                                             defaults.deepening_max_cap);
  }
  totals->solves += 1;
  totals->nodes += solved.nodes_explored;
  totals->pivots += solved.lp_pivots;
  if (solved.outcome != xmlverify::SolveOutcome::kSat) return OutcomeOf(solved);
  std::optional<xmlverify::XmlTree> tree;
  {
    ScopedSpan span(log, "core.witness", request);
    Result<xmlverify::XmlTree> built = flow->BuildTree(solved.assignment);
    if (!built.ok()) return built.status();
    tree.emplace(std::move(built).value());
    Status assigned = xmlverify::AssignAbsoluteValues(
        spec.dtd, spec.constraints, *cardinality, solved.assignment, "v",
        &*tree);
    if (!assigned.ok()) return assigned;
  }
  totals->witnesses += 1;
  totals->witness_nodes += tree->num_nodes();
  {
    ScopedSpan span(log, "checker.replay", request);
    Status valid = xmlverify::CheckDocument(*tree, spec.dtd, spec.constraints);
    if (!valid.ok()) return Status::Internal("witness replay failed");
  }
  return ConsistencyOutcome::kConsistent;
}

// CheckRegularConsistency, one layer at a time.
Result<ConsistencyOutcome> RegularReplay(const xmlverify::Specification& spec,
                                         int64_t request, SpanLog* log,
                                         LayerTotals* totals) {
  xmlverify::IntegerProgram program;
  std::unique_ptr<xmlverify::RegularEncoder> encoder;
  xmlverify::ConstraintSet regular;
  {
    ScopedSpan span(log, "encoding.regular", request);
    Result<xmlverify::ConstraintSet> folded =
        xmlverify::AbsoluteAsRegular(spec.constraints, spec.dtd);
    if (!folded.ok()) return folded.status();
    regular = std::move(folded).value();
    Result<std::unique_ptr<xmlverify::RegularEncoder>> built =
        xmlverify::RegularEncoder::Build(spec.dtd, regular, &program);
    if (!built.ok()) return built.status();
    encoder = std::move(built).value();
  }
  totals->encoded += 1;
  totals->vars += program.num_variables();
  totals->rows += static_cast<int64_t>(program.linear().size() +
                                       program.conditionals().size());
  totals->cells += static_cast<int64_t>(encoder->num_cells());
  ProbeSolver(program, request, log, totals);
  xmlverify::SolveResult solved;
  {
    ScopedSpan span(log, "ilp.solve", request);
    solved = xmlverify::IlpSolver().Solve(program);
  }
  totals->solves += 1;
  totals->nodes += solved.nodes_explored;
  totals->pivots += solved.lp_pivots;
  if (solved.outcome != xmlverify::SolveOutcome::kSat) return OutcomeOf(solved);
  std::optional<xmlverify::XmlTree> tree;
  {
    ScopedSpan span(log, "core.witness", request);
    Result<xmlverify::XmlTree> built = encoder->BuildWitness(solved.assignment);
    if (!built.ok()) return built.status();
    tree.emplace(std::move(built).value());
  }
  totals->witnesses += 1;
  totals->witness_nodes += tree->num_nodes();
  {
    ScopedSpan span(log, "checker.replay", request);
    Status valid = xmlverify::CheckDocument(*tree, spec.dtd, regular);
    if (!valid.ok()) return Status::Internal("witness replay failed");
  }
  return ConsistencyOutcome::kConsistent;
}

}  // namespace

const std::vector<std::string>& DecompositionLayers() {
  static const std::vector<std::string> kLayers = {
      "core.classify",  "encoding.flow",    "encoding.cardinality",
      "encoding.regular", "ilp.solve",      "ilp.presolve",
      "ilp.root_lp",    "core.witness",     "checker.replay",
      "core.hierarchical"};
  return kLayers;
}

Result<ConsistencyOutcome> DecomposedCheck(const xmlverify::Specification& spec,
                                           int64_t request, SpanLog* log,
                                           LayerTotals* totals) {
  Status valid = spec.constraints.Validate(spec.dtd);
  if (!valid.ok()) return valid;
  xmlverify::ConstraintClass cls;
  {
    ScopedSpan span(log, "core.classify", request);
    cls = spec.Classify();
  }
  using xmlverify::ConstraintClass;
  switch (cls) {
    case ConstraintClass::kAcKeysOnly:
    case ConstraintClass::kAcUnary:
    case ConstraintClass::kAcMultiPrimary:
      return AbsoluteReplay(spec, request, log, totals);
    case ConstraintClass::kAcRegular:
      return RegularReplay(spec, request, log, totals);
    case ConstraintClass::kRelative:
    case ConstraintClass::kMixedRelative: {
      Result<xmlverify::ConsistencyVerdict> verdict = [&] {
        ScopedSpan span(log, "core.hierarchical", request);
        return xmlverify::CheckHierarchicalConsistency(spec.dtd,
                                                       spec.constraints);
      }();
      if (verdict.ok()) {
        totals->hierarchical += 1;
        totals->scopes += verdict->stats.subproblems;
        return verdict->outcome;
      }
      if (verdict.status().code() != xmlverify::StatusCode::kUnsupported) {
        return verdict.status();
      }
      break;  // outside HRC: the facade falls back to bounded search
    }
    case ConstraintClass::kAcMultiGeneral:
      break;
  }
  // Undecidable fragments: bounded search is one call, not a layer
  // split; replay it through the facade.
  Result<xmlverify::ConsistencyVerdict> bounded =
      xmlverify::ConsistencyChecker().Check(spec);
  if (!bounded.ok()) return bounded.status();
  return bounded->outcome;
}

void ReportLayerTotals(const LayerTotals& totals,
                       const xmlverify::StatsRegistry& registry,
                       int64_t checks, Report* report) {
  auto per = [](int64_t numerator, int64_t denominator) {
    return denominator > 0 ? static_cast<double>(numerator) /
                                 static_cast<double>(denominator)
                           : 0.0;
  };
  auto counter = [&](const char* name) { return registry.Counter(name); };
  report->Set("encoding.vars", per(totals.vars, totals.encoded), "count");
  report->Set("encoding.rows", per(totals.rows, totals.encoded), "count");
  report->Set("encoding.cells", per(totals.cells, totals.encoded), "count");
  report->Set("ilp.nodes", per(totals.nodes, totals.solves), "count");
  report->Set("ilp.pivots", per(totals.pivots, totals.solves), "count");
  report->Set("ilp.presolve.refuted_share",
              per(totals.presolve_refuted, totals.presolves), "ratio");
  report->Set("ilp.root_lp.pivots", per(totals.root_lp_pivots, totals.root_lps),
              "count");
  report->Set("core.witness.nodes", per(totals.witness_nodes, totals.witnesses),
              "count");
  report->Set("core.hierarchical.scopes", per(totals.scopes, totals.hierarchical),
              "count");
  // Counters the program records itself, over the traced checks.
  int64_t dfa_hits = counter("cache/dfa_hits");
  int64_t dfa_misses = counter("cache/dfa_misses");
  report->Set("regex.dfa_hit_share", per(dfa_hits, dfa_hits + dfa_misses),
              "ratio");
  int64_t plan_hits = counter("cache/cardinality_hits");
  int64_t plan_misses = counter("cache/cardinality_misses");
  report->Set("encoding.plan_hit_share",
              per(plan_hits, plan_hits + plan_misses), "ratio");
  int64_t warm = counter("simplex/warm_calls");
  int64_t cold = counter("simplex/calls");
  report->Set("ilp.warm_share", per(warm, warm + cold), "ratio");
  report->Set("base.promotions_per_pivot",
              per(counter("solver/smallrat_promotions"),
                  counter("solver/lp_pivots")),
              "ratio");
  report->Set("base.bigint.mul_calls",
              per(counter("bigint/karatsuba_calls") +
                      counter("bigint/schoolbook_calls"),
                  checks),
              "count");
  report->Set("base.bigint.divmod_calls",
              per(counter("bigint/divmod_normalizations"), checks), "count");
  report->Set("base.bigint.gcd_iterations",
              per(counter("bigint/gcd_iterations"), checks), "count");
}

}  // namespace ledger
