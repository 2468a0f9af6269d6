#include "difftest/oracle.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <utility>

#include "base/string_util.h"
#include "checker/document_checker.h"
#include "core/sat_absolute.h"
#include "core/sat_bounded.h"
#include "core/sat_hierarchical.h"
#include "core/sat_regular.h"
#include "trace/trace.h"
#include "xml/xml_parser.h"

namespace xmlverify {

bool RoundTripSafe(const XmlTree& tree) {
  for (NodeId node = 0; node < tree.num_nodes(); ++node) {
    if (!tree.IsText(node)) {
      // Adjacent text siblings merge into one node on reparse.
      const std::vector<NodeId>& children = tree.ChildrenOf(node);
      for (size_t i = 1; i < children.size(); ++i) {
        if (tree.IsText(children[i - 1]) && tree.IsText(children[i])) {
          return false;
        }
      }
      continue;
    }
    const std::string& text = tree.TextOf(node);
    if (text.empty()) return false;
    if (std::isspace(static_cast<unsigned char>(text.front())) ||
        std::isspace(static_cast<unsigned char>(text.back()))) {
      return false;  // the parser strips surrounding whitespace
    }
  }
  return true;
}

namespace {

int SaturatingAdd(int a, int b, int cap) {
  return a >= cap - b ? cap : a + b;
}

// Maximal total weight over the words of a star-free content model,
// where an element position weighs type_weight[type] and a text
// position weighs pcdata_weight. Saturates at cap.
int MaxWordWeight(const Regex& regex, const std::vector<int>& type_weight,
                  int pcdata_weight, int cap) {
  switch (regex.kind()) {
    case RegexKind::kEpsilon:
      return 0;
    case RegexKind::kSymbol: {
      int symbol = regex.symbol();
      if (symbol >= static_cast<int>(type_weight.size())) {
        return pcdata_weight;  // the pcdata symbol
      }
      return type_weight[symbol];
    }
    case RegexKind::kWildcard:
    case RegexKind::kStar:
      return cap;  // unbounded (callers pre-filter with IsNoStar)
    case RegexKind::kConcat:
      return SaturatingAdd(
          MaxWordWeight(regex.left(), type_weight, pcdata_weight, cap),
          MaxWordWeight(regex.right(), type_weight, pcdata_weight, cap), cap);
    case RegexKind::kUnion:
      return std::max(
          MaxWordWeight(regex.left(), type_weight, pcdata_weight, cap),
          MaxWordWeight(regex.right(), type_weight, pcdata_weight, cap));
  }
  return cap;
}

// Bottom-up DP over the (non-recursive) type graph: weight of the
// maximal subtree rooted at each type, where `self` gives the node's
// own contribution. Saturates at cap.
std::vector<int> TypeWeights(const Dtd& dtd,
                             const std::function<int(int)>& self,
                             int pcdata_weight, int cap) {
  int n = dtd.num_element_types();
  std::vector<int> weight(n, -1);
  // Self-recursive lambda via explicit fixpoint: the DTD is acyclic,
  // so plain recursion with a memo terminates.
  std::function<int(int)> compute = [&](int type) -> int {
    if (weight[type] >= 0) return weight[type];
    weight[type] = cap;  // cycle guard; overwritten below
    std::vector<int> child_weight(n, 0);
    for (int child : dtd.ChildTypes(type)) child_weight[child] = compute(child);
    int value = SaturatingAdd(
        self(type),
        MaxWordWeight(dtd.Content(type), child_weight, pcdata_weight, cap),
        cap);
    weight[type] = value;
    return value;
  };
  // The MaxWordWeight call above needs weights for every type id, so
  // materialize the full vector (computing only reachable types as a
  // side effect of the root call would leave holes).
  std::vector<int> result(n, 0);
  // Compute root last so its dependencies are memoized first — order
  // does not matter for correctness, only the memo does.
  for (int type = 0; type < n; ++type) result[type] = compute(type);
  return result;
}

}  // namespace

int MaxDocumentNodes(const Dtd& dtd, int cap) {
  if (dtd.IsRecursive() || !dtd.IsNoStar()) return cap;
  std::vector<int> weights =
      TypeWeights(dtd, [](int) { return 1; }, /*pcdata_weight=*/1, cap);
  return weights[dtd.root()];
}

int MaxAttributeSlots(const Dtd& dtd, int cap) {
  if (dtd.IsRecursive() || !dtd.IsNoStar()) return cap;
  std::vector<int> weights = TypeWeights(
      dtd,
      [&dtd](int type) {
        return static_cast<int>(dtd.Attributes(type).size());
      },
      /*pcdata_weight=*/0, cap);
  return weights[dtd.root()];
}

namespace {

// Folds a Result<verdict> into a ProcedureRun, routing budget limits
// into their outcome codes, Unsupported into a skip, and anything
// else (Internal, InvalidArgument on a spec the predicate admitted)
// into a disagreement — a differential tester treats "a procedure
// rejected its own fragment" as a finding, not as noise.
void Fold(Result<ConsistencyVerdict> result, ProcedureRun* run,
          std::vector<std::string>* disagreements) {
  if (result.ok()) {
    run->ran = true;
    run->verdict = std::move(result).value();
    return;
  }
  const Status& status = result.status();
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      run->ran = true;
      run->verdict.outcome = ConsistencyOutcome::kDeadlineExceeded;
      run->verdict.note = status.message();
      return;
    case StatusCode::kResourceExhausted:
      run->ran = true;
      run->verdict.outcome = ConsistencyOutcome::kResourceExhausted;
      run->verdict.note = status.message();
      return;
    case StatusCode::kUnsupported:
      run->skip_reason = status.message();
      return;
    default:
      run->skip_reason = status.ToString();
      disagreements->push_back("procedure '" + run->name +
                               "' failed on a spec in its fragment: " +
                               status.ToString());
      return;
  }
}

bool Definitive(const ProcedureRun& run) {
  return run.ran && (run.verdict.outcome == ConsistencyOutcome::kConsistent ||
                     run.verdict.outcome == ConsistencyOutcome::kInconsistent);
}

void CheckWitness(const Specification& spec, const ProcedureRun& run,
                  std::vector<std::string>* disagreements) {
  if (!run.ran || !run.verdict.witness.has_value()) return;
  const XmlTree& witness = *run.verdict.witness;
  trace::Count("difftest/witness_checks");
  Status valid = CheckDocument(witness, spec.dtd, spec.constraints);
  if (!valid.ok()) {
    disagreements->push_back("witness from '" + run.name +
                             "' fails dynamic validation: " + valid.message());
    return;
  }
  if (!RoundTripSafe(witness)) {
    // Whitespace-only or adjacent text nodes cannot survive reparse
    // verbatim; the in-memory witness was still validated above.
    trace::Count("difftest/roundtrip_skipped");
    return;
  }
  trace::Count("difftest/roundtrips");
  std::string xml = witness.ToXml(spec.dtd);
  Result<XmlTree> reparsed = ParseXmlDocument(xml, spec.dtd);
  if (!reparsed.ok()) {
    disagreements->push_back("witness from '" + run.name +
                             "' does not reparse: " +
                             reparsed.status().ToString());
    return;
  }
  if (!TreesEqual(witness, *reparsed)) {
    disagreements->push_back("witness from '" + run.name +
                             "' changed across Serialize -> Parse");
    return;
  }
  Status still_valid = CheckDocument(*reparsed, spec.dtd, spec.constraints);
  if (!still_valid.ok()) {
    disagreements->push_back("reparsed witness from '" + run.name +
                             "' fails dynamic validation: " +
                             still_valid.message());
  }
}

}  // namespace

CrossCheckReport CrossCheckSpecification(const Specification& spec,
                                         const OracleOptions& options) {
  trace::Count("difftest/crosschecks");
  CrossCheckReport report;
  Status valid = spec.constraints.Validate(spec.dtd);
  if (!valid.ok()) {
    report.disagreements.push_back("specification fails validation: " +
                                   valid.message());
    return report;
  }

  ConstraintClass cls = spec.Classify();
  bool recursive = spec.dtd.IsRecursive();
  bool no_star = spec.dtd.IsNoStar();
  bool absolute_only =
      !spec.constraints.HasRegular() && !spec.constraints.HasRelative();
  bool all_unary = spec.constraints.AllAbsoluteUnary();

  auto fresh_deadline = [&options]() {
    return options.timeout_millis > 0
               ? Deadline::AfterMillis(options.timeout_millis)
               : Deadline::Infinite();
  };
  auto begin = [&report](const std::string& name) {
    ProcedureRun run;
    run.name = name;
    report.runs.push_back(std::move(run));
    trace::Count("difftest/procedure_runs");
    return &report.runs.back();
  };
  auto run_facade = [&](const std::string& name, const SolverOptions& solver) {
    ProcedureRun* run = begin(name);
    ConsistencyChecker::Options facade;
    facade.solver = solver;
    facade.bounded = options.bounded;
    facade.max_expressions = options.max_expressions;
    facade.deadline = fresh_deadline();
    Fold(ConsistencyChecker(facade).Check(spec), run, &report.disagreements);
  };

  // Facade: always applicable; exercises dispatch, budget plumbing,
  // and the degradation ladder exactly as CLI users see them.
  run_facade("facade", options.solver);

  // Reference: the facade again with presolve and warm starts off, so
  // every LP relaxation is a cold solve of the unreduced rows. A
  // verdict that differs from the facade's indicts one of the two.
  {
    SolverOptions reference = options.solver;
    reference.use_presolve = false;
    reference.warm_start = false;
    run_facade("reference", reference);
  }

  // Exact absolute checker (Sections 3.1/3.3 encodings).
  if (absolute_only && cls != ConstraintClass::kAcMultiGeneral) {
    ProcedureRun* run = begin("absolute");
    AbsoluteCheckOptions absolute;
    absolute.solver = options.solver;
    absolute.solver.deadline = fresh_deadline();
    Fold(CheckAbsoluteConsistency(spec.dtd, spec.constraints, absolute), run,
         &report.disagreements);
  }

  // No-star dynamic program (Theorem 3.5): an independent exact
  // procedure on its fragment.
  if (absolute_only && all_unary && !recursive && no_star) {
    ProcedureRun* run = begin("nostar");
    NoStarCheckOptions nostar;
    nostar.deadline = fresh_deadline();
    Fold(CheckNoStarConsistency(spec.dtd, spec.constraints, nostar), run,
         &report.disagreements);
  }

  // Regular-path checker: unary absolute constraints fold in as
  // r._*.tau, so pure absolute specs get a third exact opinion.
  if (!spec.constraints.HasRelative() && all_unary) {
    ProcedureRun* run = begin("regular");
    RegularCheckOptions regular;
    regular.solver = options.solver;
    regular.solver.deadline = fresh_deadline();
    regular.max_expressions = options.max_expressions;
    Fold(CheckRegularConsistency(spec.dtd, spec.constraints, regular), run,
         &report.disagreements);
  }

  // Hierarchical checker: absolute unary constraints fold in as
  // context-root relative ones; skips (Unsupported) when the geometry
  // is not hierarchical or the DTD is recursive.
  if (!spec.constraints.HasRegular() && all_unary && !recursive) {
    ProcedureRun* run = begin("hierarchical");
    HierarchicalCheckOptions hierarchical;
    hierarchical.solver = options.solver;
    hierarchical.solver.deadline = fresh_deadline();
    Fold(CheckHierarchicalConsistency(spec.dtd, spec.constraints, hierarchical),
         run, &report.disagreements);
  }

  // One-sided bounded search: a found witness must agree with every
  // exact INCONSISTENT; an exhausted search stays UNKNOWN here.
  {
    ProcedureRun* run = begin("bounded");
    BoundedSearchOptions bounded = options.bounded;
    bounded.deadline = fresh_deadline();
    Fold(BoundedSearchConsistency(spec.dtd, spec.constraints, bounded), run,
         &report.disagreements);
  }

  // Exhaustive refutation: when the DTD is non-recursive and star-free
  // its document space is finite; if the maximal document fits the
  // enumeration caps and the value pool covers every attribute slot
  // (any satisfying assignment relabels injectively into the pool,
  // since constraint semantics only see equality), an exhausted search
  // is a complete proof of inconsistency.
  if (options.exhaustive && !recursive && no_star) {
    int nodes = MaxDocumentNodes(spec.dtd, options.exhaustive_max_nodes + 1);
    int slots = MaxAttributeSlots(spec.dtd, options.exhaustive_max_slots + 1);
    if (nodes <= options.exhaustive_max_nodes &&
        slots <= options.exhaustive_max_slots) {
      ProcedureRun* run = begin("exhaustive");
      BoundedSearchOptions exhaustive;
      exhaustive.max_nodes = nodes;
      exhaustive.num_values = std::max(1, slots);
      exhaustive.max_candidates =
          std::max<int64_t>(options.bounded.max_candidates, 500000);
      exhaustive.deadline = fresh_deadline();
      Result<ConsistencyVerdict> result =
          BoundedSearchConsistency(spec.dtd, spec.constraints, exhaustive);
      if (result.ok() &&
          result->outcome == ConsistencyOutcome::kUnknown &&
          StartsWith(result->note, "no satisfying document")) {
        result->outcome = ConsistencyOutcome::kInconsistent;
        result->note = "exhaustive enumeration: " + result->note;
        trace::Count("difftest/exhaustive_refutations");
      }
      Fold(std::move(result), run, &report.disagreements);
    }
  }

  // Verdict agreement: definitive outcomes must all match.
  std::vector<std::string> consistent_names;
  std::vector<std::string> inconsistent_names;
  for (const ProcedureRun& run : report.runs) {
    if (!Definitive(run)) continue;
    (run.verdict.outcome == ConsistencyOutcome::kConsistent
         ? consistent_names
         : inconsistent_names)
        .push_back(run.name);
  }
  if (!consistent_names.empty() && !inconsistent_names.empty()) {
    std::string conflict = "verdict conflict: CONSISTENT from {";
    for (const std::string& name : consistent_names) conflict += name + " ";
    conflict.back() = '}';
    conflict += " vs INCONSISTENT from {";
    for (const std::string& name : inconsistent_names) conflict += name + " ";
    conflict.back() = '}';
    report.disagreements.push_back(std::move(conflict));
  } else if (!consistent_names.empty()) {
    report.consensus = ConsistencyOutcome::kConsistent;
  } else if (!inconsistent_names.empty()) {
    report.consensus = ConsistencyOutcome::kInconsistent;
  }

  if (options.check_witnesses) {
    for (const ProcedureRun& run : report.runs) {
      CheckWitness(spec, run, &report.disagreements);
    }
  }
  if (!report.disagreements.empty()) {
    trace::Count("difftest/disagreements",
                 static_cast<int64_t>(report.disagreements.size()));
  }
  return report;
}

}  // namespace xmlverify
