#include "core/sat_hierarchical.h"

#include <map>
#include <set>

#include "base/string_util.h"
#include "checker/document_checker.h"
#include "constraints/relative_geometry.h"
#include "core/sat_absolute.h"
#include "trace/trace.h"
#include "xml/validator.h"

namespace xmlverify {

namespace {

// A scope subproblem is identified by its root context type and the
// set of context types on the path from the document root.
using ScopeKey = std::pair<int, std::set<int>>;

class HierarchicalChecker {
 public:
  HierarchicalChecker(const RelativeGeometry& geometry,
                      const HierarchicalCheckOptions& options)
      : geometry_(geometry), options_(options) {}

  // The verdict of the scope rooted at a `tau` node reached along a
  // path whose context types are `contexts` (tau included), with its
  // scope-local witness when the check builds witnesses. Each distinct
  // scope is solved once; later lookups, from the decision recursion
  // and from the witness stitching alike, read the memo. Entries are
  // never erased and `std::map` nodes are stable, so the pointer stays
  // valid while deeper scopes are inserted.
  Result<const ConsistencyVerdict*> Scope(int tau,
                                          const std::set<int>& contexts) {
    ScopeKey key{tau, contexts};
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      trace::Count("hierarchical/memo_hits");
      return &it->second;
    }
    ASSIGN_OR_RETURN(ConsistencyVerdict verdict, SolveScope(tau, contexts));
    return &memo_.emplace(std::move(key), std::move(verdict)).first->second;
  }

  // Grafts one instance of the consistent scope (tau, contexts) onto
  // `target`, a `tau` node of `global`. The instance's values get a
  // fresh prefix, so the value pools of distinct instances are
  // disjoint.
  Status GraftScope(int tau, const std::set<int>& contexts, XmlTree* global,
                    NodeId target) {
    ASSIGN_OR_RETURN(const ConsistencyVerdict* scope, Scope(tau, contexts));
    if (!scope->consistent() || !scope->witness.has_value()) {
      return Status::Internal(
          "scope declared consistent but witness construction failed");
    }
    std::string prefix = StrCat("s", std::to_string(instances_++), "_");
    return GraftNode(*scope->witness, scope->witness->root(),
                     geometry_.ScopeTypes(tau), prefix, contexts, global,
                     target);
  }

  CheckStats& stats() { return stats_; }

 private:
  // Copies `node` of a scope witness, whose type ids index
  // `scope_types`, onto `target` and its subtree below it. A restricted
  // leaf expands into a fresh instance of its deeper scope.
  Status GraftNode(const XmlTree& scope_tree, NodeId node,
                   const std::vector<int>& scope_types,
                   const std::string& prefix, const std::set<int>& contexts,
                   XmlTree* global, NodeId target) {
    for (const auto& [attribute, value] : scope_tree.AttributesOf(node)) {
      global->SetAttribute(target, attribute, prefix + value);
    }
    int type = scope_types[scope_tree.TypeOf(node)];
    if (node != scope_tree.root() && geometry_.IsRestricted(type)) {
      std::set<int> deeper = contexts;
      deeper.insert(type);
      return GraftScope(type, deeper, global, target);
    }
    for (NodeId child : scope_tree.ChildrenOf(node)) {
      if (scope_tree.IsText(child)) {
        global->AddText(target, scope_tree.TextOf(child));
        continue;
      }
      NodeId copy =
          global->AddElement(target, scope_types[scope_tree.TypeOf(child)]);
      RETURN_IF_ERROR(GraftNode(scope_tree, child, scope_types, prefix,
                                contexts, global, copy));
    }
    return Status::OK();
  }

  // Solves the scope (tau, contexts) with the absolute checker after
  // pruning its inconsistent sub-scopes. Only definitive verdicts
  // return a value; the other outcomes surface as a Status.
  Result<ConsistencyVerdict> SolveScope(int tau,
                                        const std::set<int>& contexts) {
    TraceSpan scope_span("hierarchical/scope");
    // One check per scope bounds the recursion; the ILP below polls
    // the same deadline at finer grain.
    if (options_.solver.deadline.Expired()) {
      trace::Count("hierarchical/deadline_exceeded");
      return Status::DeadlineExceeded("hierarchical scope deadline exceeded");
    }
    // The scope recursion is bounded by the context-path length; guard
    // it against the budget's depth ceiling like any parser recursion.
    RETURN_IF_ERROR(options_.solver.budget.CheckDepth(
        static_cast<int>(contexts.size()), "hierarchical/scope"));
    trace::Max("hierarchical/max_context_depth",
               static_cast<int64_t>(contexts.size()));
    ASSIGN_OR_RETURN(Dtd scope_dtd, geometry_.ScopeDtd(tau));
    std::vector<int> map = geometry_.ScopeTypeMap(tau);
    std::vector<int> forced_empty;
    // Recursively prune context leaves whose deeper scope is
    // inconsistent.
    int fanout = 0;
    for (int type : geometry_.ScopeTypes(tau)) {
      if (type == tau || !geometry_.IsRestricted(type)) continue;
      ++fanout;
      std::set<int> deeper = contexts;
      deeper.insert(type);
      ASSIGN_OR_RETURN(const ConsistencyVerdict* sub, Scope(type, deeper));
      if (!sub->consistent()) forced_empty.push_back(map[type]);
    }
    trace::Count("hierarchical/scope_fanout", fanout);
    std::vector<int> path_types(contexts.begin(), contexts.end());
    ConstraintSet projected = geometry_.ProjectScopeConstraints(
        tau, path_types, map, &forced_empty);

    AbsoluteCheckOptions scope_options;
    scope_options.solver = options_.solver;
    scope_options.build_witness = options_.build_witness;
    scope_options.forced_empty_types = std::move(forced_empty);
    ASSIGN_OR_RETURN(
        ConsistencyVerdict verdict,
        CheckAbsoluteConsistency(scope_dtd, projected, scope_options));
    stats_.solver_nodes += verdict.stats.solver_nodes;
    stats_.lp_pivots += verdict.stats.lp_pivots;
    stats_.num_variables += verdict.stats.num_variables;
    stats_.num_constraints += verdict.stats.num_constraints;
    ++stats_.subproblems;
    trace::Count("hierarchical/scopes_solved");
    if (verdict.outcome == ConsistencyOutcome::kUnknown) {
      return Status::ResourceExhausted("scope subproblem hit solver limits: " +
                                       verdict.note);
    }
    if (verdict.outcome == ConsistencyOutcome::kResourceExhausted) {
      trace::Count("hierarchical/resource_exhausted");
      return Status::ResourceExhausted("scope subproblem ran out of budget: " +
                                       verdict.note);
    }
    if (verdict.outcome == ConsistencyOutcome::kDeadlineExceeded) {
      trace::Count("hierarchical/deadline_exceeded");
      return Status::DeadlineExceeded("scope subproblem deadline exceeded");
    }
    return verdict;
  }

  const RelativeGeometry& geometry_;
  const HierarchicalCheckOptions& options_;
  std::map<ScopeKey, ConsistencyVerdict> memo_;
  CheckStats stats_;
  int64_t instances_ = 0;
};

}  // namespace

Result<RelativeClassification> ClassifyRelative(
    const Dtd& dtd, const ConstraintSet& constraints) {
  ASSIGN_OR_RETURN(ConstraintSet relative,
                   WithAbsoluteAsRelative(constraints, dtd.root()));
  ASSIGN_OR_RETURN(RelativeGeometry geometry,
                   RelativeGeometry::Analyze(dtd, relative));
  RelativeClassification classification;
  classification.hierarchical = geometry.IsHierarchical();
  if (!classification.hierarchical) {
    classification.conflict = geometry.conflicting_pair()->description;
    return classification;
  }
  ASSIGN_OR_RETURN(classification.locality, geometry.MaxScopeDepth());
  return classification;
}

Result<ConsistencyVerdict> CheckHierarchicalConsistency(
    const Dtd& dtd, const ConstraintSet& constraints,
    const HierarchicalCheckOptions& options) {
  RETURN_IF_ERROR(constraints.Validate(dtd));
  // Folding an absolute constraint into a relative one with context
  // root drops the root node from every extent (scopes are strict
  // subtrees), which is harmless for keys on the root (a singleton
  // extent is always a key) but changes the meaning of inclusions
  // that mention the root's attributes. Those lie outside the scope
  // decomposition; refuse them rather than silently answering for a
  // different specification.
  for (const AbsoluteInclusion& inclusion : constraints.absolute_inclusions()) {
    if (inclusion.child_type == dtd.root() ||
        inclusion.parent_type == dtd.root()) {
      return Status::Unsupported(
          "absolute inclusion references the root type's attributes; the "
          "scope decomposition cannot express the root's extent — use the "
          "absolute or bounded checker");
    }
  }
  ASSIGN_OR_RETURN(ConstraintSet relative,
                   WithAbsoluteAsRelative(constraints, dtd.root()));
  ASSIGN_OR_RETURN(RelativeGeometry geometry,
                   RelativeGeometry::Analyze(dtd, relative));
  if (!geometry.IsHierarchical()) {
    return Status::Unsupported(
        "specification is not hierarchical (conflicting pair: " +
        geometry.conflicting_pair()->description +
        "); SAT(RC_{K,FK}) is undecidable in general — use the bounded "
        "checker");
  }

  HierarchicalChecker checker(geometry, options);
  std::set<int> root_contexts = {dtd.root()};
  ASSIGN_OR_RETURN(const ConsistencyVerdict* root,
                   checker.Scope(dtd.root(), root_contexts));

  ConsistencyVerdict verdict;
  verdict.stats = checker.stats();
  if (!root->consistent()) {
    verdict.outcome = ConsistencyOutcome::kInconsistent;
    return verdict;
  }
  verdict.outcome = ConsistencyOutcome::kConsistent;
  if (!options.build_witness) return verdict;

  TraceSpan witness_span("check/witness");
  XmlTree global(dtd.root());
  RETURN_IF_ERROR(
      checker.GraftScope(dtd.root(), root_contexts, &global, global.root()));
  Status valid = CheckDocument(global, dtd, relative);
  if (!valid.ok()) {
    return Status::Internal(
        "stitched hierarchical witness fails dynamic validation: " +
        valid.message());
  }
  verdict.witness = std::move(global);
  return verdict;
}

}  // namespace xmlverify
