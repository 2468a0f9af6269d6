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
  HierarchicalChecker(const Dtd& dtd, const ConstraintSet& relative,
                      const RelativeGeometry& geometry,
                      const HierarchicalCheckOptions& options)
      : dtd_(dtd),
        relative_(relative),
        geometry_(geometry),
        options_(options) {}

  // Decides consistency of the scope rooted at a `tau` node reached
  // along a path whose context types are `contexts` (tau included).
  Result<bool> ScopeConsistent(int tau, const std::set<int>& contexts) {
    ScopeKey key{tau, contexts};
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      trace::Count("hierarchical/memo_hits");
      return it->second;
    }
    ASSIGN_OR_RETURN(ConsistencyVerdict verdict,
                     SolveScope(tau, contexts, /*build_witness=*/false,
                                /*value_prefix=*/"v"));
    bool consistent = verdict.consistent();
    memo_[key] = consistent;
    return consistent;
  }

  // Builds the witness for a consistent scope, recursively stitching
  // the witnesses of its context leaves. `instance` makes value pools
  // of distinct scope instances disjoint.
  Result<XmlTree> BuildScopeWitness(int tau, const std::set<int>& contexts) {
    std::string prefix = StrCat("s", std::to_string(instance_counter_++), "_");
    ASSIGN_OR_RETURN(ConsistencyVerdict verdict,
                     SolveScope(tau, contexts, /*build_witness=*/true, prefix));
    if (!verdict.consistent() || !verdict.witness.has_value()) {
      return Status::Internal(
          "scope declared consistent but witness construction failed");
    }
    return *std::move(verdict.witness);
  }

  // Copies the scope-local witness into the global tree under
  // `target`, recursing into deeper scopes at restricted leaves.
  Status Graft(const XmlTree& scope_tree, NodeId scope_node,
               const std::vector<int>& scope_to_global, XmlTree* global,
               NodeId target, const std::set<int>& contexts) {
    // Attributes of the scope node were assigned by this scope.
    for (const auto& [attribute, value] : scope_tree.AttributesOf(scope_node)) {
      global->SetAttribute(target, attribute, value);
    }
    int global_type = scope_to_global[scope_tree.TypeOf(scope_node)];
    bool is_scope_leaf = geometry_.IsRestricted(global_type) &&
                         scope_node != scope_tree.root();
    if (is_scope_leaf) {
      // Expand the deeper scope in place of this leaf.
      std::set<int> deeper = contexts;
      deeper.insert(global_type);
      ASSIGN_OR_RETURN(XmlTree sub_witness,
                       BuildScopeWitness(global_type, deeper));
      std::vector<int> identity(dtd_.num_element_types());
      // The deeper scope has its own type numbering.
      ASSIGN_OR_RETURN(Dtd scope_dtd, geometry_.ScopeDtd(global_type));
      std::vector<int> deeper_to_global(scope_dtd.num_element_types());
      std::vector<int> scope_types = geometry_.ScopeTypes(global_type);
      for (size_t i = 0; i < scope_types.size(); ++i) {
        deeper_to_global[i] = scope_types[i];
      }
      for (NodeId child : sub_witness.ChildrenOf(sub_witness.root())) {
        RETURN_IF_ERROR(GraftSubtree(sub_witness, child, deeper_to_global,
                                     global, target, deeper));
      }
      return Status::OK();
    }
    for (NodeId child : scope_tree.ChildrenOf(scope_node)) {
      RETURN_IF_ERROR(GraftSubtree(scope_tree, child, scope_to_global, global,
                                   target, contexts));
    }
    return Status::OK();
  }

  // Creates the global node for `scope_node` under `parent`, then
  // recurses via Graft.
  Status GraftSubtree(const XmlTree& scope_tree, NodeId scope_node,
                      const std::vector<int>& scope_to_global, XmlTree* global,
                      NodeId parent, const std::set<int>& contexts) {
    if (scope_tree.IsText(scope_node)) {
      global->AddText(parent, scope_tree.TextOf(scope_node));
      return Status::OK();
    }
    int global_type = scope_to_global[scope_tree.TypeOf(scope_node)];
    NodeId target = global->AddElement(parent, global_type);
    return Graft(scope_tree, scope_node, scope_to_global, global, target,
                 contexts);
  }

  CheckStats& stats() { return stats_; }

 private:
  Result<ConsistencyVerdict> SolveScope(int tau, const std::set<int>& contexts,
                                        bool build_witness,
                                        const std::string& value_prefix) {
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
      ASSIGN_OR_RETURN(bool consistent, ScopeConsistent(type, deeper));
      if (!consistent) forced_empty.push_back(map[type]);
    }
    trace::Count("hierarchical/scope_fanout", fanout);
    std::vector<int> path_types(contexts.begin(), contexts.end());
    ConstraintSet projected = geometry_.ProjectScopeConstraints(
        tau, path_types, map, &forced_empty);

    AbsoluteCheckOptions scope_options;
    scope_options.solver = options_.solver;
    scope_options.build_witness = build_witness;
    scope_options.verify_witness = build_witness && options_.verify_witness;
    scope_options.value_prefix = value_prefix;
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

  const Dtd& dtd_;
  const ConstraintSet& relative_;
  const RelativeGeometry& geometry_;
  const HierarchicalCheckOptions& options_;
  std::map<ScopeKey, bool> memo_;
  CheckStats stats_;
  int64_t instance_counter_ = 0;
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

  HierarchicalChecker checker(dtd, relative, geometry, options);
  std::set<int> root_contexts = {dtd.root()};
  ASSIGN_OR_RETURN(bool consistent,
                   checker.ScopeConsistent(dtd.root(), root_contexts));

  ConsistencyVerdict verdict;
  verdict.stats = checker.stats();
  if (!consistent) {
    verdict.outcome = ConsistencyOutcome::kInconsistent;
    return verdict;
  }
  verdict.outcome = ConsistencyOutcome::kConsistent;
  if (!options.build_witness) return verdict;

  TraceSpan witness_span("check/witness");
  ASSIGN_OR_RETURN(XmlTree root_scope,
                   checker.BuildScopeWitness(dtd.root(), root_contexts));
  XmlTree global(dtd.root());
  std::vector<int> scope_types = geometry.ScopeTypes(dtd.root());
  ASSIGN_OR_RETURN(Dtd root_scope_dtd, geometry.ScopeDtd(dtd.root()));
  std::vector<int> scope_to_global(root_scope_dtd.num_element_types());
  for (size_t i = 0; i < scope_types.size(); ++i) {
    scope_to_global[i] = scope_types[i];
  }
  RETURN_IF_ERROR(checker.Graft(root_scope, root_scope.root(), scope_to_global,
                                &global, global.root(), root_contexts));
  verdict.stats = checker.stats();
  if (options.verify_witness) {
    Status valid = CheckDocument(global, dtd, relative);
    if (!valid.ok()) {
      return Status::Internal(
          "stitched hierarchical witness fails dynamic validation: " +
          valid.message());
    }
  }
  verdict.witness = std::move(global);
  return verdict;
}

}  // namespace xmlverify
