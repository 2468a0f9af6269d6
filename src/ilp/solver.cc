#include "ilp/solver.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ilp/presolve.h"
#include "ilp/simplex.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

// A search node: the base program plus branching decisions, expressed
// as extra linear constraints.
struct SearchNode {
  std::vector<LinearConstraint> extra;
  // Conditionals whose antecedent has been branched to zero; the
  // remaining ones are re-checked against each integer candidate.
  std::vector<bool> conditional_decided;
  // Number of trailing `extra` rows added by this node's own branch —
  // the delta against the parent's tableau for dual-simplex warm
  // starts (0 at the root: no parent, cold solve).
  int delta = 0;
  // The parent's final LP tableau, shared between siblings. The first
  // sibling's re-solve copies it; the second one holds the last
  // reference by then and hands it to ResolveLp, which takes the
  // tableau instead of copying it.
  std::shared_ptr<SimplexWarmState> warm;
};

LinearConstraint VarBound(VarId var, Relation relation, BigInt bound,
                          std::string label) {
  LinearConstraint constraint;
  constraint.lhs.Add(var, BigInt(1));
  constraint.relation = relation;
  constraint.rhs = std::move(bound);
  constraint.label = std::move(label);
  return constraint;
}

// Approximate resident footprint of one search node, charged against
// the memory budget while the node sits on the branch stack. Sized by
// the actual limb storage of each extra constraint (a branch bound
// carrying a huge BigInt costs what it holds); the shared parent
// tableau is charged transiently by the LP layer during each solve
// and its retention is bounded by branch depth, not stack size.
int64_t ApproxNodeBytes(const SearchNode& node) {
  int64_t bytes = 64 + static_cast<int64_t>(node.conditional_decided.size());
  for (const LinearConstraint& constraint : node.extra) {
    bytes += ApproxConstraintBytes(constraint);
  }
  return bytes;
}

// Per-row gcd test: an equality sum a_i x_i = b with gcd(a_i) not
// dividing b has no integer solution at all.
bool GcdRefutes(const LinearConstraint& constraint) {
  if (constraint.relation != Relation::kEq) return false;
  if (constraint.lhs.terms().empty()) {
    return !constraint.rhs.is_zero();
  }
  BigInt gcd(0);
  for (const auto& [var, coeff] : constraint.lhs.terms()) {
    (void)var;
    gcd = BigInt::Gcd(gcd, coeff);
  }
  if (gcd.is_zero() || gcd == BigInt(1)) return false;
  return !(constraint.rhs % gcd).is_zero();
}

// Why the search stopped before the stack drained: a definitive leaf
// (an integral SAT candidate, or a presolve mapback mismatch deferring
// the decision to the legacy pipeline) or a non-verdict limit
// (deadline, node limit, memory, injected fault).
struct SearchStop {
  SolveOutcome outcome = SolveOutcome::kUnknown;
  std::string note = "";
  std::vector<BigInt> assignment = {};  // kSat only
  bool legacy_rerun = false;
};

// What one Solve call's search reads, plus its counters.
struct SearchContext {
  const IntegerProgram& program;
  const SolverOptions& options;
  const std::vector<LinearConstraint>& base;
  size_t uncapped_size;
  int search_vars;
  const std::optional<PresolveInfo>& presolve;
  SimplexOptions simplex_options;
  bool cap_active;

  int64_t nodes_explored = 0;
  int64_t lp_pivots = 0;
  bool cap_was_relevant = false;
};

// An aborted LP has no verdict: interpreting `feasible` would turn a
// timeout into a spurious prune (and so a false kUnsat).
std::optional<SearchStop> LpAbort(const SimplexResult& lp) {
  if (lp.deadline_exceeded) {
    trace::Count("solver/deadline_exceeded");
    return SearchStop{.outcome = SolveOutcome::kDeadlineExceeded,
                      .note = "deadline exceeded"};
  }
  if (lp.resource_exhausted) {
    trace::Count("solver/resource_exhausted");
    return SearchStop{.outcome = SolveOutcome::kResourceExhausted,
                      .note = lp.note};
  }
  return std::nullopt;
}

// Expands one node: LP relaxation, then prune / branch / leaf.
// Children are appended in push order — under LIFO popping the
// last-pushed child is explored first. Returns the stop when the node
// is a definitive leaf or a limit fired.
std::optional<SearchStop> ProcessNode(SearchContext& ctx, SearchNode&& node,
                                      std::vector<SearchNode>* children) {
  // Each node does a full LP solve, so an unamortized clock read per
  // node is already cheap; the LP layer polls internally for long
  // pivot chains.
  if (ctx.options.deadline.Expired()) {
    trace::Count("solver/deadline_exceeded");
    return SearchStop{.outcome = SolveOutcome::kDeadlineExceeded,
                      .note = "deadline exceeded"};
  }
  if (ctx.nodes_explored >= ctx.options.max_nodes) {
    return SearchStop{.outcome = SolveOutcome::kUnknown,
                      .note = "node limit reached"};
  }
  ++ctx.nodes_explored;
  trace::Count("solver/nodes");
  trace::Max("solver/max_branch_depth",
             static_cast<int64_t>(node.extra.size()));

  SimplexResult lp;
  if (ctx.options.warm_start && node.warm != nullptr && node.delta > 0) {
    lp = ResolveLp(std::move(node.warm), ctx.base, node.extra, node.delta,
                   ctx.search_vars, ctx.options.deadline, &ctx.options.budget,
                   ctx.simplex_options);
    if (lp.warm_used) trace::Count("solver/warm_starts");
    if (lp.warm_fallback) trace::Count("solver/warm_start_fallbacks");
  } else {
    std::vector<LinearConstraint> constraints = ctx.base;
    constraints.insert(constraints.end(), node.extra.begin(), node.extra.end());
    lp = SolveLp(ctx.search_vars, constraints, ctx.options.deadline,
                 &ctx.options.budget, ctx.simplex_options);
  }
  ctx.lp_pivots += lp.pivots;
  trace::Count("solver/lp_pivots", lp.pivots);
  if (std::optional<SearchStop> stop = LpAbort(lp)) return stop;
  if (!lp.feasible) {
    // Attribute the prune: if dropping the cap rows restores
    // feasibility, the cap mattered and an exhausted search cannot
    // claim unsatisfiability.
    if (ctx.cap_active && !ctx.cap_was_relevant) {
      std::vector<LinearConstraint> uncapped(
          ctx.base.begin(), ctx.base.begin() + ctx.uncapped_size);
      uncapped.insert(uncapped.end(), node.extra.begin(), node.extra.end());
      SimplexOptions probe_options = ctx.simplex_options;
      probe_options.export_warm_state = false;
      SimplexResult relaxed_lp =
          SolveLp(ctx.search_vars, uncapped, ctx.options.deadline,
                  &ctx.options.budget, probe_options);
      ctx.lp_pivots += relaxed_lp.pivots;
      trace::Count("solver/lp_pivots", relaxed_lp.pivots);
      trace::Count("solver/cap_relevance_probes");
      if (std::optional<SearchStop> stop = LpAbort(relaxed_lp)) return stop;
      if (relaxed_lp.feasible) ctx.cap_was_relevant = true;
    }
    return std::nullopt;
  }

  // Branch on the first fractional coordinate.
  int fractional = -1;
  for (int var = 0; var < ctx.search_vars; ++var) {
    if (!lp.solution[var].is_integer()) {
      fractional = var;
      break;
    }
  }
  if (fractional >= 0) {
    const Rational& value = lp.solution[fractional];
    // Child exploration-order convention (uniform across all three
    // branch kinds, locked by IlpSolverTest.*BranchExploresGrowthFirst):
    // the >= / growth child is explored first, because cardinality
    // encodings usually need populated extents, so rounding up tends
    // to reach SAT sooner. Under LIFO popping, first-explored means
    // pushed last.
    SearchNode low = node;
    low.extra.push_back(
        VarBound(fractional, Relation::kLe, value.Floor(), "branch<="));
    low.delta = 1;
    low.warm = lp.warm_state;
    SearchNode high = std::move(node);
    high.extra.push_back(
        VarBound(fractional, Relation::kGe, value.Ceil(), "branch>="));
    high.delta = 1;
    high.warm = lp.warm_state;
    children->push_back(std::move(low));
    children->push_back(std::move(high));
    return std::nullopt;
  }

  // Integral candidate, mapped back onto the original variables when
  // presolve reduced the space (identity when conditionals or
  // prequadratics kept the space intact, so the id-based checks
  // below stay valid either way).
  std::vector<BigInt> candidate(ctx.search_vars);
  for (int var = 0; var < ctx.search_vars; ++var) {
    candidate[var] = lp.solution[var].numerator();
  }
  if (ctx.presolve.has_value()) {
    candidate = ctx.presolve->MapSolution(candidate);
  }

  // Violated conditional? Split: either the antecedent is zero, or
  // it is >= 1 and the consequent becomes a hard constraint. The
  // active child is the growth child and is explored first.
  int violated_conditional = -1;
  for (size_t i = 0; i < ctx.program.conditionals().size(); ++i) {
    if (node.conditional_decided[i]) continue;
    const ConditionalConstraint& conditional = ctx.program.conditionals()[i];
    if (candidate[conditional.antecedent] >= BigInt(1) &&
        !conditional.consequent.IsSatisfied(candidate)) {
      violated_conditional = static_cast<int>(i);
      break;
    }
  }
  if (violated_conditional >= 0) {
    const ConditionalConstraint& conditional =
        ctx.program.conditionals()[violated_conditional];
    SearchNode zero = node;
    zero.conditional_decided[violated_conditional] = true;
    zero.extra.push_back(VarBound(conditional.antecedent, Relation::kLe,
                                  BigInt(0), "cond-zero"));
    zero.delta = 1;
    zero.warm = lp.warm_state;
    SearchNode active = std::move(node);
    active.conditional_decided[violated_conditional] = true;
    active.extra.push_back(VarBound(conditional.antecedent, Relation::kGe,
                                    BigInt(1), "cond-active"));
    active.extra.push_back(conditional.consequent);
    active.delta = 2;
    active.warm = lp.warm_state;
    children->push_back(std::move(zero));
    children->push_back(std::move(active));
    return std::nullopt;
  }

  // Violated prequadratic x <= y*z? Spatial branch on y at its
  // current value v: in the y<=v child the product is linearized as
  // x <= v*z; the y>=v+1 child makes progress on the lower bound and
  // — per the uniform convention above — is explored first. (The
  // prequadratic branch historically explored the <= child first,
  // the opposite of the fractional branch.)
  const PrequadraticConstraint* violated_pq = nullptr;
  for (const PrequadraticConstraint& pq : ctx.program.prequadratics()) {
    if (candidate[pq.x] > candidate[pq.y] * candidate[pq.z]) {
      violated_pq = &pq;
      break;
    }
  }
  if (violated_pq != nullptr) {
    const BigInt v = candidate[violated_pq->y];
    SearchNode low = node;
    low.extra.push_back(VarBound(violated_pq->y, Relation::kLe, v, "pq-y<=v"));
    {
      // x - v*z <= 0.
      LinearConstraint linearized;
      linearized.lhs.Add(violated_pq->x, BigInt(1));
      linearized.lhs.Add(violated_pq->z, -v);
      linearized.relation = Relation::kLe;
      linearized.rhs = BigInt(0);
      linearized.label = "pq-linearized";
      low.extra.push_back(std::move(linearized));
    }
    low.delta = 2;
    low.warm = lp.warm_state;
    SearchNode high = std::move(node);
    high.extra.push_back(
        VarBound(violated_pq->y, Relation::kGe, v + BigInt(1), "pq-y>v"));
    high.delta = 1;
    high.warm = lp.warm_state;
    children->push_back(std::move(low));
    children->push_back(std::move(high));
    return std::nullopt;
  }

  // All constraint classes satisfied by an integral point. When the
  // point went through the presolve back-map, re-check it against
  // the full original program: a mismatch would mean an unsound
  // reduction, and the legacy pipeline decides instead of us.
  if (ctx.presolve.has_value() && !ctx.program.IsSatisfied(candidate)) {
    trace::Count("solver/presolve_mapback_mismatch");
    return SearchStop{.outcome = SolveOutcome::kUnknown, .legacy_rerun = true};
  }
  return SearchStop{.outcome = SolveOutcome::kSat,
                    .assignment = std::move(candidate)};
}

// The pending-node stack. Each node is charged to the memory budget
// while it waits here; whatever is still charged when the stack goes
// away (SAT found, any limit) is released then, so a budget shared
// with a fallback stage, the legacy re-run included, is not drained.
class NodeStack {
 public:
  explicit NodeStack(const ResourceBudget& budget) : budget_(budget) {}
  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;
  ~NodeStack() { budget_.ReleaseMemory(charged_); }

  bool empty() const { return nodes_.empty(); }

  std::optional<SearchStop> Push(SearchNode&& node) {
    int64_t bytes = ApproxNodeBytes(node);
    Status status = budget_.ChargeMemory(bytes, "solver/node");
    if (!status.ok()) {
      trace::Count("solver/resource_exhausted");
      return SearchStop{.outcome = SolveOutcome::kResourceExhausted,
                        .note = std::string(status.message())};
    }
    charged_ += bytes;
    nodes_.push_back(std::move(node));
    return std::nullopt;
  }

  SearchNode Pop() {
    SearchNode node = std::move(nodes_.back());
    nodes_.pop_back();
    int64_t bytes = ApproxNodeBytes(node);
    budget_.ReleaseMemory(bytes);
    charged_ -= bytes;
    return node;
  }

 private:
  const ResourceBudget& budget_;
  std::vector<SearchNode> nodes_;
  int64_t charged_ = 0;
};

// Depth-first branch and bound from `root`: returns at the first
// definitive leaf in DFS preorder or the first limit, and nullopt once
// the stack drains (every branch refuted).
std::optional<SearchStop> Search(SearchContext& ctx, SearchNode&& root) {
  NodeStack stack(ctx.options.budget);
  std::optional<SearchStop> stop = stack.Push(std::move(root));
  std::vector<SearchNode> children;
  while (!stop.has_value() && !stack.empty()) {
    children.clear();
    stop = ProcessNode(ctx, stack.Pop(), &children);
    for (size_t i = 0; i < children.size() && !stop.has_value(); ++i) {
      stop = stack.Push(std::move(children[i]));
    }
  }
  return stop;
}

}  // namespace

SolveResult IlpSolver::Solve(const IntegerProgram& program) const {
  SolveResult result;

  // Honour exhausted budgets before doing any work (including
  // presolve): an expired deadline or a zero node budget must yield
  // the non-verdict outcome the caller asked for, not a refutation
  // computed on borrowed time.
  if (options_.deadline.Expired()) {
    trace::Count("solver/deadline_exceeded");
    result.outcome = SolveOutcome::kDeadlineExceeded;
    result.note = "deadline exceeded";
    return result;
  }
  if (options_.max_nodes <= 0) {
    result.outcome = SolveOutcome::kUnknown;
    result.note = "node limit reached";
    return result;
  }

  // Base constraint list shared by all nodes, either from the presolve
  // pass (reduced rows + tightened bound rows, possibly over a reduced
  // variable space) or assembled directly from the program (legacy
  // path). Cap rows are kept in a separate trailing block so
  // infeasibility can be attributed to them.
  std::optional<PresolveInfo> presolve;
  int search_vars = program.num_variables();
  std::vector<LinearConstraint> base;
  if (options_.use_presolve) {
    PresolveOptions presolve_options;
    // Conditionals and prequadratics reference variables by original
    // id outside the linear rows, so the space must stay intact.
    presolve_options.allow_variable_elimination =
        program.conditionals().empty() && program.prequadratics().empty();
    presolve = PresolveProgram(program, presolve_options);
    if (presolve->infeasible()) {
      result.outcome = SolveOutcome::kUnsat;
      result.note = presolve->infeasible_reason();
      return result;
    }
    base = presolve->rows();
    search_vars = presolve->reduced_num_vars();
  } else {
    base = program.linear();
    for (VarId var = 0; var < program.num_variables(); ++var) {
      const BigInt* bound = program.UpperBound(var);
      if (bound != nullptr) {
        base.push_back(VarBound(var, Relation::kLe, *bound, "ub"));
      }
    }
    // Per-row gcd test (the presolve pass subsumes this when enabled).
    for (const LinearConstraint& constraint : base) {
      if (GcdRefutes(constraint)) {
        trace::Count("solver/gcd_refutations");
        result.outcome = SolveOutcome::kUnsat;
        result.note = "gcd test refutes: " +
                      constraint.ToString(program.variable_names());
        return result;
      }
    }
  }
  SimplexOptions simplex_options;
  simplex_options.export_warm_state = options_.warm_start;
  const size_t uncapped_size = base.size();
  bool cap_active = options_.variable_cap.has_value();
  if (cap_active) {
    for (VarId var = 0; var < search_vars; ++var) {
      base.push_back(
          VarBound(var, Relation::kLe, *options_.variable_cap, "cap"));
    }
  }
  trace::Max("solver/max_branch_depth", 0);

  SearchContext ctx{program,       options_,    base,
                    uncapped_size, search_vars, presolve,
                    simplex_options, cap_active};
  SearchNode root;
  root.conditional_decided.assign(program.conditionals().size(), false);
  std::optional<SearchStop> stop = Search(ctx, std::move(root));

  result.nodes_explored = ctx.nodes_explored;
  result.lp_pivots = ctx.lp_pivots;
  if (stop.has_value() && stop->legacy_rerun) {
    // Presolve mapback mismatch on the first leaf: the reduction is
    // suspect, and the legacy pipeline decides instead of us.
    SolverOptions legacy = options_;
    legacy.use_presolve = false;
    return IlpSolver(legacy).Solve(program);
  }
  if (stop.has_value()) {
    result.outcome = stop->outcome;
    result.note = std::move(stop->note);
    result.assignment = std::move(stop->assignment);
    return result;
  }
  if (cap_active && ctx.cap_was_relevant) {
    result.outcome = SolveOutcome::kUnknown;
    result.note = "search exhausted under variable cap " +
                  options_.variable_cap->ToString();
  } else {
    result.outcome = SolveOutcome::kUnsat;
  }
  return result;
}

SolveResult IlpSolver::SolveWithDeepening(const IntegerProgram& program,
                                          const BigInt& initial_cap,
                                          const BigInt& max_cap) const {
  BigInt cap = initial_cap;
  SolveResult last;
  while (true) {
    trace::Count("solver/deepening_rounds");
    SolverOptions options = options_;
    options.variable_cap = cap;
    IlpSolver capped(options);
    last = capped.Solve(program);
    if (last.outcome == SolveOutcome::kSat ||
        last.outcome == SolveOutcome::kUnsat ||
        last.outcome == SolveOutcome::kDeadlineExceeded ||
        last.outcome == SolveOutcome::kResourceExhausted) {
      return last;
    }
    if (cap >= max_cap) return last;
    // Square the cap (doubly-exponential deepening) — but force
    // progress: 0 and 1 are fixed points of squaring, so a caller
    // starting at cap <= 1 would otherwise never reach max_cap.
    // Growth is clamped to at least double, and at minimum +1.
    BigInt next = cap * cap;
    BigInt doubled = cap + cap;
    if (next < doubled) next = doubled;
    if (next <= cap) next = cap + BigInt(1);
    cap = std::move(next);
    if (cap > max_cap) cap = max_cap;
  }
}

}  // namespace xmlverify
