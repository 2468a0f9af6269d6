#include "ilp/solver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ilp/presolve.h"
#include "ilp/simplex.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

// Parallel search only. A thief may expand nodes canonically after
// the winning leaf before that leaf is recorded. Such speculative
// work must not show in a kSat result's node count, which is the
// serial search's: the nodes canonically at or before the winner.
// Each node carries a record linked to its parent's. Expanding a node
// adds one to every ancestor's count for the child the node lies
// under, so at the end the winner's ancestor chain tells how many
// expanded nodes lie canonically after it. Records live as long as a
// pending or winning descendant does, so like the shared parent
// tableaus their retention is bounded by branch depth.
struct NodeRecord {
  NodeRecord() = default;
  NodeRecord(std::shared_ptr<NodeRecord> parent_in, uint32_t branch_in)
      : parent(std::move(parent_in)), branch(branch_in) {}

  std::shared_ptr<NodeRecord> parent;  // null at the root
  uint32_t branch = 0;                 // this node's last order entry
  std::atomic<int64_t> expanded_below[2] = {0, 0};
};

void CountExpansion(const NodeRecord& record) {
  for (const NodeRecord* r = &record; r->parent != nullptr;
       r = r->parent.get()) {
    r->parent->expanded_below[r->branch].fetch_add(
        1, std::memory_order_relaxed);
  }
}

// Expanded nodes canonically after `leaf`: those under a second child
// of an ancestor whose first child leads to the leaf.
int64_t ExpandedAfter(const NodeRecord& leaf) {
  int64_t count = 0;
  for (const NodeRecord* r = &leaf; r->parent != nullptr;
       r = r->parent.get()) {
    if (r->branch == 0) {
      count += r->parent->expanded_below[1].load(std::memory_order_relaxed);
    }
  }
  return count;
}

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
  // Canonical exploration-order key: the branch path from the root,
  // one entry per level (0 = the child the serial search explores
  // first, 1 = second). Lexicographic order on these keys is exactly
  // serial DFS preorder, which is the order the parallel search's
  // first-definitive-leaf rule is defined over.
  std::vector<uint32_t> order;
  // The parent's final LP tableau (sparse engine only), shared between
  // siblings — and across threads; SimplexWarmState is immutable.
  std::shared_ptr<const SimplexWarmState> warm;
  // This node's record (parallel search only; null when serial).
  std::shared_ptr<NodeRecord> record;
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
// the memory budget while the node sits in the branch pool. Sized by
// the actual limb storage of each extra constraint (a branch bound
// carrying a huge BigInt costs what it holds); the shared parent
// tableau is charged transiently by the LP layer during each solve
// and its retention is bounded by branch depth, not pool size.
int64_t ApproxNodeBytes(const SearchNode& node) {
  int64_t bytes = 64 + static_cast<int64_t>(node.conditional_decided.size()) +
                  static_cast<int64_t>(node.order.size() * sizeof(uint32_t));
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

// A definitive leaf outcome: an integral SAT candidate, or a presolve
// mapback mismatch deferring the decision to the legacy pipeline.
// Tagged with the leaf's canonical order key; only the canonically
// first event survives, which is exactly the leaf serial DFS would
// have returned first.
struct LeafEvent {
  std::vector<uint32_t> order;
  bool legacy_rerun = false;
  std::vector<BigInt> assignment;  // SAT only
  std::shared_ptr<NodeRecord> record;  // parallel search only
};

// A non-verdict stop: deadline, node limit, memory, injected fault.
struct AbortState {
  SolveOutcome outcome;
  std::string note;
};

// State shared by every worker of one Solve call. Counters are
// atomics; the result slots are guarded by result_mu.
struct SearchContext {
  SearchContext(const IntegerProgram& program_in,
                const SolverOptions& options_in,
                const std::vector<LinearConstraint>& base_in,
                size_t uncapped_size_in, int search_vars_in,
                const std::optional<PresolveInfo>& presolve_in,
                const SimplexOptions& simplex_options_in, bool cap_active_in,
                bool warm_enabled_in)
      : program(program_in),
        options(options_in),
        base(base_in),
        uncapped_size(uncapped_size_in),
        search_vars(search_vars_in),
        presolve(presolve_in),
        simplex_options(simplex_options_in),
        cap_active(cap_active_in),
        warm_enabled(warm_enabled_in) {}

  const IntegerProgram& program;
  const SolverOptions& options;
  const std::vector<LinearConstraint>& base;
  size_t uncapped_size;
  int search_vars;
  const std::optional<PresolveInfo>& presolve;
  SimplexOptions simplex_options;
  bool cap_active;
  bool warm_enabled;

  std::atomic<int64_t> nodes_explored{0};
  std::atomic<int64_t> lp_pivots{0};
  std::atomic<bool> cap_was_relevant{false};
  // Node bytes currently charged to the budget; whatever is still
  // resident when Solve returns (SAT found, any limit) is released in
  // one step so a budget shared with a fallback stage is not drained.
  std::atomic<int64_t> stack_bytes{0};
  // Raised only on abort: workers stop claiming nodes. A recorded
  // leaf event does NOT stop the search — canonically earlier nodes
  // must still be explored; the discard rule drains the rest.
  std::atomic<bool> stop{false};
  std::atomic<bool> has_event{false};

  std::mutex result_mu;
  std::optional<LeafEvent> event;
  std::optional<AbortState> abort;
};

// Keeps the canonically-first event (smallest order key).
void RecordEvent(SearchContext& ctx, LeafEvent&& event) {
  std::lock_guard<std::mutex> lock(ctx.result_mu);
  if (!ctx.event.has_value() || event.order < ctx.event->order) {
    ctx.event = std::move(event);
  }
  ctx.has_event.store(true, std::memory_order_release);
}

// Records the first abort and raises the stop flag. Returns false so
// callers can `return RecordAbort(...)` from bool-returning paths.
bool RecordAbort(SearchContext& ctx, SolveOutcome outcome, std::string note) {
  {
    std::lock_guard<std::mutex> lock(ctx.result_mu);
    if (!ctx.abort.has_value()) {
      ctx.abort = AbortState{outcome, std::move(note)};
    }
  }
  ctx.stop.store(true, std::memory_order_release);
  return false;
}

// A node canonically after the recorded event cannot improve on it:
// its whole subtree would come later in serial DFS preorder too.
bool ShouldDiscard(SearchContext& ctx, const SearchNode& node) {
  if (!ctx.has_event.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(ctx.result_mu);
  return ctx.event.has_value() && node.order > ctx.event->order;
}

// Expands one claimed node: LP relaxation, then prune / branch /
// leaf. Children are appended in push order — under LIFO popping the
// last-pushed child is explored first. Returns false when the search
// must stop (an abort was recorded).
bool ProcessNode(SearchContext& ctx, SearchNode&& node,
                 std::vector<SearchNode>* children) {
  // Each node does a full LP solve, so an unamortized clock read per
  // node is already cheap; the LP layer polls internally for long
  // pivot chains.
  if (ctx.options.deadline.Expired()) {
    trace::Count("solver/deadline_exceeded");
    return RecordAbort(ctx, SolveOutcome::kDeadlineExceeded,
                       "deadline exceeded");
  }
  int64_t prior = ctx.nodes_explored.fetch_add(1, std::memory_order_relaxed);
  if (prior >= ctx.options.max_nodes) {
    // Un-count the node we did not actually process.
    ctx.nodes_explored.fetch_sub(1, std::memory_order_relaxed);
    return RecordAbort(ctx, SolveOutcome::kUnknown, "node limit reached");
  }
  trace::Count("solver/nodes");
  if (node.record != nullptr) CountExpansion(*node.record);
  trace::Max("solver/max_branch_depth",
             static_cast<int64_t>(node.extra.size()));

  SimplexResult lp;
  if (ctx.warm_enabled && node.warm != nullptr && node.delta > 0) {
    lp = ResolveLp(node.warm, ctx.base, node.extra, node.delta,
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
  ctx.lp_pivots.fetch_add(lp.pivots, std::memory_order_relaxed);
  trace::Count("solver/lp_pivots", lp.pivots);
  // An aborted LP has no verdict: interpreting `feasible` here would
  // turn a timeout into a spurious prune (and so a false kUnsat).
  if (lp.deadline_exceeded) {
    trace::Count("solver/deadline_exceeded");
    return RecordAbort(ctx, SolveOutcome::kDeadlineExceeded,
                       "deadline exceeded");
  }
  if (lp.resource_exhausted) {
    trace::Count("solver/resource_exhausted");
    return RecordAbort(ctx, SolveOutcome::kResourceExhausted, lp.note);
  }
  if (!lp.feasible) {
    // Attribute the prune: if dropping the cap rows restores
    // feasibility, the cap mattered and an exhausted search cannot
    // claim unsatisfiability. The flag only ever goes false -> true,
    // and kUnsat requires a full drain, so every schedule converges
    // to the same final value.
    if (ctx.cap_active && !ctx.cap_was_relevant.load(std::memory_order_relaxed)) {
      std::vector<LinearConstraint> uncapped(
          ctx.base.begin(), ctx.base.begin() + ctx.uncapped_size);
      uncapped.insert(uncapped.end(), node.extra.begin(), node.extra.end());
      SimplexOptions probe_options = ctx.simplex_options;
      probe_options.export_warm_state = false;
      SimplexResult relaxed_lp =
          SolveLp(ctx.search_vars, uncapped, ctx.options.deadline,
                  &ctx.options.budget, probe_options);
      ctx.lp_pivots.fetch_add(relaxed_lp.pivots, std::memory_order_relaxed);
      trace::Count("solver/lp_pivots", relaxed_lp.pivots);
      trace::Count("solver/cap_relevance_probes");
      if (relaxed_lp.deadline_exceeded) {
        trace::Count("solver/deadline_exceeded");
        return RecordAbort(ctx, SolveOutcome::kDeadlineExceeded,
                           "deadline exceeded");
      }
      if (relaxed_lp.resource_exhausted) {
        trace::Count("solver/resource_exhausted");
        return RecordAbort(ctx, SolveOutcome::kResourceExhausted,
                           relaxed_lp.note);
      }
      if (relaxed_lp.feasible) {
        ctx.cap_was_relevant.store(true, std::memory_order_relaxed);
      }
    }
    return true;
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
    // branch kinds, locked by SolverParallelTest.NodeOrderConvention):
    // the >= / growth child is explored first — order bit 0 —
    // because cardinality encodings usually need populated extents,
    // so rounding up tends to reach SAT sooner. Under LIFO popping,
    // first-explored means pushed last.
    SearchNode low = node;
    low.extra.push_back(
        VarBound(fractional, Relation::kLe, value.Floor(), "branch<="));
    low.delta = 1;
    low.order.push_back(1);
    low.warm = lp.warm_state;
    SearchNode high = std::move(node);
    high.extra.push_back(
        VarBound(fractional, Relation::kGe, value.Ceil(), "branch>="));
    high.delta = 1;
    high.order.push_back(0);
    high.warm = lp.warm_state;
    children->push_back(std::move(low));
    children->push_back(std::move(high));
    return true;
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
    zero.order.push_back(1);
    zero.warm = lp.warm_state;
    SearchNode active = std::move(node);
    active.conditional_decided[violated_conditional] = true;
    active.extra.push_back(VarBound(conditional.antecedent, Relation::kGe,
                                    BigInt(1), "cond-active"));
    active.extra.push_back(conditional.consequent);
    active.delta = 2;
    active.order.push_back(0);
    active.warm = lp.warm_state;
    children->push_back(std::move(zero));
    children->push_back(std::move(active));
    return true;
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
    low.order.push_back(1);
    low.warm = lp.warm_state;
    SearchNode high = std::move(node);
    high.extra.push_back(
        VarBound(violated_pq->y, Relation::kGe, v + BigInt(1), "pq-y>v"));
    high.delta = 1;
    high.order.push_back(0);
    high.warm = lp.warm_state;
    children->push_back(std::move(low));
    children->push_back(std::move(high));
    return true;
  }

  // All constraint classes satisfied by an integral point. When the
  // point went through the presolve back-map, re-check it against
  // the full original program: a mismatch would mean an unsound
  // reduction, and the legacy pipeline decides instead of us.
  if (ctx.presolve.has_value() && !ctx.program.IsSatisfied(candidate)) {
    trace::Count("solver/presolve_mapback_mismatch");
    RecordEvent(ctx, LeafEvent{std::move(node.order), true, {},
                               std::move(node.record)});
    return true;
  }
  RecordEvent(ctx, LeafEvent{std::move(node.order), false,
                             std::move(candidate), std::move(node.record)});
  return true;
}

// Charges a node to the budget; on failure records the abort.
bool ChargeNode(SearchContext& ctx, const SearchNode& node) {
  int64_t bytes = ApproxNodeBytes(node);
  Status status = ctx.options.budget.ChargeMemory(bytes, "solver/node");
  if (!status.ok()) {
    trace::Count("solver/resource_exhausted");
    RecordAbort(ctx, SolveOutcome::kResourceExhausted,
                std::string(status.message()));
    return false;
  }
  ctx.stack_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

void ReleaseNode(SearchContext& ctx, const SearchNode& node) {
  int64_t bytes = ApproxNodeBytes(node);
  ctx.options.budget.ReleaseMemory(bytes);
  ctx.stack_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Serial driver: jobs == 1. One LIFO stack, identical exploration
// order to the historical loop. The discard rule doubles as the
// early-return on SAT: in DFS preorder every pending node is
// canonically after a recorded leaf, so the stack drains without
// further LP work.
void RunSerial(SearchContext& ctx, SearchNode&& root) {
  std::vector<SearchNode> stack;
  if (!ChargeNode(ctx, root)) return;
  stack.push_back(std::move(root));
  std::vector<SearchNode> children;
  while (!stack.empty()) {
    SearchNode node = std::move(stack.back());
    stack.pop_back();
    ReleaseNode(ctx, node);
    if (ShouldDiscard(ctx, node)) {
      trace::Count("solver/nodes_discarded");
      continue;
    }
    children.clear();
    if (!ProcessNode(ctx, std::move(node), &children)) return;
    for (SearchNode& child : children) {
      if (!ChargeNode(ctx, child)) return;
      stack.push_back(std::move(child));
    }
  }
}

// ---------------------------------------------------------------------
// Parallel driver: a work-stealing node pool. Each worker owns a
// deque (own end popped LIFO, so a worker alone explores in serial
// DFS order); idle workers steal from the front of a victim's deque,
// taking the shallowest — largest — pending subtree. `pending` counts
// nodes that are queued or being expanded; the search is drained when
// it reaches zero.

struct WorkerQueue {
  std::mutex mu;
  std::deque<SearchNode> nodes;
};

struct WorkPool {
  explicit WorkPool(int jobs) : queues(jobs) {}
  std::vector<WorkerQueue> queues;
  std::atomic<int64_t> pending{0};
  std::mutex wake_mu;
  std::condition_variable wake_cv;
};

bool PushNode(SearchContext& ctx, WorkPool& pool, int target,
              SearchNode&& node) {
  if (!ChargeNode(ctx, node)) return false;
  pool.pending.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(pool.queues[target].mu);
    pool.queues[target].nodes.push_back(std::move(node));
  }
  pool.wake_cv.notify_one();
  return true;
}

std::optional<SearchNode> ClaimNode(WorkPool& pool, int self,
                                    uint64_t* rotation) {
  {
    WorkerQueue& own = pool.queues[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.nodes.empty()) {
      SearchNode node = std::move(own.nodes.back());
      own.nodes.pop_back();
      return node;
    }
  }
  int n = static_cast<int>(pool.queues.size());
  if (n > 1) {
    // Seeded rotation spreads victim choice across workers; purely a
    // scheduling heuristic — results never depend on who steals what.
    *rotation = *rotation * 6364136223846793005ull + 1442695040888963407ull;
    int start = static_cast<int>(*rotation % static_cast<uint64_t>(n));
    for (int k = 0; k < n; ++k) {
      int victim = (start + k) % n;
      if (victim == self) continue;
      WorkerQueue& queue = pool.queues[victim];
      std::lock_guard<std::mutex> lock(queue.mu);
      if (!queue.nodes.empty()) {
        SearchNode node = std::move(queue.nodes.front());
        queue.nodes.pop_front();
        trace::Count("solver/steals");
        return node;
      }
    }
  }
  return std::nullopt;
}

void WorkerLoop(SearchContext& ctx, WorkPool& pool, int self,
                StatsRegistry* registry) {
  // Join the parent's stats registry (thread-safe); sinks stay with
  // the owning thread.
  std::optional<TraceSession> session;
  if (registry != nullptr) session.emplace(registry);
  uint64_t rotation = (ctx.options.seed ^ 0x9E3779B97F4A7C15ull) +
                      0x632BE59BD9B4E019ull * static_cast<uint64_t>(self + 1);
  std::vector<SearchNode> children;
  bool counted_idle = false;
  while (!ctx.stop.load(std::memory_order_acquire)) {
    std::optional<SearchNode> node = ClaimNode(pool, self, &rotation);
    if (!node.has_value()) {
      if (pool.pending.load(std::memory_order_acquire) == 0) break;
      if (!counted_idle) {
        trace::Count("solver/workers_idle");
        counted_idle = true;
      }
      // Timed wait instead of a strict notify protocol: spurious and
      // missed wakeups both resolve within the timeout, so drained /
      // stopped states are always observed.
      std::unique_lock<std::mutex> lock(pool.wake_mu);
      pool.wake_cv.wait_for(lock, std::chrono::microseconds(200));
      continue;
    }
    counted_idle = false;
    ReleaseNode(ctx, *node);
    bool ok = true;
    if (ShouldDiscard(ctx, *node)) {
      trace::Count("solver/nodes_discarded");
    } else {
      children.clear();
      std::shared_ptr<NodeRecord> record = node->record;
      ok = ProcessNode(ctx, std::move(*node), &children);
      if (ok) {
        for (SearchNode& child : children) {
          child.record =
              std::make_shared<NodeRecord>(record, child.order.back());
          if (!PushNode(ctx, pool, self, std::move(child))) {
            ok = false;
            break;
          }
        }
      }
    }
    pool.pending.fetch_sub(1, std::memory_order_acq_rel);
    if (!ok) break;  // abort recorded; stop flag is up
    if (pool.pending.load(std::memory_order_acquire) == 0) break;
  }
  pool.wake_cv.notify_all();
}

void RunParallel(SearchContext& ctx, SearchNode&& root, int jobs) {
  WorkPool pool(jobs);
  root.record = std::make_shared<NodeRecord>();
  if (!PushNode(ctx, pool, 0, std::move(root))) return;
  StatsRegistry* registry = trace::ActiveRegistry();
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (int worker = 0; worker < jobs; ++worker) {
    workers.emplace_back([&ctx, &pool, worker, registry] {
      WorkerLoop(ctx, pool, worker, registry);
    });
  }
  for (std::thread& thread : workers) thread.join();
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
  simplex_options.sparse = options_.use_sparse_simplex;
  const bool warm_enabled =
      options_.warm_start && options_.use_sparse_simplex;
  simplex_options.export_warm_state = warm_enabled;
  const size_t uncapped_size = base.size();
  bool cap_active = options_.variable_cap.has_value();
  if (cap_active) {
    for (VarId var = 0; var < search_vars; ++var) {
      base.push_back(
          VarBound(var, Relation::kLe, *options_.variable_cap, "cap"));
    }
  }
  trace::Max("solver/max_branch_depth", 0);

  SearchContext ctx{program,     options_,        base,
                    uncapped_size, search_vars,   presolve,
                    simplex_options, cap_active,  warm_enabled};
  // Whatever is still charged when we return (SAT found, any limit)
  // is released here so a budget shared with a fallback stage is not
  // permanently drained.
  struct StackRelease {
    SearchContext& ctx;
    ~StackRelease() {
      ctx.options.budget.ReleaseMemory(
          ctx.stack_bytes.load(std::memory_order_relaxed));
    }
  } stack_release{ctx};

  SearchNode root;
  root.conditional_decided.assign(program.conditionals().size(), false);
  const int jobs = std::clamp(options_.jobs, 1, 64);
  if (jobs <= 1) {
    RunSerial(ctx, std::move(root));
  } else {
    RunParallel(ctx, std::move(root), jobs);
  }

  result.nodes_explored = ctx.nodes_explored.load(std::memory_order_relaxed);
  result.lp_pivots = ctx.lp_pivots.load(std::memory_order_relaxed);
  // A SAT leaf outranks a concurrent abort: the witness is valid
  // regardless of which limit fired on another subtree. (With one
  // worker the two are mutually exclusive, as before.)
  if (ctx.event.has_value() && !ctx.event->legacy_rerun) {
    result.outcome = SolveOutcome::kSat;
    if (ctx.event->record != nullptr) {
      result.nodes_explored -= ExpandedAfter(*ctx.event->record);
    }
    result.assignment = std::move(ctx.event->assignment);
    return result;
  }
  if (ctx.abort.has_value()) {
    result.outcome = ctx.abort->outcome;
    result.note = std::move(ctx.abort->note);
    return result;
  }
  if (ctx.event.has_value()) {
    // Presolve mapback mismatch on the canonical leaf: the reduction
    // is suspect, and the legacy pipeline decides instead of us.
    SolverOptions legacy = options_;
    legacy.use_presolve = false;
    return IlpSolver(legacy).Solve(program);
  }
  if (cap_active && ctx.cap_was_relevant.load(std::memory_order_relaxed)) {
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
