#include "encoding/regular_encoder.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "base/string_util.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

std::vector<int> NonRootTypes(const Dtd& dtd) {
  std::vector<int> symbols;
  for (int type = 0; type < dtd.num_element_types(); ++type) {
    if (type != dtd.root()) symbols.push_back(type);
  }
  return symbols;
}

Dfa PathDfa(const Regex& path, const Dtd& dtd) {
  Regex expanded = ExpandWildcard(path, NonRootTypes(dtd));
  return CachedDeterminize(expanded, dtd.num_element_types());
}

// DFA of the realizable root paths of the DTD: words r.t2...tn where
// each step follows a parent-child edge of the DTD graph.
Dfa DtdPathDfa(const Dtd& dtd) {
  // Build as an NFA-shaped regex-free construction: states = a start
  // state, one state per type, one dead state. Encode directly via
  // Nfa (no epsilon moves) and determinize (it is already
  // deterministic, but Determinize also completes it).
  Nfa nfa;
  nfa.alphabet_size = dtd.num_element_types();
  const int num_types = dtd.num_element_types();
  nfa.states.resize(num_types + 2);  // types, start, accept-sink
  const int start = num_types;
  nfa.start = start;
  // The single-accept Thompson shape does not fit "accept everywhere",
  // so add an epsilon-reachable accept state from every type state.
  const int accept = num_types + 1;
  nfa.accept = accept;
  nfa.states[start].moves[dtd.root()].push_back(dtd.root());
  for (int type = 0; type < num_types; ++type) {
    for (int child : dtd.ChildTypes(type)) {
      nfa.states[type].moves[child].push_back(child);
    }
    nfa.states[type].epsilon_moves.push_back(accept);
  }
  return Dfa::Determinize(nfa);
}

// True if some word is accepted by every DFA in `accept_all` and
// rejected by every DFA in `reject_all` (all complete, same
// alphabet). BFS over the product.
bool JointlyRealizable(const std::vector<const Dfa*>& accept_all,
                       const std::vector<const Dfa*>& reject_all) {
  std::vector<const Dfa*> all = accept_all;
  all.insert(all.end(), reject_all.begin(), reject_all.end());
  if (all.empty()) return true;
  const int alphabet = all[0]->alphabet_size();
  std::set<std::vector<int>> seen;
  std::deque<std::vector<int>> frontier;
  std::vector<int> start(all.size());
  for (size_t i = 0; i < all.size(); ++i) start[i] = all[i]->start();
  seen.insert(start);
  frontier.push_back(std::move(start));
  while (!frontier.empty()) {
    std::vector<int> state = std::move(frontier.front());
    frontier.pop_front();
    bool good = true;
    for (size_t i = 0; i < accept_all.size(); ++i) {
      if (!accept_all[i]->IsAccepting(state[i])) {
        good = false;
        break;
      }
    }
    if (good) {
      for (size_t i = 0; i < reject_all.size(); ++i) {
        if (reject_all[i]->IsAccepting(state[accept_all.size() + i])) {
          good = false;
          break;
        }
      }
    }
    if (good) return true;
    for (int symbol = 0; symbol < alphabet; ++symbol) {
      std::vector<int> next(all.size());
      for (size_t i = 0; i < all.size(); ++i) {
        next[i] = all[i]->Next(state[i], symbol);
      }
      if (seen.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  return false;
}

// Union-find for the shared-node components of a cell trace.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Result<ConstraintSet> AbsoluteAsRegular(const ConstraintSet& constraints,
                                        const Dtd& dtd) {
  if (constraints.HasRelative()) {
    return Status::InvalidArgument(
        "relative constraints cannot be expressed as regular constraints");
  }
  ConstraintSet result;
  auto path_of = [&dtd](int type) {
    // r._*.tau ; for the root itself, just r.
    if (type == dtd.root()) return Regex::Symbol(type);
    return Regex::Concat(
        Regex::Concat(Regex::Symbol(dtd.root()),
                      Regex::Star(Regex::Wildcard())),
        Regex::Symbol(type));
  };
  for (const AbsoluteKey& key : constraints.absolute_keys()) {
    if (!key.IsUnary()) {
      return Status::Unsupported(
          "multi-attribute keys have no unary regular form "
          "(AC^{reg} is unary by definition)");
    }
    result.Add(RegularKey{path_of(key.type), key.type, key.attributes[0]});
  }
  for (const AbsoluteInclusion& inclusion : constraints.absolute_inclusions()) {
    if (!inclusion.IsUnary()) {
      return Status::Unsupported(
          "multi-attribute inclusions have no unary regular form");
    }
    result.Add(RegularInclusion{
        path_of(inclusion.child_type), inclusion.child_type,
        inclusion.child_attributes[0], path_of(inclusion.parent_type),
        inclusion.parent_type, inclusion.parent_attributes[0]});
  }
  for (const RegularKey& key : constraints.regular_keys()) result.Add(key);
  for (const RegularInclusion& inclusion : constraints.regular_inclusions()) {
    result.Add(inclusion);
  }
  return result;
}

int RegularEncoder::InternExpression(Regex path, int type,
                                     const std::string& attribute,
                                     const Dtd& dtd) {
  Dfa dfa = PathDfa(path, dtd);
  for (size_t i = 0; i < expressions_.size(); ++i) {
    const Expression& existing = expressions_[i];
    if (existing.type != type || existing.attribute != attribute) continue;
    if (existing.dfa.ContainedIn(dfa) && dfa.ContainedIn(existing.dfa)) {
      return static_cast<int>(i);
    }
  }
  Expression expression;
  expression.node_path = std::move(path);
  expression.type = type;
  expression.attribute = attribute;
  expression.dfa = std::move(dfa);
  expressions_.push_back(std::move(expression));
  return static_cast<int>(expressions_.size()) - 1;
}

Result<std::unique_ptr<RegularEncoder>> RegularEncoder::Build(
    const Dtd& dtd, const ConstraintSet& constraints, IntegerProgram* program,
    const RegularEncoderOptions& options, const RegularNegation* negation) {
  if (constraints.HasAbsolute() || constraints.HasRelative()) {
    return Status::InvalidArgument(
        "RegularEncoder expects purely regular constraints; use "
        "AbsoluteAsRegular to fold absolute constraints in");
  }
  const int variables_before = program->num_variables();
  const size_t linear_before = program->linear().size();
  const size_t conditionals_before = program->conditionals().size();
  auto encoder = std::unique_ptr<RegularEncoder>(new RegularEncoder());
  encoder->dtd_ = &dtd;

  // Intern all expressions; remember which constraint uses which.
  struct KeyRef { int expression; };
  struct InclusionRef { int child; int parent; };
  std::vector<KeyRef> keys;
  std::vector<InclusionRef> inclusions;
  for (const RegularKey& key : constraints.regular_keys()) {
    int expression =
        encoder->InternExpression(key.node_path, key.type, key.attribute, dtd);
    encoder->expressions_[expression].is_key = true;
    keys.push_back({expression});
  }
  for (const RegularInclusion& inclusion : constraints.regular_inclusions()) {
    int child = encoder->InternExpression(
        inclusion.child_path, inclusion.child_type, inclusion.child_attribute,
        dtd);
    int parent = encoder->InternExpression(inclusion.parent_path,
                                           inclusion.parent_type,
                                           inclusion.parent_attribute, dtd);
    inclusions.push_back({child, parent});
  }
  // Expressions of the negated constraint are interned but do NOT
  // assert their key/inclusion semantics.
  int negated_key_expr = -1;
  int negated_incl_child = -1;
  int negated_incl_parent = -1;
  if (negation != nullptr && negation->key.has_value()) {
    negated_key_expr = encoder->InternExpression(
        negation->key->node_path, negation->key->type,
        negation->key->attribute, dtd);
  }
  if (negation != nullptr && negation->inclusion.has_value()) {
    negated_incl_child = encoder->InternExpression(
        negation->inclusion->child_path, negation->inclusion->child_type,
        negation->inclusion->child_attribute, dtd);
    negated_incl_parent = encoder->InternExpression(
        negation->inclusion->parent_path, negation->inclusion->parent_type,
        negation->inclusion->parent_attribute, dtd);
  }
  const int k = encoder->num_expressions();
  if (k > options.max_expressions) {
    return Status::ResourceExhausted(
        "specification uses " + std::to_string(k) +
        " distinct path expressions; the z_theta block (2^k) exceeds the "
        "configured limit of 2^" + std::to_string(options.max_expressions));
  }

  // State-tagged flow system over the product automaton.
  std::vector<Dfa> components;
  components.reserve(k);
  for (const Expression& expression : encoder->expressions_) {
    components.push_back(expression.dfa);
  }
  ProductDfa product(std::move(components));
  ASSIGN_OR_RETURN(
      encoder->flow_,
      DtdFlowSystem::Build(dtd, k > 0 ? &product : nullptr, program));

  // |nodes_D(beta_i.tau_i)| = sum of y(tau_i, s) over accepting s.
  for (int i = 0; i < k; ++i) {
    Expression& expression = encoder->expressions_[i];
    expression.nodes_var =
        program->NewVariable("nodes(" + std::to_string(i) + ")");
    LinearExpr sum;
    sum.Add(expression.nodes_var, BigInt(1));
    for (const auto& [state, count] :
         encoder->flow_.StatesOf(expression.type)) {
      if (product.Accepts(state, i)) sum.Add(count, BigInt(-1));
    }
    program->AddLinear(std::move(sum), Relation::kEq, BigInt(0),
                       "nodes-sum:" + std::to_string(i));
  }

  // z_theta cells.
  const size_t num_masks = (size_t{1} << k);
  encoder->cell_vars_.reserve(num_masks - 1);
  for (size_t mask = 1; mask < num_masks; ++mask) {
    encoder->cell_vars_.push_back(
        program->NewVariable(StrCat("z", std::to_string(mask))));
  }
  auto cell = [&encoder](size_t mask) { return encoder->cell_vars_[mask - 1]; };

  // |values_i| = sum_{theta(i)=1} z_theta ; bounds against nodes.
  for (int i = 0; i < k; ++i) {
    Expression& expression = encoder->expressions_[i];
    expression.values_var =
        program->NewVariable("values(" + std::to_string(i) + ")");
    LinearExpr sum;
    sum.Add(expression.values_var, BigInt(1));
    for (size_t mask = 1; mask < num_masks; ++mask) {
      if (mask & (size_t{1} << i)) sum.Add(cell(mask), BigInt(-1));
    }
    program->AddLinear(std::move(sum), Relation::kEq, BigInt(0), "values-sum");
    // |values| <= |nodes|.
    LinearExpr bound;
    bound.Add(expression.values_var, BigInt(1));
    bound.Add(expression.nodes_var, BigInt(-1));
    program->AddLinear(std::move(bound), Relation::kLe, BigInt(0),
                       "values<=nodes");
    // (|nodes| > 0) -> (|values| > 0): attributes are mandatory.
    LinearExpr positive;
    positive.Add(expression.values_var, BigInt(1));
    program->AddConditional(expression.nodes_var, std::move(positive),
                            Relation::kGe, BigInt(1), "values-populated");
    // Keys: |values| = |nodes|.
    if (expression.is_key) {
      LinearExpr equal;
      equal.Add(expression.values_var, BigInt(1));
      equal.Add(expression.nodes_var, BigInt(-1));
      program->AddLinear(std::move(equal), Relation::kEq, BigInt(0),
                         "key-values=nodes");
    }
  }

  // Zero cells from explicit inclusions and from language containment
  // with matching tau.l.
  std::set<std::pair<int, int>> subset_pairs;  // (i, j): values_i <= values_j
  for (const InclusionRef& inclusion : inclusions) {
    subset_pairs.emplace(inclusion.child, inclusion.parent);
  }
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      if (i == j) continue;
      const Expression& a = encoder->expressions_[i];
      const Expression& b = encoder->expressions_[j];
      if (a.type == b.type && a.attribute == b.attribute &&
          a.dfa.ContainedIn(b.dfa)) {
        subset_pairs.emplace(i, j);
      }
    }
  }
  for (const auto& [i, j] : subset_pairs) {
    for (size_t mask = 1; mask < num_masks; ++mask) {
      if ((mask & (size_t{1} << i)) && !(mask & (size_t{1} << j))) {
        program->SetUpperBound(cell(mask), BigInt(0));
      }
    }
  }

  // Realizability zero cells. A pool value of cell theta must be
  // placed on concrete nodes: within one (tau, l) group G, every
  // expression i with theta(i)=1 needs a node on a realizable DTD
  // path in L_i avoiding L_j for every j in G with theta(j)=0; and
  // expressions lying under a common KEY expression of the cell must
  // share a single node, so their path languages must jointly
  // intersect. Cells with no such placement are zero. (This is where
  // the school example's "professors cannot be students" interaction
  // is caught: prof-record ids and student-record ids live under the
  // common key on all records, with disjoint path languages.)
  if (options.realizability_cells) {
    Dfa dtd_paths = DtdPathDfa(dtd);
    // Same-(tau,l) language containments.
    std::vector<std::vector<bool>> contained(k, std::vector<bool>(k, false));
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        const Expression& a = encoder->expressions_[i];
        const Expression& b = encoder->expressions_[j];
        contained[i][j] = i != j && a.type == b.type &&
                          a.attribute == b.attribute &&
                          a.dfa.ContainedIn(b.dfa);
      }
    }
    // Group expressions by (tau, l).
    std::map<std::pair<int, std::string>, std::vector<int>> groups;
    for (int i = 0; i < k; ++i) {
      groups[{encoder->expressions_[i].type,
              encoder->expressions_[i].attribute}]
          .push_back(i);
    }
    for (const auto& [tau_l, group] : groups) {
      (void)tau_l;
      const size_t group_size = group.size();
      size_t group_mask = 0;
      for (int i : group) group_mask |= size_t{1} << i;
      // Memoize feasibility per trace S of the group.
      for (size_t trace = 1; trace < (size_t{1} << group_size); ++trace) {
        std::vector<int> in_trace;
        std::vector<int> out_of_trace;
        for (size_t g = 0; g < group_size; ++g) {
          if (trace & (size_t{1} << g)) {
            in_trace.push_back(group[g]);
          } else {
            out_of_trace.push_back(group[g]);
          }
        }
        // Shared-node components: i and K merge when K is a key of
        // the trace and L_i is contained in L_K.
        UnionFind components(static_cast<int>(in_trace.size()));
        for (size_t a = 0; a < in_trace.size(); ++a) {
          if (!encoder->expressions_[in_trace[a]].is_key) continue;
          for (size_t b = 0; b < in_trace.size(); ++b) {
            if (a != b && contained[in_trace[b]][in_trace[a]]) {
              components.Union(static_cast<int>(b), static_cast<int>(a));
            }
          }
        }
        std::map<int, std::vector<int>> component_members;
        for (size_t a = 0; a < in_trace.size(); ++a) {
          component_members[components.Find(static_cast<int>(a))].push_back(
              in_trace[a]);
        }
        bool feasible = true;
        for (const auto& [root_member, members] : component_members) {
          (void)root_member;
          std::vector<const Dfa*> accept_all = {&dtd_paths};
          for (int member : members) {
            accept_all.push_back(&encoder->expressions_[member].dfa);
          }
          std::vector<const Dfa*> reject_all;
          for (int other : out_of_trace) {
            reject_all.push_back(&encoder->expressions_[other].dfa);
          }
          if (!JointlyRealizable(accept_all, reject_all)) {
            feasible = false;
            break;
          }
        }
        if (feasible) continue;
        // Zero every cell whose group trace equals this one.
        size_t trace_bits = 0;
        for (size_t g = 0; g < group_size; ++g) {
          if (trace & (size_t{1} << g)) trace_bits |= size_t{1} << group[g];
        }
        for (size_t mask = 1; mask < num_masks; ++mask) {
          if ((mask & group_mask) == trace_bits) {
            program->SetUpperBound(cell(mask), BigInt(0));
          }
        }
      }
    }
  }

  // Key capacity constraints (Hall-type). A value of a cell theta
  // with theta(K)=1 for a key K occupies exactly ONE node of
  // nodes(K), and the expressions of the cell that are language-
  // contained in K must be witnessed by that same node. Hence, for
  // each trace T over C_K = {i : tau.l matches, L_i included in L_K},
  // the number of values whose cell restricts to T cannot exceed the
  // number of tau_K nodes whose accepting set restricts to T. This is
  // the counting fact that closes, e.g., "a global key implies its
  // path-restricted keys".
  if (options.key_capacities) {
    std::vector<std::vector<bool>> contained(k, std::vector<bool>(k, false));
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        const Expression& a = encoder->expressions_[i];
        const Expression& b = encoder->expressions_[j];
        contained[i][j] = i != j && a.type == b.type &&
                          a.attribute == b.attribute &&
                          a.dfa.ContainedIn(b.dfa);
      }
    }
    for (int key_expr = 0; key_expr < k; ++key_expr) {
      if (!encoder->expressions_[key_expr].is_key) continue;
      size_t c_mask = size_t{1} << key_expr;
      std::vector<int> members = {key_expr};
      for (int i = 0; i < k; ++i) {
        if (contained[i][key_expr]) {
          c_mask |= size_t{1} << i;
          members.push_back(i);
        }
      }
      // Node capacities per C_K-trace, from the product-state
      // acceptance of the flow variables (flow states ARE product
      // states).
      std::map<size_t, LinearExpr> capacity;
      for (const auto& [state, count] :
           encoder->flow_.StatesOf(encoder->expressions_[key_expr].type)) {
        size_t trace = 0;
        for (int member : members) {
          if (product.Accepts(state, member)) trace |= size_t{1} << member;
        }
        if ((trace & (size_t{1} << key_expr)) == 0) continue;  // not a K node
        capacity[trace].Add(count, BigInt(1));
      }
      // One constraint per realized-or-not trace with K set: cells
      // restricting to that trace fit into the nodes of that trace.
      std::set<size_t> traces;
      for (const auto& [trace, expr] : capacity) {
        (void)expr;
        traces.insert(trace);
      }
      for (size_t mask = 1; mask < num_masks; ++mask) {
        if (mask & (size_t{1} << key_expr)) traces.insert(mask & c_mask);
      }
      for (size_t trace : traces) {
        LinearExpr balance;
        for (size_t mask = 1; mask < num_masks; ++mask) {
          if ((mask & c_mask) == trace) balance.Add(cell(mask), BigInt(1));
        }
        if (balance.empty()) continue;
        auto it = capacity.find(trace);
        if (it != capacity.end()) {
          for (const auto& [var, coeff] : it->second.terms()) {
            balance.Add(var, -coeff);
          }
        }
        program->AddLinear(std::move(balance), Relation::kLe, BigInt(0),
                           "key-capacity");
      }
    }
  }

  // Negated constraint, for the implication problem.
  if (negated_key_expr >= 0) {
    const Expression& expression = encoder->expressions_[negated_key_expr];
    // |nodes| >= 2: two nodes are needed to violate a key ...
    LinearExpr two_nodes;
    two_nodes.Add(expression.nodes_var, BigInt(1));
    program->AddLinear(std::move(two_nodes), Relation::kGe, BigInt(2),
                       "neg-key-nodes");
    // ... and they must share a value: |values| <= |nodes| - 1.
    LinearExpr collision;
    collision.Add(expression.values_var, BigInt(1));
    collision.Add(expression.nodes_var, BigInt(-1));
    program->AddLinear(std::move(collision), Relation::kLe, BigInt(-1),
                       "neg-key-collision");
  }
  if (negated_incl_child >= 0) {
    // Some value of the child side lies outside the parent side:
    // sum of cells with theta(child)=1, theta(parent)=0 is >= 1.
    LinearExpr escape;
    for (size_t mask = 1; mask < num_masks; ++mask) {
      if ((mask & (size_t{1} << negated_incl_child)) &&
          !(mask & (size_t{1} << negated_incl_parent))) {
        escape.Add(cell(mask), BigInt(1));
      }
    }
    if (escape.empty()) {
      // Language containment already forces the inclusion: its
      // negation is trivially unsatisfiable.
      program->AddLinear(LinearExpr(), Relation::kGe, BigInt(1),
                         "neg-incl-impossible");
    } else {
      program->AddLinear(std::move(escape), Relation::kGe, BigInt(1),
                         "neg-incl-escape");
    }
  }

  trace::Count("encoder/regular/expressions", k);
  trace::Count("encoder/regular/cells",
               static_cast<int64_t>(encoder->cell_vars_.size()));
  trace::Count("encoder/regular/product_states", product.num_states());
  trace::Count("encoder/regular/variables",
               program->num_variables() - variables_before);
  trace::Count(
      "encoder/regular/constraints",
      static_cast<int64_t>(program->linear().size() - linear_before +
                           program->conditionals().size() -
                           conditionals_before));
  return encoder;
}

Result<XmlTree> RegularEncoder::BuildWitness(
    const std::vector<BigInt>& solution, int64_t max_nodes) const {
  ASSIGN_OR_RETURN(XmlTree tree, flow_.BuildTree(solution, max_nodes));
  const int k = num_expressions();

  // Materialize the s_theta value pools (Lemma 4): z_theta distinct
  // values per cell, each carrying the set of expressions whose value
  // set it must join.
  struct PoolValue {
    std::string text;
    size_t mask;
    // Expressions still awaiting this value (coverage bookkeeping).
    std::set<int> uncovered;
  };
  std::vector<PoolValue> values;
  for (size_t mask = 1; mask < (size_t{1} << k); ++mask) {
    const BigInt& count = solution[cell_vars_[mask - 1]];
    Result<int64_t> count64 = count.TryToInt64();
    if (!count64.ok()) {
      return Status::ResourceExhausted("value pool too large to materialize");
    }
    for (int64_t v = 0; v < *count64; ++v) {
      PoolValue value;
      value.text = StrCat("m", std::to_string(mask), "_v", std::to_string(v));
      value.mask = mask;
      for (int i = 0; i < k; ++i) {
        if (mask & (size_t{1} << i)) value.uncovered.insert(i);
      }
      values.push_back(std::move(value));
    }
  }

  // Slots: one per (element, attribute), annotated with the set I of
  // expressions matching it.
  struct Slot {
    NodeId node;
    std::string attribute;
    size_t member_mask;  // expressions i with node in nodes(i), attr l_i
  };
  std::vector<Slot> slots;
  for (NodeId node : tree.AllElements()) {
    int type = tree.TypeOf(node);
    std::vector<int> path = tree.PathFromRoot(node);
    for (const std::string& attribute : dtd_->Attributes(type)) {
      Slot slot;
      slot.node = node;
      slot.attribute = attribute;
      slot.member_mask = 0;
      for (int i = 0; i < k; ++i) {
        const Expression& expression = expressions_[i];
        if (expression.type == type && expression.attribute == attribute &&
            expression.dfa.Accepts(path)) {
          slot.member_mask |= size_t{1} << i;
        }
      }
      slots.push_back(std::move(slot));
    }
  }

  // Assign richer slots first: they are the scarce resource for
  // covering multi-expression cells.
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) {
                     return __builtin_popcountll(a.member_mask) >
                            __builtin_popcountll(b.member_mask);
                   });

  // Key distinctness: values already used within each key expression.
  std::vector<std::set<size_t>> used_by_key(k);  // value indices
  int64_t free_counter = 0;
  for (const Slot& slot : slots) {
    if (slot.member_mask == 0) {
      // Unwatched attribute: any fresh value will do.
      tree.SetAttribute(slot.node, slot.attribute,
                        "free_" + std::to_string(free_counter++));
      continue;
    }
    int best = -1;
    int best_score = -1;
    int best_extra = 0;
    for (size_t v = 0; v < values.size(); ++v) {
      // theta must dominate I: the value may only join value sets it
      // belongs to.
      if ((values[v].mask & slot.member_mask) != slot.member_mask) continue;
      // Key distinctness across every key expression watching here.
      bool clashes = false;
      for (int i = 0; i < k; ++i) {
        if ((slot.member_mask & (size_t{1} << i)) && expressions_[i].is_key &&
            used_by_key[i].count(v) > 0) {
          clashes = true;
          break;
        }
      }
      if (clashes) continue;
      // Prefer values gaining the most new coverage, then the least
      // versatile values (smallest cell mask).
      int score = 0;
      for (int i : values[v].uncovered) {
        if (slot.member_mask & (size_t{1} << i)) ++score;
      }
      int extra = __builtin_popcountll(values[v].mask);
      if (score > best_score || (score == best_score && extra < best_extra)) {
        best = static_cast<int>(v);
        best_score = score;
        best_extra = extra;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "no admissible pool value for a witness slot; the greedy value "
          "assignment of Lemma 4 failed (please report: this indicates a "
          "gap between the counting solution and its realization)");
    }
    tree.SetAttribute(slot.node, slot.attribute, values[best].text);
    for (int i = 0; i < k; ++i) {
      if (slot.member_mask & (size_t{1} << i)) {
        values[best].uncovered.erase(i);
        if (expressions_[i].is_key) used_by_key[i].insert(best);
      }
    }
  }

  return tree;
}

}  // namespace xmlverify
