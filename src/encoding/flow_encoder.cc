#include "encoding/flow_encoder.h"

#include <deque>

#include "base/string_util.h"
#include "trace/trace.h"

namespace xmlverify {

namespace {

// An edge of the kind graph, for the spanning-forest (connectivity)
// constraints: `contribution` is the variable whose value is the
// number of child instances created along this edge.
struct KindEdge {
  int parent;
  int child;
  VarId contribution;
};

}  // namespace

int DtdFlowSystem::KindIndex(int symbol, int state) const {
  auto it = kind_index_.find({symbol, state});
  return it == kind_index_.end() ? -1 : it->second;
}

VarId DtdFlowSystem::CountVar(int element_type, int state) const {
  int kind = KindIndex(element_type, state);
  return kind < 0 ? -1 : kinds_[kind].count;
}

std::vector<std::pair<int, VarId>> DtdFlowSystem::StatesOf(
    int element_type) const {
  std::vector<std::pair<int, VarId>> result;
  for (const auto& [key, kind] : kind_index_) {
    if (key.first == element_type) {
      result.emplace_back(key.second, kinds_[kind].count);
    }
  }
  return result;
}

VarId DtdFlowSystem::TotalCountVar(int element_type, IntegerProgram* program) {
  auto it = total_vars_.find(element_type);
  if (it != total_vars_.end()) return it->second;
  std::vector<std::pair<int, VarId>> states = StatesOf(element_type);
  if (states.empty()) return -1;
  VarId total =
      program->NewVariable("ext(" + dtd_->TypeName(element_type) + ")");
  LinearExpr sum;
  sum.Add(total, BigInt(1));
  for (const auto& [state, count] : states) {
    (void)state;
    sum.Add(count, BigInt(-1));
  }
  program->AddLinear(std::move(sum), Relation::kEq, BigInt(0),
                     "ext-total:" + dtd_->TypeName(element_type));
  total_vars_[element_type] = total;
  return total;
}

Result<DtdFlowSystem> DtdFlowSystem::Build(const Dtd& dtd, ProductDfa* product,
                                           IntegerProgram* program) {
  const int variables_before = program->num_variables();
  const size_t linear_before = program->linear().size();
  const size_t conditionals_before = program->conditionals().size();
  DtdFlowSystem system;
  system.dtd_ = &dtd;
  ASSIGN_OR_RETURN(system.narrowed_, NarrowedDtd::Build(dtd));
  const NarrowedDtd& narrowed = system.narrowed_;

  // Discover reachable kinds from the root, materializing variables.
  auto intern = [&](int symbol, int state) {
    auto [it, inserted] = system.kind_index_.emplace(
        std::make_pair(symbol, state),
        static_cast<int>(system.kinds_.size()));
    if (inserted) {
      Kind kind;
      kind.symbol = symbol;
      kind.state = state;
      kind.count = program->NewVariable(
          "y(" + narrowed.SymbolName(dtd, symbol) + "@" +
          std::to_string(state) + ")");
      system.kinds_.push_back(kind);
    }
    return it->second;
  };

  int root_state = 0;
  if (product != nullptr) {
    root_state = product->Next(product->start(), dtd.root());
  }
  system.root_state_ = root_state;
  system.root_kind_ = intern(dtd.root(), root_state);

  std::deque<int> worklist = {system.root_kind_};
  std::vector<KindEdge> edges;
  while (!worklist.empty()) {
    int index = worklist.front();
    worklist.pop_front();
    // Copy symbol/state: kinds_ may reallocate while interning below.
    const int symbol = system.kinds_[index].symbol;
    const int state = system.kinds_[index].state;
    const NarrowRule& rule = narrowed.rules[symbol];
    auto child_of = [&](int child_symbol) {
      int child_state = state;
      if (narrowed.IsElementType(child_symbol) && product != nullptr) {
        child_state = product->Next(state, child_symbol);
      }
      int before = static_cast<int>(system.kinds_.size());
      int child = intern(child_symbol, child_state);
      if (child >= before) worklist.push_back(child);
      return child;
    };
    switch (rule.kind) {
      case NarrowRule::Kind::kEpsilon:
      case NarrowRule::Kind::kString:
        break;
      case NarrowRule::Kind::kElement:
      case NarrowRule::Kind::kStar: {
        int child = child_of(rule.a);
        system.kinds_[index].child_a = child;
        if (rule.kind == NarrowRule::Kind::kStar) {
          VarId star_out = program->NewVariable(
              "star(" + narrowed.SymbolName(dtd, symbol) + "@" +
              std::to_string(state) + ")");
          system.kinds_[index].star_out = star_out;
          // (star_out >= 1) -> (y >= 1): children need a parent.
          LinearExpr need_parent;
          need_parent.Add(system.kinds_[index].count, BigInt(1));
          program->AddConditional(star_out, std::move(need_parent),
                                  Relation::kGe, BigInt(1), "star-parent");
          edges.push_back({index, child, star_out});
        } else {
          edges.push_back({index, child, system.kinds_[index].count});
        }
        break;
      }
      case NarrowRule::Kind::kSeq: {
        int child_a = child_of(rule.a);
        int child_b = child_of(rule.b);
        system.kinds_[index].child_a = child_a;
        system.kinds_[index].child_b = child_b;
        edges.push_back({index, child_a, system.kinds_[index].count});
        edges.push_back({index, child_b, system.kinds_[index].count});
        break;
      }
      case NarrowRule::Kind::kAlt: {
        int child_a = child_of(rule.a);
        int child_b = child_of(rule.b);
        system.kinds_[index].child_a = child_a;
        system.kinds_[index].child_b = child_b;
        VarId use_a = program->NewVariable(
            "alt_a(" + narrowed.SymbolName(dtd, symbol) + "@" +
            std::to_string(state) + ")");
        VarId use_b = program->NewVariable(
            "alt_b(" + narrowed.SymbolName(dtd, symbol) + "@" +
            std::to_string(state) + ")");
        system.kinds_[index].alt_use_a = use_a;
        system.kinds_[index].alt_use_b = use_b;
        // y = use_a + use_b.
        LinearExpr split;
        split.Add(system.kinds_[index].count, BigInt(1));
        split.Add(use_a, BigInt(-1));
        split.Add(use_b, BigInt(-1));
        program->AddLinear(std::move(split), Relation::kEq, BigInt(0),
                           "alt-split");
        edges.push_back({index, child_a, use_a});
        edges.push_back({index, child_b, use_b});
        break;
      }
    }
  }

  // Flow conservation: y_child = [child == root] + sum of parent
  // contributions. The root has no incoming edges (its type appears in
  // no content model), so its equation is y_root = 1.
  std::vector<LinearExpr> incoming(system.kinds_.size());
  for (const KindEdge& edge : edges) {
    incoming[edge.child].Add(edge.contribution, BigInt(1));
  }
  for (size_t kind = 0; kind < system.kinds_.size(); ++kind) {
    LinearExpr balance;
    balance.Add(system.kinds_[kind].count, BigInt(1));
    for (const auto& [var, coeff] : incoming[kind].terms()) {
      balance.Add(var, -coeff);
    }
    BigInt rhs(static_cast<int>(kind) == system.root_kind_ ? 1 : 0);
    program->AddLinear(std::move(balance), Relation::kEq, rhs, "flow");
  }

  // Connectivity (recursive DTDs only): exclude orphan cycles.
  if (dtd.IsRecursive()) {
    const int num_kinds = static_cast<int>(system.kinds_.size());
    const BigInt big_m(num_kinds + 1);
    std::vector<VarId> distance(num_kinds, -1);
    for (int kind = 0; kind < num_kinds; ++kind) {
      distance[kind] = program->NewVariable(StrCat("z", std::to_string(kind)));
      program->SetUpperBound(distance[kind], BigInt(num_kinds));
    }
    // Root distance zero.
    LinearExpr root_distance;
    root_distance.Add(distance[system.root_kind_], BigInt(1));
    program->AddLinear(std::move(root_distance), Relation::kEq, BigInt(0),
                       "conn-root");
    std::vector<LinearExpr> marked_incoming(num_kinds);
    for (const KindEdge& edge : edges) {
      VarId marker = program->NewVariable(StrCat(
          "w", std::to_string(edge.parent), "_", std::to_string(edge.child)));
      program->SetUpperBound(marker, BigInt(1));
      // Marked edges must carry flow: w <= contribution.
      LinearExpr flow_bound;
      flow_bound.Add(marker, BigInt(1));
      flow_bound.Add(edge.contribution, BigInt(-1));
      program->AddLinear(std::move(flow_bound), Relation::kLe, BigInt(0),
                         "conn-flow");
      // Marked edges go strictly root-ward:
      // z_child >= z_parent + 1 - M(1 - w).
      LinearExpr rootward;
      rootward.Add(distance[edge.parent], BigInt(1));
      rootward.Add(distance[edge.child], BigInt(-1));
      rootward.Add(marker, big_m);
      program->AddLinear(std::move(rootward), Relation::kLe,
                         big_m - BigInt(1), "conn-rootward");
      marked_incoming[edge.child].Add(marker, BigInt(1));
    }
    for (int kind = 0; kind < num_kinds; ++kind) {
      if (kind == system.root_kind_) continue;
      // (y_kind >= 1) -> (some incoming edge is marked).
      program->AddConditional(system.kinds_[kind].count,
                              marked_incoming[kind], Relation::kGe, BigInt(1),
                              "conn-reach");
    }
  }

  trace::Count("encoder/flow/kinds",
               static_cast<int64_t>(system.kinds_.size()));
  trace::Count("encoder/flow/variables",
               program->num_variables() - variables_before);
  trace::Count("encoder/flow/constraints",
               static_cast<int64_t>(program->linear().size() - linear_before +
                                    program->conditionals().size() -
                                    conditionals_before));
  return system;
}

bool DtdFlowSystem::RemainderProducible(
    const std::vector<int>& sources, const std::vector<BigInt>& required,
    const std::vector<BigInt>& created, const std::vector<BigInt>& alt_a_budget,
    const std::vector<BigInt>& alt_b_budget,
    const std::vector<BigInt>& star_budget) const {
  std::vector<char> reached(kinds_.size(), 0);
  std::vector<int> stack;
  for (int kind : sources) {
    if (!reached[kind]) {
      reached[kind] = 1;
      stack.push_back(kind);
    }
  }
  auto visit = [&](int kind) {
    if (!reached[kind]) {
      reached[kind] = 1;
      stack.push_back(kind);
    }
  };
  while (!stack.empty()) {
    int index = stack.back();
    stack.pop_back();
    const Kind& kind = kinds_[index];
    const NarrowRule& rule = narrowed_.rules[kind.symbol];
    switch (rule.kind) {
      case NarrowRule::Kind::kEpsilon:
      case NarrowRule::Kind::kString:
        break;
      case NarrowRule::Kind::kElement:
      case NarrowRule::Kind::kSeq:
        visit(kind.child_a);
        if (rule.kind == NarrowRule::Kind::kSeq) visit(kind.child_b);
        break;
      case NarrowRule::Kind::kAlt:
        if (alt_a_budget[index] > BigInt(0)) visit(kind.child_a);
        if (alt_b_budget[index] > BigInt(0)) visit(kind.child_b);
        break;
      case NarrowRule::Kind::kStar:
        if (star_budget[index] > BigInt(0)) visit(kind.child_a);
        break;
    }
  }
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    if (created[kind] < required[kind] && !reached[kind]) return false;
  }
  return true;
}

Result<XmlTree> DtdFlowSystem::BuildTree(const std::vector<BigInt>& solution,
                                         int64_t max_nodes) const {
  // Budgets for alternative and star expansions.
  std::vector<BigInt> alt_a_budget(kinds_.size(), BigInt(0));
  std::vector<BigInt> alt_b_budget(kinds_.size(), BigInt(0));
  std::vector<BigInt> star_budget(kinds_.size(), BigInt(0));
  int64_t total_instances = 0;
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    if (kinds_[kind].alt_use_a >= 0) {
      alt_a_budget[kind] = solution[kinds_[kind].alt_use_a];
      alt_b_budget[kind] = solution[kinds_[kind].alt_use_b];
    }
    if (kinds_[kind].star_out >= 0) {
      star_budget[kind] = solution[kinds_[kind].star_out];
    }
    const BigInt& count = solution[kinds_[kind].count];
    Result<int64_t> count64 = count.TryToInt64();
    if (!count64.ok() || (total_instances += *count64) > max_nodes) {
      return Status::ResourceExhausted(
          "witness tree would exceed the node limit; the counting "
          "solution is astronomically large");
    }
  }

  std::vector<BigInt> required(kinds_.size(), BigInt(0));
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    required[kind] = solution[kinds_[kind].count];
  }

  XmlTree tree(dtd_->root());
  // Elements are expanded one at a time: the nonterminal structure of
  // one element's content is unwound depth-first, left-to-right (so
  // sibling order matches the content model), and each kElement step
  // materializes a child element that is queued for later expansion.
  struct ElementItem {
    NodeId node;
    int kind;  // a kind whose symbol is an element type
  };
  std::deque<ElementItem> elements;
  elements.push_back({tree.root(), root_kind_});
  std::vector<BigInt> created(kinds_.size(), BigInt(0));
  created[root_kind_] = BigInt(1);

  while (!elements.empty()) {
    ElementItem element = elements.front();
    elements.pop_front();
    // In-place DFS over the narrow rules of this element's content.
    std::vector<int> stack = {element.kind};
    // The element kind's own rule is the narrowing of P(tau).
    while (!stack.empty()) {
      int kind_index = stack.back();
      stack.pop_back();
      const Kind& kind = kinds_[kind_index];
      const NarrowRule& rule = narrowed_.rules[kind.symbol];
      switch (rule.kind) {
        case NarrowRule::Kind::kEpsilon:
          break;
        case NarrowRule::Kind::kString:
          tree.AddText(element.node, "");
          break;
        case NarrowRule::Kind::kElement: {
          NodeId child = tree.AddElement(element.node, rule.a);
          created[kind.child_a] += 1;
          elements.push_back({child, kind.child_a});
          break;
        }
        case NarrowRule::Kind::kSeq:
          created[kind.child_a] += 1;
          created[kind.child_b] += 1;
          // LIFO: push the right part first so the left expands first.
          stack.push_back(kind.child_b);
          stack.push_back(kind.child_a);
          break;
        case NarrowRule::Kind::kAlt: {
          bool can_a = alt_a_budget[kind_index] > BigInt(0);
          bool can_b = alt_b_budget[kind_index] > BigInt(0);
          if (!can_a && !can_b) {
            return Status::Internal(
                "alternative budgets exhausted while rebuilding the witness "
                "tree (flow solution inconsistent)");
          }
          int chosen;
          if (can_a && can_b) {
            // Both branches have budget, so the flow solution does not
            // pin down which instance takes which — and a careless
            // choice can strand the remainder of a recursive cycle
            // (e.g. taking the terminating branch of t0 -> (% | t2),
            // t2 -> t0 at the only pending t0 leaves the counted
            // t2/t0 tail unreachable). Take branch a only if the
            // still-owed kinds stay producible from the pending work
            // afterwards; otherwise branch b must be the one that
            // keeps the chain alive.
            alt_a_budget[kind_index] -= 1;
            created[kind.child_a] += 1;
            std::vector<int> sources = {kind.child_a};
            for (const ElementItem& pending : elements) {
              sources.push_back(pending.kind);
            }
            sources.insert(sources.end(), stack.begin(), stack.end());
            bool a_keeps_producible =
                RemainderProducible(sources, required, created, alt_a_budget,
                                    alt_b_budget, star_budget);
            alt_a_budget[kind_index] += 1;
            created[kind.child_a] -= 1;
            chosen = a_keeps_producible ? kind.child_a : kind.child_b;
          } else {
            chosen = can_a ? kind.child_a : kind.child_b;
          }
          if (chosen == kind.child_a) {
            alt_a_budget[kind_index] -= 1;
          } else {
            alt_b_budget[kind_index] -= 1;
          }
          created[chosen] += 1;
          stack.push_back(chosen);
          break;
        }
        case NarrowRule::Kind::kStar: {
          // Allocate the entire remaining star budget to this
          // instance; later instances of the same kind produce zero
          // children, which the star admits.
          BigInt take = star_budget[kind_index];
          star_budget[kind_index] = BigInt(0);
          created[kind.child_a] += take;
          while (take > BigInt(0)) {
            stack.push_back(kind.child_a);
            take -= 1;
          }
          break;
        }
      }
    }
  }

  // Cross-check: the rebuilt instance counts must equal the solution.
  for (size_t kind = 0; kind < kinds_.size(); ++kind) {
    if (created[kind] != solution[kinds_[kind].count]) {
      return Status::Internal(
          "witness reconstruction mismatch on kind " + std::to_string(kind) +
          ": built " + created[kind].ToString() + ", solution says " +
          solution[kinds_[kind].count].ToString() +
          " (flow solution not tree-realizable)");
    }
  }
  return tree;
}

}  // namespace xmlverify
