#include "reductions/cnf.h"

#include <algorithm>

#include "base/string_util.h"

namespace xmlverify {

namespace {

// SplitMix64: small deterministic generator for reproducible
// instances.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

enum class Value { kUnset, kTrue, kFalse };

// Recursive DPLL over a partial assignment.
bool Dpll(const std::vector<std::vector<int>>& clauses,
          std::vector<Value>* assignment) {
  // Unit propagation to fixpoint.
  std::vector<std::pair<int, Value>> trail;
  bool changed = true;
  bool conflict = false;
  while (changed && !conflict) {
    changed = false;
    for (const std::vector<int>& clause : clauses) {
      int unassigned = 0;
      int last_literal = 0;
      bool satisfied = false;
      for (int literal : clause) {
        Value value = (*assignment)[std::abs(literal) - 1];
        if (value == Value::kUnset) {
          ++unassigned;
          last_literal = literal;
        } else if ((value == Value::kTrue) == (literal > 0)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) {
        conflict = true;
        break;
      }
      if (unassigned == 1) {
        Value forced = last_literal > 0 ? Value::kTrue : Value::kFalse;
        (*assignment)[std::abs(last_literal) - 1] = forced;
        trail.emplace_back(std::abs(last_literal) - 1, forced);
        changed = true;
      }
    }
  }
  if (!conflict) {
    int branch = -1;
    for (size_t i = 0; i < assignment->size(); ++i) {
      if ((*assignment)[i] == Value::kUnset) {
        branch = static_cast<int>(i);
        break;
      }
    }
    if (branch < 0) return true;  // complete, conflict-free
    for (Value value : {Value::kTrue, Value::kFalse}) {
      (*assignment)[branch] = value;
      if (Dpll(clauses, assignment)) return true;
    }
    (*assignment)[branch] = Value::kUnset;
  }
  for (auto& [index, value] : trail) {
    (void)value;
    (*assignment)[index] = Value::kUnset;
  }
  return false;
}

}  // namespace

CnfFormula CnfFormula::Random(int num_variables, int num_clauses,
                              int clause_size, uint64_t seed) {
  CnfFormula formula;
  formula.num_variables = num_variables;
  uint64_t state = seed;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> clause;
    std::vector<int> pool(num_variables);
    for (int i = 0; i < num_variables; ++i) pool[i] = i + 1;
    for (int l = 0; l < clause_size && !pool.empty(); ++l) {
      size_t pick = NextRandom(&state) % pool.size();
      int variable = pool[pick];
      pool.erase(pool.begin() + pick);
      bool negated = NextRandom(&state) % 2 == 0;
      clause.push_back(negated ? -variable : variable);
    }
    formula.clauses.push_back(std::move(clause));
  }
  return formula;
}

bool CnfFormula::Evaluate(const std::vector<bool>& assignment) const {
  for (const std::vector<int>& clause : clauses) {
    bool satisfied = false;
    for (int literal : clause) {
      bool value = assignment[std::abs(literal) - 1];
      if ((literal > 0) == value) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

std::optional<std::vector<bool>> CnfFormula::Solve() const {
  std::vector<Value> assignment(num_variables, Value::kUnset);
  if (!Dpll(clauses, &assignment)) return std::nullopt;
  std::vector<bool> model(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    model[i] = assignment[i] == Value::kTrue;
  }
  return model;
}

std::string CnfFormula::ToString() const {
  std::string out;
  for (const std::vector<int>& clause : clauses) {
    out += "(";
    for (size_t i = 0; i < clause.size(); ++i) {
      if (i > 0) out += " | ";
      if (clause[i] < 0) out += "!";
      out += StrCat("x", std::to_string(std::abs(clause[i])));
    }
    out += ")";
  }
  return out;
}

}  // namespace xmlverify
