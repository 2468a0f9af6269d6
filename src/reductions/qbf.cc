#include "reductions/qbf.h"

#include "base/string_util.h"

namespace xmlverify {

namespace {

bool EvaluateFrom(const QbfFormula& formula, size_t depth,
                  std::vector<bool>* assignment) {
  if (depth == formula.existential.size()) {
    return formula.matrix.Evaluate(*assignment);
  }
  bool result = formula.existential[depth] ? false : true;
  for (bool value : {false, true}) {
    (*assignment)[depth] = value;
    bool branch = EvaluateFrom(formula, depth + 1, assignment);
    if (formula.existential[depth]) {
      result = result || branch;
      if (result) break;
    } else {
      result = result && branch;
      if (!result) break;
    }
  }
  return result;
}

}  // namespace

bool QbfFormula::Evaluate() const {
  std::vector<bool> assignment(existential.size(), false);
  return EvaluateFrom(*this, 0, &assignment);
}

QbfFormula QbfFormula::Random(int num_variables, int num_clauses,
                              int clause_size, uint64_t seed) {
  QbfFormula formula;
  for (int i = 0; i < num_variables; ++i) {
    formula.existential.push_back(i % 2 == 1);  // forall, exists, ...
  }
  formula.matrix =
      CnfFormula::Random(num_variables, num_clauses, clause_size, seed);
  return formula;
}

std::string QbfFormula::ToString() const {
  std::string out;
  for (size_t i = 0; i < existential.size(); ++i) {
    out += existential[i] ? "E" : "A";
    out += StrCat("x", std::to_string(i + 1), ".");
  }
  return out + " " + matrix.ToString();
}

}  // namespace xmlverify
