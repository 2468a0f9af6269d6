// Seeded generator of linear programs shaped like the cardinality
// encodings: 6-20 variables, 10-50 sparse rows with small coefficients
// and mixed <= / >= / = relations. Shared by the simplex stress and
// warm-start sweeps.
#ifndef XMLVERIFY_TESTS_ILP_RANDOM_LP_H_
#define XMLVERIFY_TESTS_ILP_RANDOM_LP_H_

#include <cstdint>
#include <vector>

#include "base/bigint.h"
#include "ilp/linear.h"

namespace xmlverify {

struct RandomLp {
  int num_vars = 0;
  std::vector<LinearConstraint> rows;
};

struct RandomLpShape {
  // Every row holds at a hidden nonnegative integer point, so the
  // program is feasible; otherwise right-hand sides are random.
  bool planted = false;
  // Copies of equality rows (or sums of two) appended at the end. Each
  // lies in the span of the rows before it, so a feasible solve ends
  // with one more phase-1 artificial basic at zero per copy.
  int redundant_equalities = 0;
};

inline uint64_t NextLpRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in [0, n).
inline int64_t LpRandomBelow(uint64_t* state, int64_t n) {
  return static_cast<int64_t>(NextLpRandom(state) % static_cast<uint64_t>(n));
}

inline RandomLp GenerateRandomLp(uint64_t* state, const RandomLpShape& shape) {
  auto below = [state](int64_t n) { return LpRandomBelow(state, n); };
  RandomLp lp;
  lp.num_vars = 6 + static_cast<int>(below(15));
  const int num_rows = 10 + static_cast<int>(below(41));
  std::vector<int64_t> point(lp.num_vars);
  for (int64_t& value : point) value = below(5);
  std::vector<int> equalities;
  for (int r = 0; r < num_rows; ++r) {
    LinearConstraint row;
    const int terms = 1 + static_cast<int>(below(4));
    for (int t = 0; t < terms; ++t) {
      int64_t coeff = below(6) - 3;
      if (coeff >= 0) ++coeff;  // [-3, 3] without 0
      row.lhs.Add(static_cast<VarId>(below(lp.num_vars)), BigInt(coeff));
    }
    int64_t at_point = 0;
    for (const auto& [var, coeff] : row.lhs.terms()) {
      at_point += *coeff.TryToInt64() * point[var];
    }
    row.relation = static_cast<Relation>(below(3));
    if (!shape.planted) {
      row.rhs = BigInt(below(21) - 10);
    } else if (row.relation == Relation::kLe) {
      row.rhs = BigInt(at_point + below(3));
    } else if (row.relation == Relation::kGe) {
      row.rhs = BigInt(at_point - below(3));
    } else {
      row.rhs = BigInt(at_point);
    }
    if (row.relation == Relation::kEq) equalities.push_back(r);
    lp.rows.push_back(std::move(row));
  }
  for (int k = 0; k < shape.redundant_equalities && !equalities.empty(); ++k) {
    const LinearConstraint& first =
        lp.rows[equalities[below(static_cast<int64_t>(equalities.size()))]];
    LinearConstraint copy = first;
    if (equalities.size() > 1 && below(2) == 0) {
      const LinearConstraint& second =
          lp.rows[equalities[below(static_cast<int64_t>(equalities.size()))]];
      copy.lhs.AddExpr(second.lhs);
      copy.rhs = copy.rhs + second.rhs;
    }
    lp.rows.push_back(std::move(copy));
  }
  return lp;
}

}  // namespace xmlverify

#endif  // XMLVERIFY_TESTS_ILP_RANDOM_LP_H_
