// Randomized stress for the exact solver stack: every SAT answer is a
// genuine solution; every UNSAT answer survives a randomized hunt for
// counterexamples; exactness holds under large coefficients.
#include <gtest/gtest.h>

#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "tests/ilp/random_lp.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class RandomIlpSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomIlpSweep, SatSolutionsVerifyAndUnsatResistsSampling) {
  uint64_t state = GetParam();
  const int num_vars = 3 + NextRandom(&state) % 3;
  const int num_rows = 3 + NextRandom(&state) % 4;
  const int64_t bound = 8;

  IntegerProgram program;
  for (int v = 0; v < num_vars; ++v) {
    VarId var = program.NewVariable("x" + std::to_string(v));
    program.SetUpperBound(var, BigInt(bound));
  }
  struct Row {
    std::vector<int64_t> coefficients;
    Relation relation;
    int64_t rhs;
  };
  std::vector<Row> rows;
  for (int r = 0; r < num_rows; ++r) {
    Row row;
    for (int v = 0; v < num_vars; ++v) {
      row.coefficients.push_back(
          static_cast<int64_t>(NextRandom(&state) % 7) - 3);
    }
    row.relation = static_cast<Relation>(NextRandom(&state) % 3);
    row.rhs = static_cast<int64_t>(NextRandom(&state) % 21) - 10;
    rows.push_back(row);
    LinearExpr lhs;
    for (int v = 0; v < num_vars; ++v) {
      lhs.Add(v, BigInt(rows.back().coefficients[v]));
    }
    program.AddLinear(std::move(lhs), row.relation, BigInt(row.rhs));
  }

  SolveResult result = IlpSolver().Solve(program);
  ASSERT_NE(result.outcome, SolveOutcome::kUnknown);
  if (result.outcome == SolveOutcome::kSat) {
    EXPECT_TRUE(program.IsSatisfied(result.assignment));
  } else {
    // Sample the box looking for a missed solution.
    for (int probe = 0; probe < 3000; ++probe) {
      std::vector<BigInt> candidate;
      for (int v = 0; v < num_vars; ++v) {
        candidate.push_back(
            BigInt(static_cast<int64_t>(NextRandom(&state) % (bound + 1))));
      }
      EXPECT_FALSE(program.IsSatisfied(candidate))
          << "solver said UNSAT but a solution exists";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIlpSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

// The sparse engine drops artificials as they leave the basis; the
// dense engine keeps them. Both must stop at the same vertex: cold
// solves agree on feasibility and, when feasible, on every coordinate,
// and the sparse engine never needs more pivots.
TEST(SimplexStressTest, SparseAndDenseEnginesReturnTheSameVertex) {
  uint64_t state = 0x2545f4914f6cdd1dull;
  SimplexOptions dense;
  dense.sparse = false;
  int feasible = 0;
  const int kPrograms = 2000;
  for (int trial = 0; trial < kPrograms; ++trial) {
    RandomLpShape shape;
    shape.planted = trial % 2 == 0;
    shape.redundant_equalities = trial % 3 == 0 ? 2 : 0;
    RandomLp lp = GenerateRandomLp(&state, shape);
    SimplexResult sparse_result = SolveLp(lp.num_vars, lp.rows);
    SimplexResult dense_result =
        SolveLp(lp.num_vars, lp.rows, Deadline(), nullptr, dense);
    ASSERT_EQ(sparse_result.feasible, dense_result.feasible)
        << "trial " << trial;
    if (shape.planted) {
      EXPECT_TRUE(sparse_result.feasible) << "trial " << trial;
    }
    if (sparse_result.feasible) {
      ++feasible;
      EXPECT_EQ(sparse_result.solution, dense_result.solution)
          << "trial " << trial;
    }
    EXPECT_LE(sparse_result.pivots, dense_result.pivots) << "trial " << trial;
  }
  // Both verdicts occur, so the sweep compares vertices and refutations.
  EXPECT_GE(feasible, kPrograms / 2);
  EXPECT_LT(feasible, kPrograms);
}

TEST(SimplexStressTest, LargeCoefficientFeasibility) {
  // x = 10^25, y = 2x: exact arithmetic must carry through.
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  BigInt huge = BigInt::Pow(BigInt(10), 25);
  LinearExpr pin;
  pin.Add(x, BigInt(1));
  program.AddLinear(std::move(pin), Relation::kEq, huge);
  LinearExpr doubled;
  doubled.Add(y, BigInt(1));
  doubled.Add(x, BigInt(-2));
  program.AddLinear(std::move(doubled), Relation::kEq, BigInt(0));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[y], huge * BigInt(2));
}

TEST(SimplexStressTest, TinyRationalGapsAreSeen) {
  // 1000000x >= 999999 + y, x <= 1, y >= 1: forces x = 1 exactly; a
  // floating-point solver could accept x slightly below 1.
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr gap;
  gap.Add(x, BigInt(1000000));
  gap.Add(y, BigInt(-1));
  program.AddLinear(std::move(gap), Relation::kGe, BigInt(999999));
  program.SetUpperBound(x, BigInt(1));
  LinearExpr ylow;
  ylow.Add(y, BigInt(1));
  program.AddLinear(std::move(ylow), Relation::kGe, BigInt(1));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[x], BigInt(1));
}

}  // namespace
}  // namespace xmlverify
