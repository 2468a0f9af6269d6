// Exact simplex and branch-and-bound integer solver tests.
#include "ilp/solver.h"

#include <gtest/gtest.h>

#include "ilp/simplex.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

LinearConstraint Make(std::vector<std::pair<VarId, int64_t>> terms,
                      Relation relation, int64_t rhs) {
  LinearConstraint constraint;
  for (auto& [var, coeff] : terms) constraint.lhs.Add(var, BigInt(coeff));
  constraint.relation = relation;
  constraint.rhs = BigInt(rhs);
  return constraint;
}

TEST(SimplexTest, FeasibleSystem) {
  // x + y >= 3, x <= 2, y <= 2, x,y >= 0.
  std::vector<LinearConstraint> constraints = {
      Make({{0, 1}, {1, 1}}, Relation::kGe, 3),
      Make({{0, 1}}, Relation::kLe, 2),
      Make({{1, 1}}, Relation::kLe, 2),
  };
  SimplexResult result = SolveLp(2, constraints);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.solution[0] + result.solution[1], Rational(3));
  EXPECT_LE(result.solution[0], Rational(2));
  EXPECT_LE(result.solution[1], Rational(2));
}

TEST(SimplexTest, InfeasibleSystem) {
  // x >= 5 and x <= 2.
  std::vector<LinearConstraint> constraints = {
      Make({{0, 1}}, Relation::kGe, 5),
      Make({{0, 1}}, Relation::kLe, 2),
  };
  EXPECT_FALSE(SolveLp(1, constraints).feasible);
}

TEST(SimplexTest, EqualitySystem) {
  // x + 2y = 4, x - is implicitly >= 0; x = 4 - 2y.
  std::vector<LinearConstraint> constraints = {
      Make({{0, 1}, {1, 2}}, Relation::kEq, 4),
      Make({{1, 1}}, Relation::kGe, 1),
  };
  SimplexResult result = SolveLp(2, constraints);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution[0] + result.solution[1] * Rational(2),
            Rational(4));
}

TEST(SimplexTest, EmptyLhsHandling) {
  // 0 >= 1 is infeasible; 0 <= 1 is trivially feasible.
  std::vector<LinearConstraint> infeasible = {Make({}, Relation::kGe, 1)};
  EXPECT_FALSE(SolveLp(1, infeasible).feasible);
  std::vector<LinearConstraint> feasible = {Make({}, Relation::kLe, 1)};
  EXPECT_TRUE(SolveLp(1, feasible).feasible);
}

TEST(SimplexTest, DegenerateCyclingGuard) {
  // A classic degenerate system; Bland's rule must terminate.
  std::vector<LinearConstraint> constraints = {
      Make({{0, 1}, {1, -1}}, Relation::kLe, 0),
      Make({{0, -1}, {1, 1}}, Relation::kLe, 0),
      Make({{0, 1}, {1, 1}}, Relation::kGe, 0),
      Make({{0, 1}}, Relation::kLe, 0),
  };
  SimplexResult result = SolveLp(2, constraints);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution[0], Rational(0));
  EXPECT_EQ(result.solution[1], Rational(0));
}

TEST(IlpSolverTest, IntegerFeasible) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // 2x + 3y = 12.
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(3));
  program.AddLinear(std::move(expr), Relation::kEq, BigInt(12));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_TRUE(program.IsSatisfied(result.assignment));
}

TEST(IlpSolverTest, GcdRefutation) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // 2x + 2y = 5 has no integer solution.
  LinearExpr expr;
  expr.Add(x, BigInt(2)).Add(y, BigInt(2));
  program.AddLinear(std::move(expr), Relation::kEq, BigInt(5));
  SolveResult result = IlpSolver().Solve(program);
  EXPECT_EQ(result.outcome, SolveOutcome::kUnsat);
}

TEST(IlpSolverTest, BranchingFindsNonTrivialPoint) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // 3x + 5y = 17 -> x=4, y=1.
  LinearExpr expr;
  expr.Add(x, BigInt(3)).Add(y, BigInt(5));
  program.AddLinear(std::move(expr), Relation::kEq, BigInt(17));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[x] * BigInt(3) + result.assignment[y] * BigInt(5),
            BigInt(17));
}

TEST(IlpSolverTest, LpInfeasibleIsUnsat) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  LinearExpr ge;
  ge.Add(x, BigInt(1));
  program.AddLinear(std::move(ge), Relation::kGe, BigInt(5));
  program.SetUpperBound(x, BigInt(2));
  SolveResult result = IlpSolver().Solve(program);
  EXPECT_EQ(result.outcome, SolveOutcome::kUnsat);
}

TEST(IlpSolverTest, ConditionalActivation) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // x >= 1; (x >= 1) -> (y >= 3).
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kGe, BigInt(1));
  LinearExpr ye;
  ye.Add(y, BigInt(1));
  program.AddConditional(x, std::move(ye), Relation::kGe, BigInt(3));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_GE(result.assignment[y], BigInt(3));
}

TEST(IlpSolverTest, ConditionalAvoidedByZeroAntecedent) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // (x >= 1) -> (y >= 3), y <= 1. Solution: x = 0.
  LinearExpr ye;
  ye.Add(y, BigInt(1));
  program.AddConditional(x, std::move(ye), Relation::kGe, BigInt(3));
  program.SetUpperBound(y, BigInt(1));
  // Push x upward via a vacuous disjunction: x + y >= 1.
  LinearExpr sum;
  sum.Add(x, BigInt(1)).Add(y, BigInt(1));
  program.AddLinear(std::move(sum), Relation::kGe, BigInt(1));
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_TRUE(program.IsSatisfied(result.assignment));
}

TEST(IlpSolverTest, ConditionalConflictIsUnsat) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kGe, BigInt(1));
  LinearExpr ye;
  ye.Add(y, BigInt(1));
  program.AddConditional(x, std::move(ye), Relation::kGe, BigInt(3));
  program.SetUpperBound(y, BigInt(2));
  SolveResult result = IlpSolver().Solve(program);
  EXPECT_EQ(result.outcome, SolveOutcome::kUnsat);
}

TEST(IlpSolverTest, PrequadraticSatisfied) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  VarId z = program.NewVariable("z");
  // x = 6, x <= y*z, y + z <= 5  ->  y=2,z=3 or y=3,z=2.
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kEq, BigInt(6));
  program.AddPrequadratic(x, y, z);
  LinearExpr sum;
  sum.Add(y, BigInt(1)).Add(z, BigInt(1));
  program.AddLinear(std::move(sum), Relation::kLe, BigInt(5));
  SolveResult result =
      IlpSolver().SolveWithDeepening(program, BigInt(8), BigInt(1024));
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_TRUE(program.IsSatisfied(result.assignment));
  EXPECT_LE(result.assignment[x],
            result.assignment[y] * result.assignment[z]);
}

TEST(IlpSolverTest, PrequadraticForcesGrowth) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // x = 9, x <= y*y.
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kEq, BigInt(9));
  program.AddPrequadratic(x, y, y);
  SolveResult result =
      IlpSolver().SolveWithDeepening(program, BigInt(4), BigInt(1024));
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_GE(result.assignment[y], BigInt(3));
}

TEST(IlpSolverTest, DeepeningTerminatesFromDegenerateInitialCaps) {
  // 0 and 1 are fixed points of cap-squaring: before the growth
  // clamp, SolveWithDeepening(program, BigInt(1), ...) re-ran the
  // same capped search forever. The deadline is a hang guard only —
  // the solve must reach the definitive verdict well before it.
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kEq, BigInt(9));
  program.AddPrequadratic(x, y, y);
  for (int64_t initial : {0, 1}) {
    SolverOptions options;
    options.deadline = Deadline::AfterMillis(5000);
    SolveResult result = IlpSolver(options).SolveWithDeepening(
        program, BigInt(initial), BigInt(1024));
    ASSERT_EQ(result.outcome, SolveOutcome::kSat)
        << "initial cap " << initial << ": " << result.note;
    EXPECT_GE(result.assignment[y], BigInt(3));
  }
}

TEST(IlpSolverTest, BigCoefficientBranchRowsChargeTheirRealFootprint) {
  // Identical shape, wildly different limb footprints: 2x is pinned
  // to an odd value, so the search must branch on x = B + 1/2 and the
  // branch bound rows carry B-sized integers. The memory accounting
  // sizes constraints by actual limb storage (not a flat per-row
  // guess), so the small twin fits in a budget the huge twin cannot.
  auto build = [](const BigInt& odd_rhs) {
    IntegerProgram program;
    VarId x = program.NewVariable("x");
    LinearExpr ge;
    ge.Add(x, BigInt(2));
    program.AddLinear(std::move(ge), Relation::kGe, odd_rhs);
    LinearExpr le;
    le.Add(x, BigInt(2));
    program.AddLinear(std::move(le), Relation::kLe, odd_rhs);
    return program;
  };
  SolverOptions options;
  // Presolve off: its domain propagation would refute the huge twin
  // before the search ever materializes a node.
  options.use_presolve = false;
  options.budget.set_memory_limit_bytes(8 * 1024);
  SolveResult small = IlpSolver(options).Solve(build(BigInt(9)));
  EXPECT_EQ(small.outcome, SolveOutcome::kUnsat);
  BigInt huge = BigInt::Pow2(200000) + BigInt(1);
  SolveResult big = IlpSolver(options).Solve(build(huge));
  EXPECT_EQ(big.outcome, SolveOutcome::kResourceExhausted) << big.note;
}

// A thin integer-infeasible strip that evades the per-row gcd test
// and is rationally unbounded: x + y = 2z + 1 together with x = y
// forces 2x = 2z + 1. Branch and bound cannot close it without a
// bound: every level of the search leaves a sibling pending until a
// limit fires.
IntegerProgram ThinStripProgram() {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  VarId z = program.NewVariable("z");
  LinearExpr strip;
  strip.Add(x, BigInt(1)).Add(y, BigInt(1)).Add(z, BigInt(-2));
  program.AddLinear(std::move(strip), Relation::kEq, BigInt(1));
  LinearExpr diag;
  diag.Add(x, BigInt(1)).Add(y, BigInt(-1));
  program.AddLinear(std::move(diag), Relation::kEq, BigInt(0));
  return program;
}

TEST(IlpSolverTest, NodeLimitYieldsUnknown) {
  SolverOptions options;
  options.max_nodes = 10;
  SolveResult result = IlpSolver(options).Solve(ThinStripProgram());
  EXPECT_EQ(result.outcome, SolveOutcome::kUnknown);
  EXPECT_EQ(result.nodes_explored, options.max_nodes);
}

// { 2x >= 1, x + y >= 2 }: with presolve off the root vertex is
// (1/2, 3/2). Branching on x, the <= child (x <= 0) contradicts
// 2x >= 1 outright, while the >= child (x >= 1) solves integrally at
// (1, 1), with the <= child still pending on the stack.
IntegerProgram HalfIntegralRootProgram() {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr half;
  half.Add(x, BigInt(2));
  program.AddLinear(std::move(half), Relation::kGe, BigInt(1));
  LinearExpr sum;
  sum.Add(x, BigInt(1)).Add(y, BigInt(1));
  program.AddLinear(std::move(sum), Relation::kGe, BigInt(2));
  return program;
}

// x pinned to 1/2 (2x >= 1 and 2x <= 1): both children of the root
// are LP-infeasible.
IntegerProgram ForcedUnsatProgram() {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  LinearExpr ge;
  ge.Add(x, BigInt(2));
  program.AddLinear(std::move(ge), Relation::kGe, BigInt(1));
  LinearExpr le;
  le.Add(x, BigInt(2));
  program.AddLinear(std::move(le), Relation::kLe, BigInt(1));
  return program;
}

// Child exploration order: the >= / growth child is explored first,
// for all three branch kinds. Exploring >= first reaches SAT at node
// 2 and returns; the historical <=-first order would process the
// infeasible child too, making 3 nodes.
TEST(IlpSolverTest, FractionalBranchExploresGrowthFirst) {
  SolverOptions options;
  options.use_presolve = false;
  SolveResult result = IlpSolver(options).Solve(HalfIntegralRootProgram());
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[0], BigInt(1));
  EXPECT_EQ(result.assignment[1], BigInt(1));
  EXPECT_EQ(result.nodes_explored, 2);
}

// The same order for the prequadratic branch, which historically
// explored the <= child first. The root candidate is (x=6, y=0, z=0)
// with x <= y*z violated; the <= child pins y <= 0 and linearizes to
// x <= 0, contradicting x = 6, while the >= child (y >= 1) solves to
// a pq-satisfying integral vertex immediately.
TEST(IlpSolverTest, PrequadraticBranchExploresGrowthFirst) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  VarId z = program.NewVariable("z");
  LinearExpr xe;
  xe.Add(x, BigInt(1));
  program.AddLinear(std::move(xe), Relation::kEq, BigInt(6));
  program.AddPrequadratic(x, y, z);
  LinearExpr sum;
  sum.Add(y, BigInt(1)).Add(z, BigInt(1));
  program.AddLinear(std::move(sum), Relation::kLe, BigInt(7));

  SolverOptions options;
  options.variable_cap = BigInt(16);
  SolveResult result = IlpSolver(options).Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_TRUE(program.IsSatisfied(result.assignment));
  EXPECT_EQ(result.nodes_explored, 2);
}

// kUnsat needs a full drain: root plus both children. Presolve is off:
// it would refute the fractional fixpoint before any search.
TEST(IlpSolverTest, ForcedUnsatTreeExploresThreeNodes) {
  SolverOptions options;
  options.use_presolve = false;
  SolveResult result = IlpSolver(options).Solve(ForcedUnsatProgram());
  ASSERT_EQ(result.outcome, SolveOutcome::kUnsat);
  EXPECT_EQ(result.nodes_explored, 3);
}

// Pending search nodes are charged to the memory budget, and Solve
// must hand a shared budget back as it found it whatever the outcome,
// also when it returns with nodes still on the stack. The budget
// starts 1,000 bytes charged, so a release of more than Solve charged
// (which clamps at zero) shows as well.
TEST(IlpSolverTest, SolveReturnsTheMemoryBudgetAsItFoundIt) {
  constexpr int64_t kPrecharged = 1000;
  // A fresh budget per solve, with the caller's memory limit.
  auto solve = [&](const IntegerProgram& program, SolverOptions options) {
    ResourceBudget budget;
    budget.set_memory_limit_bytes(options.budget.memory_limit_bytes());
    EXPECT_TRUE(budget.ChargeMemory(kPrecharged, "test").ok());
    options.budget = budget;
    SolveResult result = IlpSolver(options).Solve(program);
    EXPECT_EQ(budget.memory_used(), kPrecharged) << result.note;
    return result;
  };
  SolverOptions no_presolve;
  no_presolve.use_presolve = false;

  // kSat at node 2, with the <= sibling still on the stack.
  SolveResult sat = solve(HalfIntegralRootProgram(), no_presolve);
  EXPECT_EQ(sat.outcome, SolveOutcome::kSat);
  EXPECT_EQ(sat.nodes_explored, 2);

  SolveResult unsat = solve(ForcedUnsatProgram(), no_presolve);
  EXPECT_EQ(unsat.outcome, SolveOutcome::kUnsat);

  SolverOptions node_limited;
  node_limited.max_nodes = 10;
  SolveResult unknown = solve(ThinStripProgram(), node_limited);
  EXPECT_EQ(unknown.outcome, SolveOutcome::kUnknown);
  EXPECT_EQ(unknown.nodes_explored, 10);

  SolverOptions memory_limited;
  memory_limited.budget.set_memory_limit_bytes(kPrecharged + 16 * 1024);
  SolveResult exhausted = solve(ThinStripProgram(), memory_limited);
  EXPECT_EQ(exhausted.outcome, SolveOutcome::kResourceExhausted);
  EXPECT_GT(exhausted.nodes_explored, 2);
}

TEST(IlpSolverTest, BigCoefficientsStayExact) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  BigInt huge = BigInt::Pow(BigInt(10), 30);
  LinearExpr expr;
  expr.Add(x, BigInt(1));
  program.AddLinear(std::move(expr), Relation::kEq, huge);
  SolveResult result = IlpSolver().Solve(program);
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[x], huge);
}

// Parameterized feasibility sweep: a x + b y = c over a grid is SAT
// iff gcd(a,b) divides c and a nonnegative solution exists (checked
// by brute force).
struct DiophantineCase {
  int64_t a, b, c;
};

class DiophantineSweep : public ::testing::TestWithParam<DiophantineCase> {};

TEST_P(DiophantineSweep, MatchesBruteForce) {
  const auto& param = GetParam();
  bool brute = false;
  for (int64_t x = 0; x <= 50 && !brute; ++x) {
    for (int64_t y = 0; y <= 50 && !brute; ++y) {
      if (param.a * x + param.b * y == param.c) brute = true;
    }
  }
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr expr;
  expr.Add(x, BigInt(param.a)).Add(y, BigInt(param.b));
  program.AddLinear(std::move(expr), Relation::kEq, BigInt(param.c));
  program.SetUpperBound(x, BigInt(50));
  program.SetUpperBound(y, BigInt(50));
  SolveResult result = IlpSolver().Solve(program);
  EXPECT_EQ(result.outcome == SolveOutcome::kSat, brute)
      << param.a << "x + " << param.b << "y = " << param.c;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DiophantineSweep,
    ::testing::Values(DiophantineCase{3, 5, 17}, DiophantineCase{3, 5, 1},
                      DiophantineCase{3, 5, 2}, DiophantineCase{4, 6, 7},
                      DiophantineCase{4, 6, 10}, DiophantineCase{7, 11, 13},
                      DiophantineCase{2, 4, 98}, DiophantineCase{9, 12, 30},
                      DiophantineCase{9, 12, 31}, DiophantineCase{1, 1, 0}));

}  // namespace
}  // namespace xmlverify
