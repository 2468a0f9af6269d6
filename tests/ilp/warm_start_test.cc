// Dual-simplex warm starts (ResolveLp): verdict equivalence with a
// cold solve, fallback triggers, and solver-level warm-vs-cold
// agreement. The warm path re-solves a child system from the parent's
// exported tableau; its feasibility verdicts must be exactly those of
// a from-scratch phase-1 on the same rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "ilp/simplex.h"
#include "ilp/solver.h"
#include "tests/ilp/random_lp.h"

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

bool SatisfiedBy(const LinearConstraint& constraint,
                 const std::vector<Rational>& point) {
  Rational lhs(0);
  for (const auto& [var, coeff] : constraint.lhs.terms()) {
    lhs += point[var] * Rational(coeff);
  }
  Rational rhs = Rational(constraint.rhs);
  switch (constraint.relation) {
    case Relation::kLe:
      return lhs <= rhs;
    case Relation::kGe:
      return lhs >= rhs;
    case Relation::kEq:
      return lhs == rhs;
  }
  return false;
}

bool AllSatisfied(const std::vector<LinearConstraint>& constraints,
                  const std::vector<Rational>& point) {
  for (const LinearConstraint& constraint : constraints) {
    if (!SatisfiedBy(constraint, point)) return false;
  }
  for (const Rational& value : point) {
    if (value < Rational(0)) return false;
  }
  return true;
}

std::vector<LinearConstraint> Joined(std::vector<LinearConstraint> base,
                                     const std::vector<LinearConstraint>& extra) {
  base.insert(base.end(), extra.begin(), extra.end());
  return base;
}

SimplexOptions Exporting() {
  SimplexOptions options;
  options.export_warm_state = true;
  return options;
}

TEST(WarmStartTest, ExportProducesStateOnFeasibleSparseSolves) {
  std::vector<LinearConstraint> constraints = {
      Make({{0, 1}, {1, 1}}, Relation::kGe, 3),
      Make({{0, 1}}, Relation::kLe, 4),
      Make({{1, 1}}, Relation::kLe, 4),
  };
  SimplexResult exported =
      SolveLp(2, constraints, Deadline(), nullptr, Exporting());
  ASSERT_TRUE(exported.feasible);
  ASSERT_NE(exported.warm_state, nullptr);
  EXPECT_GT(WarmStateBytes(*exported.warm_state), 0);

  // Without the option nothing is exported; the dense engine never
  // exports.
  EXPECT_EQ(SolveLp(2, constraints).warm_state, nullptr);
  EXPECT_EQ(SolveLpDense(2, constraints).warm_state, nullptr);
}

TEST(WarmStartTest, WarmResolveMatchesColdOnBoundTightening) {
  std::vector<LinearConstraint> base = {
      Make({{0, 1}, {1, 1}}, Relation::kGe, 3),
      Make({{0, 1}}, Relation::kLe, 4),
      Make({{1, 1}}, Relation::kLe, 4),
  };
  SimplexResult parent = SolveLp(2, base, Deadline(), nullptr, Exporting());
  ASSERT_TRUE(parent.feasible);
  ASSERT_NE(parent.warm_state, nullptr);

  // Tightening x <= 1 keeps the system feasible (x=1, y=2).
  std::vector<LinearConstraint> tighten = {Make({{0, 1}}, Relation::kLe, 1)};
  SimplexResult warm = ResolveLp(parent.warm_state, base, tighten,
                                 /*delta=*/1, /*num_vars=*/2);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_FALSE(warm.warm_fallback);
  ASSERT_TRUE(warm.feasible);
  EXPECT_TRUE(AllSatisfied(Joined(base, tighten), warm.solution));

  // x <= 0 and y <= 2 cannot reach x + y >= 3: warm infeasibility
  // must match the cold verdict.
  std::vector<LinearConstraint> refute = {Make({{0, 1}}, Relation::kLe, 0),
                                          Make({{1, 1}}, Relation::kLe, 2)};
  SimplexResult warm_infeasible =
      ResolveLp(parent.warm_state, base, refute, /*delta=*/2,
                /*num_vars=*/2);
  EXPECT_FALSE(warm_infeasible.feasible);
  EXPECT_FALSE(SolveLp(2, Joined(base, refute)).feasible);
}

TEST(WarmStartTest, OnlyTrailingDeltaRowsOfExtraAreAppended) {
  // A node two levels deep: `extra` holds the grandparent's branch row
  // (already in the parent's tableau) and the node's own row. Only the
  // latter, y <= 0, makes x + y >= 3 unreachable under x <= 2.
  std::vector<LinearConstraint> base = {
      Make({{0, 1}, {1, 1}}, Relation::kGe, 3),
      Make({{0, 1}}, Relation::kLe, 4),
      Make({{1, 1}}, Relation::kLe, 4),
  };
  std::vector<LinearConstraint> extra = {Make({{0, 1}}, Relation::kLe, 2)};
  SimplexResult parent = SolveLp(2, Joined(base, extra), Deadline(), nullptr,
                                 Exporting());
  ASSERT_TRUE(parent.feasible);
  extra.push_back(Make({{1, 1}}, Relation::kLe, 0));
  SimplexResult warm =
      ResolveLp(parent.warm_state, base, extra, /*delta=*/1, /*num_vars=*/2);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_FALSE(warm.feasible);
  EXPECT_FALSE(SolveLp(2, Joined(base, extra)).feasible);
}

TEST(WarmStartTest, EqualityDeltaRowFallsBackCold) {
  std::vector<LinearConstraint> base = {
      Make({{0, 1}, {1, 1}}, Relation::kLe, 10),
  };
  SimplexResult parent = SolveLp(2, base, Deadline(), nullptr, Exporting());
  ASSERT_NE(parent.warm_state, nullptr);
  std::vector<LinearConstraint> extra = {Make({{0, 1}}, Relation::kEq, 3)};
  SimplexResult result =
      ResolveLp(parent.warm_state, base, extra, /*delta=*/1, /*num_vars=*/2);
  EXPECT_TRUE(result.warm_fallback);
  EXPECT_FALSE(result.warm_used);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(AllSatisfied(Joined(base, extra), result.solution));
}

TEST(WarmStartTest, NullParentFallsBackCold) {
  std::vector<LinearConstraint> base = {Make({{0, 2}}, Relation::kGe, 1)};
  std::vector<LinearConstraint> extra = {Make({{0, 2}}, Relation::kLe, 5)};
  SimplexResult result = ResolveLp(nullptr, base, extra, /*delta=*/1,
                                   /*num_vars=*/1);
  EXPECT_TRUE(result.warm_fallback);
  EXPECT_TRUE(result.feasible);
}

// Branch-shaped delta rows against a feasible parent vertex: mostly
// bounds just past the parent's value of one variable (as the branch
// rows are), sometimes a general inequality (as conditional consequents
// and linearized prequadratics are).
std::vector<LinearConstraint> BranchDelta(const RandomLp& lp,
                                          const std::vector<Rational>& at,
                                          uint64_t* state) {
  auto below = [state](int64_t n) { return LpRandomBelow(state, n); };
  std::vector<LinearConstraint> delta;
  const int rows = 1 + static_cast<int>(below(3));
  for (int row = 0; row < rows; ++row) {
    const Relation relation = below(2) == 0 ? Relation::kLe : Relation::kGe;
    if (below(5) > 0) {
      const VarId var = static_cast<VarId>(below(lp.num_vars));
      const int64_t step = below(3);
      const int64_t bound = relation == Relation::kLe
                                ? *at[var].Floor().TryToInt64() - step
                                : *at[var].Ceil().TryToInt64() + step;
      delta.push_back(Make({{var, 1}}, relation, bound));
    } else {
      std::vector<std::pair<VarId, int64_t>> terms;
      for (int t = 0; t < 3; ++t) {
        terms.emplace_back(static_cast<VarId>(below(lp.num_vars)),
                           below(5) - 2);
      }
      delta.push_back(Make(std::move(terms), relation, below(9) - 2));
    }
  }
  return delta;
}

// Seeded sweep: random base systems, random bound-row deltas (the
// exact shape branch-and-bound generates), warm verdict must equal the
// cold verdict on every instance, and feasible warm points must
// satisfy the full child system. The first generator is tiny; the
// second is at encoder scale, with redundant equality rows whose
// artificials stay basic at zero in the exported tableau while the
// others were dropped as they left the basis.
TEST(WarmStartTest, RandomizedSweepAgreesWithCold) {
  uint64_t state = 0x51ed270b0f0162c5ull;
  auto next = [&state](int64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int64_t>((state >> 33) % static_cast<uint64_t>(bound));
  };
  const int kVars = 3;
  int warm_hits = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<LinearConstraint> base;
    const int rows = 2 + static_cast<int>(next(4));
    for (int row = 0; row < rows; ++row) {
      std::vector<std::pair<VarId, int64_t>> terms;
      for (VarId var = 0; var < kVars; ++var) {
        int64_t coeff = next(7) - 3;
        if (coeff != 0) terms.emplace_back(var, coeff);
      }
      Relation relation = next(4) == 0 ? Relation::kEq
                          : next(2) == 0 ? Relation::kLe
                                         : Relation::kGe;
      base.push_back(Make(std::move(terms), relation, next(13) - 4));
    }
    SimplexResult parent =
        SolveLp(kVars, base, Deadline(), nullptr, Exporting());
    if (!parent.feasible || parent.warm_state == nullptr) continue;

    std::vector<LinearConstraint> extra;
    const int delta = 1 + static_cast<int>(next(2));
    for (int row = 0; row < delta; ++row) {
      VarId var = static_cast<VarId>(next(kVars));
      Relation relation = next(2) == 0 ? Relation::kLe : Relation::kGe;
      extra.push_back(Make({{var, 1}}, relation, next(5)));
    }
    std::vector<LinearConstraint> child = Joined(base, extra);
    SimplexResult warm =
        ResolveLp(parent.warm_state, base, extra, delta, kVars);
    SimplexResult cold = SolveLp(kVars, child);
    ASSERT_EQ(warm.feasible, cold.feasible)
        << "trial " << trial << ": warm and cold verdicts diverge";
    if (warm.warm_used) ++warm_hits;
    if (warm.feasible) {
      EXPECT_TRUE(AllSatisfied(child, warm.solution)) << "trial " << trial;
    }
  }
  // The sweep must actually exercise the warm path, not just its
  // fallbacks.
  EXPECT_GT(warm_hits, 50);

  uint64_t lp_state = 0x6a09e667f3bcc909ull;
  int large_warm_hits = 0;
  int large_infeasible = 0;
  const int kLargeTrials = 2000;
  for (int trial = 0; trial < kLargeTrials; ++trial) {
    RandomLpShape shape;
    shape.planted = true;
    shape.redundant_equalities = 1 + trial % 3;
    RandomLp lp = GenerateRandomLp(&lp_state, shape);
    SimplexResult parent =
        SolveLp(lp.num_vars, lp.rows, Deadline(), nullptr, Exporting());
    ASSERT_TRUE(parent.feasible) << "large trial " << trial;
    ASSERT_NE(parent.warm_state, nullptr);

    std::vector<LinearConstraint> extra =
        BranchDelta(lp, parent.solution, &lp_state);
    std::vector<LinearConstraint> child = Joined(lp.rows, extra);
    SimplexResult warm =
        ResolveLp(parent.warm_state, lp.rows, extra,
                  static_cast<int>(extra.size()), lp.num_vars);
    SimplexResult cold = SolveLp(lp.num_vars, child);
    ASSERT_EQ(warm.feasible, cold.feasible)
        << "large trial " << trial << ": warm and cold verdicts diverge";
    if (warm.warm_used) ++large_warm_hits;
    if (warm.feasible) {
      EXPECT_TRUE(AllSatisfied(child, warm.solution))
          << "large trial " << trial;
    } else {
      ++large_infeasible;
    }
  }
  EXPECT_GT(large_warm_hits, kLargeTrials * 9 / 10);
  // Both verdicts occur.
  EXPECT_GT(large_infeasible, kLargeTrials / 10);
  EXPECT_LT(large_infeasible, kLargeTrials * 9 / 10);
}

// Solver-level agreement: warm starts may route the search through
// different LP vertices, but the verdict must match the cold pipeline
// on every program, and kSat witnesses must satisfy the program.
TEST(WarmStartTest, SolverVerdictsMatchColdPipeline) {
  struct Case {
    int64_t a, b, c;
  };
  const Case cases[] = {{3, 5, 17}, {3, 5, 2},  {4, 6, 7}, {4, 6, 10},
                        {7, 11, 13}, {9, 12, 30}, {9, 12, 31}, {2, 4, 98}};
  for (const Case& item : cases) {
    IntegerProgram program;
    VarId x = program.NewVariable("x");
    VarId y = program.NewVariable("y");
    LinearExpr expr;
    expr.Add(x, BigInt(item.a)).Add(y, BigInt(item.b));
    program.AddLinear(std::move(expr), Relation::kEq, BigInt(item.c));
    program.SetUpperBound(x, BigInt(50));
    program.SetUpperBound(y, BigInt(50));

    SolverOptions warm_options;
    warm_options.warm_start = true;
    SolverOptions cold_options;
    cold_options.warm_start = false;
    SolveResult warm = IlpSolver(warm_options).Solve(program);
    SolveResult cold = IlpSolver(cold_options).Solve(program);
    EXPECT_EQ(warm.outcome, cold.outcome)
        << item.a << "x + " << item.b << "y = " << item.c;
    if (warm.outcome == SolveOutcome::kSat) {
      EXPECT_TRUE(program.IsSatisfied(warm.assignment));
    }
  }
}

TEST(WarmStartTest, ConditionalProgramsAgreeWarmVsCold) {
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

  SolverOptions warm_options;
  warm_options.warm_start = true;
  SolverOptions cold_options;
  cold_options.warm_start = false;
  EXPECT_EQ(IlpSolver(warm_options).Solve(program).outcome,
            SolveOutcome::kUnsat);
  EXPECT_EQ(IlpSolver(cold_options).Solve(program).outcome,
            SolveOutcome::kUnsat);
}

}  // namespace
}  // namespace xmlverify
