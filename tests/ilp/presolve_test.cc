#include "ilp/presolve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "core/specification.h"
#include "encoding/cardinality.h"
#include "encoding/flow_encoder.h"
#include "ilp/linear.h"
#include "ilp/solver.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/subset_sum.h"
#include "tests/ilp/random_lp.h"

namespace xmlverify {
namespace {

LinearExpr Expr(std::vector<std::pair<VarId, int64_t>> terms) {
  LinearExpr expr;
  for (const auto& [var, coeff] : terms) expr.Add(var, BigInt(coeff));
  return expr;
}

TEST(PresolveTest, GcdDivisibilityRefutes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 2}, {y, 4}}), Relation::kEq, BigInt(5), "even");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
  EXPECT_NE(info.infeasible_reason().find("gcd"), std::string::npos);
}

TEST(PresolveTest, GcdTightensInequality) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 2}, {y, 4}}), Relation::kLe, BigInt(5), "row");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  EXPECT_GE(info.stats().gcd_tightened, 1);
  // 2x + 4y <= 5 tightens to x + 2y <= 2.
  bool found = false;
  for (const LinearConstraint& row : info.rows()) {
    if (row.label != "row") continue;
    found = true;
    EXPECT_EQ(row.relation, Relation::kLe);
    EXPECT_EQ(row.rhs, BigInt(2));
    for (const auto& [var, coeff] : row.lhs.terms()) {
      (void)var;
      EXPECT_TRUE(coeff == BigInt(1) || coeff == BigInt(2));
    }
  }
  EXPECT_TRUE(found);
}

TEST(PresolveTest, EmptyRowRefutes) {
  IntegerProgram program;
  program.NewVariable("x");
  program.AddLinear(LinearExpr(), Relation::kGe, BigInt(1), "empty");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
}

TEST(PresolveTest, SingletonEqualityFixesAndSubstitutes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 1}}), Relation::kEq, BigInt(5), "fix");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(8), "sum");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  EXPECT_GE(info.stats().vars_fixed, 1);
  // x == 5 fixes x; substituting it turns the sum row into the
  // singleton y <= 3, which pins y (unreferenced afterwards) to its
  // lower bound. Everything presolves away.
  EXPECT_EQ(info.reduced_num_vars(), 0);
  EXPECT_EQ(info.ReducedVar(x), -1);
  EXPECT_EQ(info.ReducedVar(y), -1);
  std::vector<BigInt> original = info.MapSolution({});
  ASSERT_EQ(original.size(), 2u);
  EXPECT_EQ(original[0], BigInt(5));
  EXPECT_EQ(original[1], BigInt(0));
  EXPECT_TRUE(program.IsSatisfied(original));
}

TEST(PresolveTest, SingletonDivisibilityRefutes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  program.AddLinear(Expr({{x, 3}}), Relation::kEq, BigInt(7), "third");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
}

TEST(PresolveTest, ConflictingEqualitiesRefute) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kEq, BigInt(2), "a");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kEq, BigInt(3), "b");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
}

TEST(PresolveTest, CrossedInequalityPairRefutes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(2), "hi");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kGe, BigInt(5), "lo");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
}

TEST(PresolveTest, DuplicateRowsKeepTightest) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(5), "loose");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(3), "tight");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  EXPECT_GE(info.stats().duplicates_merged, 1);
  int survivors = 0;
  for (const LinearConstraint& row : info.rows()) {
    if (row.label == "loose" || row.label == "tight") {
      ++survivors;
      EXPECT_EQ(row.rhs, BigInt(3));
    }
  }
  EXPECT_EQ(survivors, 1);
}

TEST(PresolveTest, AllNegativeRowNormalizes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  // -2x - 2y <= -4 is x + y >= 2 after negation and gcd division.
  program.AddLinear(Expr({{x, -2}, {y, -2}}), Relation::kLe, BigInt(-4), "neg");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  bool found = false;
  for (const LinearConstraint& row : info.rows()) {
    if (row.label != "neg") continue;
    found = true;
    EXPECT_EQ(row.relation, Relation::kGe);
    EXPECT_EQ(row.rhs, BigInt(2));
  }
  EXPECT_TRUE(found);
}

TEST(PresolveTest, PositiveRowForcesZeros) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  VarId z = program.NewVariable("z");
  program.AddLinear(Expr({{x, 1}, {y, 2}}), Relation::kLe, BigInt(0), "zero");
  program.AddLinear(Expr({{x, 1}, {y, 1}, {z, 1}}), Relation::kGe, BigInt(1),
                    "live");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  // x and y are pinned to zero and substituted out; the surviving row
  // becomes the singleton z >= 1, so z pins to its lower bound and the
  // whole system presolves away.
  EXPECT_EQ(info.reduced_num_vars(), 0);
  std::vector<BigInt> original = info.MapSolution({});
  EXPECT_EQ(original[0], BigInt(0));
  EXPECT_EQ(original[1], BigInt(0));
  EXPECT_EQ(original[2], BigInt(1));
  EXPECT_TRUE(program.IsSatisfied(original));
}

TEST(PresolveTest, UpperBoundsFlowIntoBoundRows) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.SetUpperBound(x, BigInt(7));
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kGe, BigInt(1), "row");
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible());
  bool found_ub = false;
  for (const LinearConstraint& row : info.rows()) {
    if (row.label == "pre-ub" &&
        row.lhs.terms().count(info.ReducedVar(x)) > 0) {
      found_ub = true;
      EXPECT_EQ(row.rhs, BigInt(7));
    }
  }
  EXPECT_TRUE(found_ub);
  (void)y;
}

TEST(PresolveTest, BoundConflictRefutes) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  program.SetUpperBound(x, BigInt(2));
  program.AddLinear(Expr({{x, 1}}), Relation::kGe, BigInt(5), "low");
  PresolveInfo info = PresolveProgram(program);
  EXPECT_TRUE(info.infeasible());
}

TEST(PresolveTest, EliminationDisabledKeepsIdentitySpace) {
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  program.AddLinear(Expr({{x, 1}}), Relation::kEq, BigInt(5), "fix");
  program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(8), "sum");
  PresolveOptions options;
  options.allow_variable_elimination = false;
  PresolveInfo info = PresolveProgram(program, options);
  ASSERT_FALSE(info.infeasible());
  EXPECT_EQ(info.reduced_num_vars(), 2);
  EXPECT_EQ(info.ReducedVar(x), x);
  EXPECT_EQ(info.ReducedVar(y), y);
  // The fixed variable keeps its column, pinned by bound rows, so an
  // identity-mapped LP point cannot drift from the substituted value.
  bool pinned_below = false;
  bool pinned_above = false;
  for (const LinearConstraint& row : info.rows()) {
    if (row.lhs.terms().count(x) == 0) continue;
    if (row.label == "pre-ub" && row.rhs == BigInt(5)) pinned_above = true;
    if (row.label == "pre-lb" && row.rhs == BigInt(5)) pinned_below = true;
  }
  EXPECT_TRUE(pinned_below);
  EXPECT_TRUE(pinned_above);
}

// x1 = 1 and x(k-1) + x(k) = 2k - 1: each link becomes a singleton
// only once the link before it is substituted, so the chain resolves
// only at the fixpoint, one link per pinned variable.
TEST(PresolveTest, LinkedEqualityChainResolvesCompletely) {
  constexpr int kLinks = 20;
  IntegerProgram program;
  std::vector<VarId> x;
  for (int k = 1; k <= kLinks; ++k) {
    x.push_back(program.NewVariable("x" + std::to_string(k)));
  }
  program.AddLinear(Expr({{x[0], 1}}), Relation::kEq, BigInt(1), "link1");
  for (int k = 2; k <= kLinks; ++k) {
    program.AddLinear(Expr({{x[k - 2], 1}, {x[k - 1], 1}}), Relation::kEq,
                      BigInt(2 * k - 1), "link" + std::to_string(k));
  }
  PresolveInfo info = PresolveProgram(program);
  ASSERT_FALSE(info.infeasible()) << info.infeasible_reason();
  EXPECT_EQ(info.reduced_num_vars(), 0);
  EXPECT_TRUE(info.rows().empty());
  for (VarId var : x) EXPECT_EQ(info.ReducedVar(var), -1);
  std::vector<BigInt> original = info.MapSolution({});
  ASSERT_EQ(original.size(), static_cast<size_t>(kLinks));
  for (int k = 1; k <= kLinks; ++k) EXPECT_EQ(original[k - 1], BigInt(k));
  EXPECT_TRUE(program.IsSatisfied(original));
}

// Presolves `program`, then presolves the program made of its output
// (rows() over reduced_num_vars() variables) again. A fixpoint leaves
// nothing for the second run: it returns the same rows, refutes
// nothing and, with elimination allowed, pins no variable. Returns
// false when the first run refutes `program`.
bool ExpectIdempotent(const IntegerProgram& program,
                      const PresolveOptions& options,
                      const std::string& context) {
  PresolveInfo first = PresolveProgram(program, options);
  if (first.infeasible()) return false;
  IntegerProgram reduced;
  for (int var = 0; var < first.reduced_num_vars(); ++var) {
    reduced.NewVariable("r" + std::to_string(var));
  }
  for (const LinearConstraint& row : first.rows()) {
    reduced.AddLinear(row.lhs, row.relation, row.rhs, row.label);
  }
  PresolveInfo second = PresolveProgram(reduced, options);
  EXPECT_FALSE(second.infeasible())
      << context << ": " << second.infeasible_reason();
  if (second.infeasible()) return true;
  EXPECT_EQ(second.reduced_num_vars(), first.reduced_num_vars()) << context;
  if (options.allow_variable_elimination) {
    EXPECT_EQ(second.stats().vars_fixed, 0) << context;
  }
  EXPECT_EQ(second.rows().size(), first.rows().size()) << context;
  const size_t common = std::min(first.rows().size(), second.rows().size());
  for (size_t i = 0; i < common; ++i) {
    EXPECT_EQ(second.rows()[i].ToString(reduced.variable_names()),
              first.rows()[i].ToString(reduced.variable_names()))
        << context << ", row " << i;
  }
  return true;
}

PresolveOptions WithElimination(bool allow) {
  PresolveOptions options;
  options.allow_variable_elimination = allow;
  return options;
}

TEST(PresolveTest, SecondPresolveOfRandomProgramsChangesNothing) {
  int compared = 0;
  for (bool planted : {false, true}) {
    RandomLpShape shape;
    shape.planted = planted;
    shape.redundant_equalities = planted ? 2 : 0;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      uint64_t state = seed;
      RandomLp lp = GenerateRandomLp(&state, shape);
      IntegerProgram program;
      for (int var = 0; var < lp.num_vars; ++var) {
        program.NewVariable("x" + std::to_string(var));
      }
      for (const LinearConstraint& row : lp.rows) {
        program.AddLinear(row.lhs, row.relation, row.rhs, row.label);
      }
      for (bool allow : {true, false}) {
        std::string context = std::string(planted ? "planted" : "random") +
                              " seed " + std::to_string(seed) +
                              (allow ? "" : ", no elimination");
        if (ExpectIdempotent(program, WithElimination(allow), context)) {
          ++compared;
        }
      }
    }
  }
  // Planted programs are feasible, so at least those get compared.
  EXPECT_GE(compared, 400);
}

// The linear rows of an absolute check's program: Psi_D and C_Sigma,
// built the way CheckAbsoluteConsistency builds them.
IntegerProgram EncodeAbsolute(const Specification& spec) {
  IntegerProgram program;
  DtdFlowSystem flow =
      DtdFlowSystem::Build(spec.dtd, nullptr, &program).ValueOrDie();
  AbsoluteCardinality::Emit(spec.dtd, spec.constraints, {}, &flow, &program)
      .ValueOrDie();
  return program;
}

TEST(PresolveTest, SecondPresolveOfEncoderProgramsChangesNothing) {
  std::vector<std::pair<std::string, Specification>> specs;
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    specs.emplace_back(
        "cnf n=6 seed " + std::to_string(seed),
        CnfToDepth2Spec(CnfFormula::Random(6, 12, 3, seed)).ValueOrDie());
  }
  SubsetSumInstance subset_sum;
  subset_sum.items = {37, 101, 143, 58, 219, 7, 180, 96};
  subset_sum.target = 404;
  specs.emplace_back("subset-sum b=8",
                     SubsetSumToSpec(subset_sum).ValueOrDie());
  for (const auto& [name, spec] : specs) {
    IntegerProgram program = EncodeAbsolute(spec);
    for (bool allow : {true, false}) {
      std::string context = name + (allow ? "" : ", no elimination");
      EXPECT_TRUE(ExpectIdempotent(program, WithElimination(allow), context))
          << context << ": the first presolve refuted the program";
    }
  }
}

// End-to-end agreement: the default pipeline and the legacy one (no
// presolve, every node re-solved cold) must return the same verdict,
// and every SAT witness must satisfy the original program.
TEST(PresolveTest, SolverAgreesWithLegacyPipeline) {
  struct Case {
    const char* name;
    IntegerProgram program;
  };
  std::vector<Case> cases;
  {
    Case c{"feasible-chain", {}};
    VarId x = c.program.NewVariable("x");
    VarId y = c.program.NewVariable("y");
    VarId z = c.program.NewVariable("z");
    c.program.AddLinear(Expr({{x, 2}, {y, 4}}), Relation::kLe, BigInt(9), "");
    c.program.AddLinear(Expr({{y, 1}, {z, 3}}), Relation::kGe, BigInt(4), "");
    c.program.AddLinear(Expr({{x, 1}}), Relation::kGe, BigInt(1), "");
    cases.push_back(std::move(c));
  }
  {
    Case c{"infeasible-parity", {}};
    VarId x = c.program.NewVariable("x");
    VarId y = c.program.NewVariable("y");
    c.program.AddLinear(Expr({{x, 2}, {y, 2}}), Relation::kEq, BigInt(7), "");
    cases.push_back(std::move(c));
  }
  {
    Case c{"conditional", {}};
    VarId x = c.program.NewVariable("x");
    VarId y = c.program.NewVariable("y");
    c.program.AddLinear(Expr({{x, 1}}), Relation::kGe, BigInt(1), "");
    c.program.AddConditional(x, Expr({{y, 1}}), Relation::kGe, BigInt(2), "");
    c.program.AddLinear(Expr({{x, 1}, {y, 1}}), Relation::kLe, BigInt(6), "");
    cases.push_back(std::move(c));
  }
  {
    Case c{"eq-system", {}};
    VarId x = c.program.NewVariable("x");
    VarId y = c.program.NewVariable("y");
    c.program.AddLinear(Expr({{x, 3}, {y, 5}}), Relation::kEq, BigInt(19), "");
    c.program.AddLinear(Expr({{x, 1}, {y, -1}}), Relation::kLe, BigInt(2), "");
    cases.push_back(std::move(c));
  }
  for (Case& c : cases) {
    SolverOptions fast;
    SolveResult fast_result = IlpSolver(fast).Solve(c.program);
    SolverOptions legacy;
    legacy.use_presolve = false;
    legacy.warm_start = false;
    SolveResult legacy_result = IlpSolver(legacy).Solve(c.program);
    EXPECT_EQ(static_cast<int>(fast_result.outcome),
              static_cast<int>(legacy_result.outcome))
        << c.name;
    if (fast_result.outcome == SolveOutcome::kSat) {
      EXPECT_TRUE(c.program.IsSatisfied(fast_result.assignment)) << c.name;
    }
  }
}

}  // namespace
}  // namespace xmlverify
