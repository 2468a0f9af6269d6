// Randomized stress for the exact solver stack: every SAT answer is a
// genuine solution; every UNSAT answer survives a randomized hunt for
// counterexamples; exactness holds under large coefficients; the
// sparse tableau stops at the dense tableau's vertex, on random LPs
// and on the encoders' LPs of generated specifications.
#include <gtest/gtest.h>

#include "base/string_util.h"
#include "difftest/spec_generator.h"
#include "encoding/cardinality.h"
#include "encoding/flow_encoder.h"
#include "encoding/regular_encoder.h"
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
    VarId var = program.NewVariable(StrCat("x", std::to_string(v)));
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
  int feasible = 0;
  const int kPrograms = 2000;
  for (int trial = 0; trial < kPrograms; ++trial) {
    RandomLpShape shape;
    shape.planted = trial % 2 == 0;
    shape.redundant_equalities = trial % 3 == 0 ? 2 : 0;
    RandomLp lp = GenerateRandomLp(&state, shape);
    SimplexResult sparse_result = SolveLp(lp.num_vars, lp.rows);
    SimplexResult dense_result = SolveLpDense(lp.num_vars, lp.rows);
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

// Encodes `spec` as the exact checker for `cls` does: the DTD flow
// system plus absolute cardinalities, or the regular encoder over the
// constraints folded into regular form.
Result<IntegerProgram> EncodeSpec(const Specification& spec,
                                  DifftestClass cls) {
  IntegerProgram program;
  if (cls == DifftestClass::kAcRegular) {
    ASSIGN_OR_RETURN(ConstraintSet regular,
                     AbsoluteAsRegular(spec.constraints, spec.dtd));
    RETURN_IF_ERROR(
        RegularEncoder::Build(spec.dtd, regular, &program).status());
    return program;
  }
  ASSIGN_OR_RETURN(DtdFlowSystem flow,
                   DtdFlowSystem::Build(spec.dtd, nullptr, &program));
  RETURN_IF_ERROR(
      AbsoluteCardinality::Emit(spec.dtd, spec.constraints, {}, &flow, &program)
          .status());
  return program;
}

LinearConstraint BoundRow(VarId var, Relation relation, BigInt bound) {
  LinearConstraint row;
  row.lhs.Add(var, BigInt(1));
  row.relation = relation;
  row.rhs = std::move(bound);
  return row;
}

// Solves `rows` on both tableaus: the same verdict, the same vertex,
// and no more pivots on the sparse one. Returns the sparse result.
SimplexResult SolveOnBothEngines(int num_vars,
                                 const std::vector<LinearConstraint>& rows,
                                 const std::string& where) {
  SimplexResult sparse = SolveLp(num_vars, rows);
  SimplexResult dense = SolveLpDense(num_vars, rows);
  EXPECT_EQ(sparse.feasible, dense.feasible) << where;
  if (sparse.feasible && dense.feasible) {
    EXPECT_EQ(sparse.solution, dense.solution) << where;
  }
  EXPECT_LE(sparse.pivots, dense.pivots) << where;
  return sparse;
}

// Parameterized by class name, so each case prints as its class.
class EncoderLpSweep : public ::testing::TestWithParam<const char*> {};

// The LPs branch and bound meets on the paper's encodings: each
// generated spec's root relaxation (linear rows plus upper bounds, as
// the solver assembles them without presolve) and, when the root
// vertex is fractional, both children of its first fractional
// coordinate.
TEST_P(EncoderLpSweep, SparseAndDenseEnginesReturnTheSameVertex) {
  ASSERT_OK_AND_ASSIGN(DifftestClass cls, ParseDifftestClass(GetParam()));
  int feasible_roots = 0;
  int branched = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string where =
        std::string(GetParam()) + " seed " + std::to_string(seed);
    ASSERT_OK_AND_ASSIGN(GeneratedSpec generated, GenerateSpec(seed, cls));
    ASSERT_OK_AND_ASSIGN(IntegerProgram program,
                         EncodeSpec(generated.spec, cls));
    const int num_vars = program.num_variables();
    std::vector<LinearConstraint> root = program.linear();
    for (VarId var = 0; var < num_vars; ++var) {
      if (const BigInt* bound = program.UpperBound(var)) {
        root.push_back(BoundRow(var, Relation::kLe, *bound));
      }
    }
    SimplexResult lp = SolveOnBothEngines(num_vars, root, where);
    if (!lp.feasible) continue;
    ++feasible_roots;
    for (VarId var = 0; var < num_vars; ++var) {
      const Rational& value = lp.solution[var];
      if (value.is_integer()) continue;
      ++branched;
      std::vector<LinearConstraint> child = root;
      child.push_back(BoundRow(var, Relation::kLe, value.Floor()));
      SolveOnBothEngines(num_vars, child, where + " branch<=");
      child.back() = BoundRow(var, Relation::kGe, value.Ceil());
      SolveOnBothEngines(num_vars, child, where + " branch>=");
      break;
    }
  }
  // Vertices are compared, and so are branch children.
  EXPECT_GT(feasible_roots, 0);
  EXPECT_GT(branched, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Classes, EncoderLpSweep, ::testing::Values("ack", "acfk", "reg"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

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
