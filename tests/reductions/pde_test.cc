// Theorem 3.1 cross-validation: PDE instances solved directly agree
// with the consistency of their SAT(AC^{*,1}_{PK,FK}) reductions.
#include "reductions/pde_reduction.h"

#include <gtest/gtest.h>

#include <ostream>

#include "core/consistency.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

PdeSystem LinearSystem() {
  // x0 + 2 x1 <= 5, x0 + x1 >= 3.
  PdeSystem system;
  system.num_variables = 2;
  system.rows.push_back({{1, 2}, true, 5});
  system.rows.push_back({{1, 1}, false, 3});
  return system;
}

TEST(PdeTest, DirectSolveLinear) {
  ASSERT_OK_AND_ASSIGN(SolveResult result, SolvePde(LinearSystem()));
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
}

TEST(PdeTest, DirectSolveInfeasible) {
  // x0 >= 4 and x0 <= 2 (expressed with two rows).
  PdeSystem system;
  system.num_variables = 1;
  system.rows.push_back({{1}, false, 4});
  system.rows.push_back({{1}, true, 2});
  ASSERT_OK_AND_ASSIGN(SolveResult result, SolvePde(system));
  EXPECT_EQ(result.outcome, SolveOutcome::kUnsat);
}

TEST(PdeTest, DirectSolvePrequadratic) {
  // x0 >= 9, x0 <= 10, x0 <= x1 * x1, x1 <= 3  ->  x0 in {9,10}? x1=3
  // gives x1*x1 = 9, so x0 = 9.
  PdeSystem system;
  system.num_variables = 2;
  system.rows.push_back({{1, 0}, false, 9});
  system.rows.push_back({{1, 0}, true, 10});
  system.rows.push_back({{0, 1}, true, 3});
  system.prequadratics.push_back({0, 1, 1});
  ASSERT_OK_AND_ASSIGN(SolveResult result, SolvePde(system));
  ASSERT_EQ(result.outcome, SolveOutcome::kSat);
  EXPECT_EQ(result.assignment[0], BigInt(9));
  EXPECT_EQ(result.assignment[1], BigInt(3));
}

TEST(PdeTest, ReductionYieldsPrimaryMultiAttrClass) {
  PdeSystem system = LinearSystem();
  system.prequadratics.push_back({0, 1, 1});
  ASSERT_OK_AND_ASSIGN(Specification spec, PdeToSpec(system));
  EXPECT_TRUE(spec.constraints.AbsoluteKeysPrimary());
  EXPECT_TRUE(spec.constraints.AbsoluteInclusionsUnary());
  EXPECT_EQ(spec.Classify(), ConstraintClass::kAcMultiPrimary);
}

struct PdeCase {
  PdeSystem system;
  bool expect_sat;
  const char* label;
};

PdeCase MakeCase(std::vector<PdeSystem::LinearRow> rows,
                 std::vector<PdeSystem::Prequadratic> prequadratics,
                 int num_variables, bool expect_sat, const char* label) {
  PdeCase c;
  c.system.num_variables = num_variables;
  c.system.rows = std::move(rows);
  c.system.prequadratics = std::move(prequadratics);
  c.expect_sat = expect_sat;
  c.label = label;
  return c;
}

// Names each case by its label. The default printer dumps the
// object's bytes, heap addresses included, so the test names would
// change from one build to the next.
void PrintTo(const PdeCase& param, std::ostream* os) { *os << param.label; }

class PdeReductionSweep : public ::testing::TestWithParam<PdeCase> {};

TEST_P(PdeReductionSweep, ReductionMatchesDirectSolve) {
  const PdeCase& param = GetParam();
  ASSERT_OK_AND_ASSIGN(SolveResult direct, SolvePde(param.system));
  ASSERT_NE(direct.outcome, SolveOutcome::kUnknown);
  EXPECT_EQ(direct.outcome == SolveOutcome::kSat, param.expect_sat)
      << param.label;

  ASSERT_OK_AND_ASSIGN(Specification spec, PdeToSpec(param.system));
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  EXPECT_EQ(verdict.outcome, param.expect_sat
                                 ? ConsistencyOutcome::kConsistent
                                 : ConsistencyOutcome::kInconsistent)
      << param.label << ": " << verdict.note;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PdeReductionSweep,
    ::testing::Values(
        // x0 >= 2, x0 <= 4: SAT.
        MakeCase({{{1}, false, 2}, {{1}, true, 4}}, {}, 1, true, "interval"),
        // x0 >= 4, x0 <= 2: UNSAT.
        MakeCase({{{1}, false, 4}, {{1}, true, 2}}, {}, 1, false,
                 "empty-interval"),
        // x0 + x1 >= 2, x0 + x1 <= 3: SAT.
        MakeCase({{{1, 1}, false, 2}, {{1, 1}, true, 3}}, {}, 2, true,
                 "band"),
        // x0 >= 4, x0 <= x1*x1, x1 <= 2: SAT (x1 = 2, x0 = 4).
        MakeCase({{{1, 0}, false, 4}, {{0, 1}, true, 2}}, {{0, 1, 1}}, 2,
                 true, "square-fits"),
        // x0 >= 5, x0 <= x1*x1, x1 <= 2: UNSAT (4 < 5).
        MakeCase({{{1, 0}, false, 5}, {{0, 1}, true, 2}}, {{0, 1, 1}}, 2,
                 false, "square-too-small"),
        // x0 >= 6, x0 <= x1*x2, x1 <= 2, x2 <= 3: SAT (2*3 = 6).
        MakeCase({{{1, 0, 0}, false, 6},
                  {{0, 1, 0}, true, 2},
                  {{0, 0, 1}, true, 3}},
                 {{0, 1, 2}}, 3, true, "product-exact"),
        // x0 >= 7, x0 <= x1*x2, x1 <= 2, x2 <= 3: UNSAT.
        MakeCase({{{1, 0, 0}, false, 7},
                  {{0, 1, 0}, true, 2},
                  {{0, 0, 1}, true, 3}},
                 {{0, 1, 2}}, 3, false, "product-overflows")));

TEST(PdeTest, ValidationRejectsDegenerateRows) {
  PdeSystem bad;
  bad.num_variables = 1;
  bad.rows.push_back({{0}, true, 3});
  EXPECT_FALSE(SolvePde(bad).ok());
  PdeSystem negative;
  negative.num_variables = 1;
  negative.rows.push_back({{-1}, true, 3});
  EXPECT_FALSE(PdeToSpec(negative).ok());
}

}  // namespace
}  // namespace xmlverify
