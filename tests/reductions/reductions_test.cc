// Cross-validation of the paper's hardness reductions against direct
// oracles: for every generated instance, the consistency verdict must
// coincide with the source problem's answer.
#include <gtest/gtest.h>

#include <ostream>

#include "core/consistency.h"
#include "core/sat_bounded.h"
#include "core/sat_hierarchical.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/qbf.h"
#include "reductions/qbf_hrc.h"
#include "reductions/qbf_regular.h"
#include "reductions/subset_sum.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

TEST(CnfTest, DpllAgreesWithExhaustiveSearch) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    CnfFormula formula = CnfFormula::Random(4, 6 + seed % 5, 3, seed);
    bool exhaustive = false;
    for (int bits = 0; bits < 16 && !exhaustive; ++bits) {
      std::vector<bool> assignment(4);
      for (int v = 0; v < 4; ++v) assignment[v] = (bits >> v) & 1;
      exhaustive = formula.Evaluate(assignment);
    }
    std::optional<std::vector<bool>> model = formula.Solve();
    EXPECT_EQ(model.has_value(), exhaustive) << formula.ToString();
    if (model.has_value()) {
      EXPECT_TRUE(formula.Evaluate(*model));
    }
  }
}

TEST(CnfDepth2Test, FixedInstances) {
  // (x1 | !x2) & (!x1 | x2): satisfiable.
  CnfFormula sat;
  sat.num_variables = 2;
  sat.clauses = {{1, -2}, {-1, 2}};
  ASSERT_OK_AND_ASSIGN(Specification spec, CnfToDepth2Spec(sat));
  ASSERT_OK_AND_ASSIGN(int depth, spec.dtd.Depth());
  EXPECT_EQ(depth, 2);
  EXPECT_TRUE(spec.dtd.IsNoStar());
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  EXPECT_EQ(verdict.outcome, ConsistencyOutcome::kConsistent);

  // x1 & !x1: unsatisfiable.
  CnfFormula unsat;
  unsat.num_variables = 1;
  unsat.clauses = {{1}, {-1}};
  ASSERT_OK_AND_ASSIGN(Specification spec2, CnfToDepth2Spec(unsat));
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict2, checker.Check(spec2));
  EXPECT_EQ(verdict2.outcome, ConsistencyOutcome::kInconsistent);
}

class CnfDepth2Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CnfDepth2Sweep, VerdictMatchesDpll) {
  CnfFormula formula = CnfFormula::Random(4, 8, 3, GetParam());
  ASSERT_OK_AND_ASSIGN(Specification spec, CnfToDepth2Spec(formula));
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  bool satisfiable = formula.Solve().has_value();
  EXPECT_EQ(verdict.outcome, satisfiable ? ConsistencyOutcome::kConsistent
                                         : ConsistencyOutcome::kInconsistent)
      << formula.ToString();
  // The fragment is no-star and unary: the Theorem 3.5b checker must
  // agree.
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict no_star,
                       CheckNoStarConsistency(spec.dtd, spec.constraints));
  EXPECT_EQ(no_star.outcome, verdict.outcome);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfDepth2Sweep,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

TEST(SubsetSumTest, OracleAgreesOnFixedCases) {
  EXPECT_TRUE((SubsetSumInstance{5, {2, 3}}).HasSolution());
  EXPECT_FALSE((SubsetSumInstance{4, {2, 3}}).HasSolution());
  EXPECT_TRUE((SubsetSumInstance{10, {3, 3, 4}}).HasSolution());
  EXPECT_FALSE((SubsetSumInstance{11, {3, 3, 4}}).HasSolution());
}

struct SubsetSumCase {
  int64_t target;
  std::vector<int64_t> items;
};

// Names each case as it is written below, e.g. "{5, {2, 3}}". The
// default printer dumps the object's bytes, the items' heap address
// included, so the test names would change from one build to the next.
void PrintTo(const SubsetSumCase& param, std::ostream* os) {
  *os << "{" << param.target << ", {";
  for (size_t i = 0; i < param.items.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << param.items[i];
  }
  *os << "}}";
}

class SubsetSumSweep : public ::testing::TestWithParam<SubsetSumCase> {};

TEST_P(SubsetSumSweep, TwoConstraintSpecMatchesOracle) {
  const SubsetSumCase& param = GetParam();
  SubsetSumInstance instance{param.target, param.items};
  ASSERT_OK_AND_ASSIGN(Specification spec, SubsetSumToSpec(instance));
  // The reduction uses exactly two foreign keys (each a key plus an
  // inclusion).
  EXPECT_EQ(spec.constraints.absolute_inclusions().size(), 2u);
  EXPECT_TRUE(spec.dtd.IsNoStar());
  EXPECT_FALSE(spec.dtd.IsRecursive());
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  EXPECT_EQ(verdict.outcome, instance.HasSolution()
                                 ? ConsistencyOutcome::kConsistent
                                 : ConsistencyOutcome::kInconsistent);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SubsetSumSweep,
    ::testing::Values(SubsetSumCase{5, {2, 3}}, SubsetSumCase{4, {2, 3}},
                      SubsetSumCase{7, {1, 2, 4}}, SubsetSumCase{8, {1, 2, 4}},
                      SubsetSumCase{13, {11, 6, 2}},
                      SubsetSumCase{12, {5, 5, 5}},
                      SubsetSumCase{10, {5, 5, 5}},
                      SubsetSumCase{21, {1, 2, 5, 13}}));

TEST(QbfTest, EvaluatorOnFixedFormulas) {
  // forall x1 exists x2 (x1 <-> x2): valid.
  QbfFormula iff;
  iff.existential = {false, true};
  iff.matrix.num_variables = 2;
  iff.matrix.clauses = {{-1, 2}, {1, -2}};
  EXPECT_TRUE(iff.Evaluate());

  // exists x2 forall x1 (x1 <-> x2): invalid.
  QbfFormula swapped;
  swapped.existential = {true, false};
  swapped.matrix.num_variables = 2;
  swapped.matrix.clauses = {{-2, 1}, {2, -1}};
  EXPECT_FALSE(swapped.Evaluate());
}

class QbfRegularSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QbfRegularSweep, RegularSpecMatchesEvaluator) {
  QbfFormula formula = QbfFormula::Random(3, 4, 2, GetParam());
  ASSERT_OK_AND_ASSIGN(Specification spec, QbfToRegularSpec(formula));
  EXPECT_EQ(spec.Classify(), ConstraintClass::kAcRegular);
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  EXPECT_EQ(verdict.outcome, formula.Evaluate()
                                 ? ConsistencyOutcome::kConsistent
                                 : ConsistencyOutcome::kInconsistent)
      << formula.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QbfRegularSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

class QbfHrcSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QbfHrcSweep, HierarchicalSpecMatchesEvaluator) {
  QbfFormula formula = QbfFormula::Random(3, 4, 2, GetParam());
  ASSERT_OK_AND_ASSIGN(Specification spec, QbfTo2HrcSpec(formula));
  ASSERT_OK_AND_ASSIGN(RelativeClassification classification,
                       ClassifyRelative(spec.dtd, spec.constraints));
  EXPECT_TRUE(classification.hierarchical);
  EXPECT_LE(classification.locality, 2);
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(spec));
  EXPECT_EQ(verdict.outcome, formula.Evaluate()
                                 ? ConsistencyOutcome::kConsistent
                                 : ConsistencyOutcome::kInconsistent)
      << formula.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QbfHrcSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

}  // namespace
}  // namespace xmlverify
