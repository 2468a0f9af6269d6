// Impl(C) tests, including the Proposition 3.6 reduction.
#include "core/implication.h"

#include <gtest/gtest.h>

#include "checker/document_checker.h"
#include "core/consistency.h"
#include "core/specification.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/impl_reduction.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

Specification Parse(const std::string& dtd, const std::string& constraints) {
  return Specification::Parse(dtd, constraints).ValueOrDie();
}

constexpr char kChainDtd[] = R"(
<!ELEMENT r (a+, b+, c+)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a v>
<!ATTLIST b v>
<!ATTLIST c v>
)";

TEST(ImplicationTest, InclusionTransitivity) {
  Specification spec = Parse(kChainDtd, R"(
a.v <= b.v
b.v <= c.v
)");
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int c, spec.dtd.TypeId("c"));
  // a.v <= c.v is implied.
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict implied,
      CheckInclusionImplication(spec.dtd, spec.constraints,
                                AbsoluteInclusion{a, {"v"}, c, {"v"}}));
  EXPECT_TRUE(implied.implied);
  // c.v <= a.v is not.
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict reverse,
      CheckInclusionImplication(spec.dtd, spec.constraints,
                                AbsoluteInclusion{c, {"v"}, a, {"v"}}));
  EXPECT_FALSE(reverse.implied);
  ASSERT_TRUE(reverse.counterexample.has_value());
  // The counterexample satisfies Sigma but violates phi.
  EXPECT_OK(CheckConstraints(*reverse.counterexample, spec.dtd,
                             spec.constraints));
  ConstraintSet phi;
  phi.Add(AbsoluteInclusion{c, {"v"}, a, {"v"}});
  EXPECT_FALSE(
      CheckConstraints(*reverse.counterexample, spec.dtd, phi).ok());
}

TEST(ImplicationTest, KeyNotImpliedWithoutReason) {
  Specification spec = Parse(kChainDtd, "a.v -> a\n");
  ASSERT_OK_AND_ASSIGN(int b, spec.dtd.TypeId("b"));
  ASSERT_OK_AND_ASSIGN(ImplicationVerdict verdict,
                       CheckKeyImplication(spec.dtd, spec.constraints,
                                           AbsoluteKey{b, {"v"}}));
  EXPECT_FALSE(verdict.implied);
  ASSERT_TRUE(verdict.counterexample.has_value());
}

TEST(ImplicationTest, KeyImpliedByCardinalitysqueeze) {
  // b's values sit inside a single a's value (|ext(a)| = 1 via DTD
  // a exactly once), and b is alone too: any singleton extent
  // satisfies every key, so the key on b is implied.
  Specification spec = Parse(R"(
<!ELEMENT r (a, b)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a v>
<!ATTLIST b v>
)",
                             "");
  ASSERT_OK_AND_ASSIGN(int b, spec.dtd.TypeId("b"));
  ASSERT_OK_AND_ASSIGN(ImplicationVerdict verdict,
                       CheckKeyImplication(spec.dtd, spec.constraints,
                                           AbsoluteKey{b, {"v"}}));
  EXPECT_TRUE(verdict.implied);
}

TEST(ImplicationTest, SelfInclusionAlwaysImplied) {
  Specification spec = Parse(kChainDtd, "");
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict verdict,
      CheckInclusionImplication(spec.dtd, spec.constraints,
                                AbsoluteInclusion{a, {"v"}, a, {"v"}}));
  EXPECT_TRUE(verdict.implied);
}

TEST(ImplicationTest, RegularPathImplication) {
  Specification spec = Parse(R"(
<!ELEMENT r (left, right)>
<!ELEMENT left (item+)>
<!ELEMENT right (item+)>
<!ELEMENT item EMPTY>
<!ATTLIST item id>
)",
                             "r._*.item.id -> r._*.item\n");
  // The global key implies the key restricted to the left branch.
  auto resolve = [&spec](const std::string& name) {
    return spec.dtd.FindType(name);
  };
  ASSERT_OK_AND_ASSIGN(Regex left_path,
                       ParseRegex("r.left.item", resolve));
  ASSERT_OK_AND_ASSIGN(int item, spec.dtd.TypeId("item"));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict verdict,
      CheckKeyImplication(spec.dtd, spec.constraints,
                          RegularKey{left_path, item, "id"}));
  EXPECT_TRUE(verdict.implied);

  // The converse does not hold.
  Specification weaker = Parse(R"(
<!ELEMENT r (left, right)>
<!ELEMENT left (item+)>
<!ELEMENT right (item+)>
<!ELEMENT item EMPTY>
<!ATTLIST item id>
)",
                               "r.left.item.id -> r.left.item\n");
  ASSERT_OK_AND_ASSIGN(Regex global_path,
                       ParseRegex("r._*.item", resolve));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict converse,
      CheckKeyImplication(weaker.dtd, weaker.constraints,
                          RegularKey{global_path, item, "id"}));
  EXPECT_FALSE(converse.implied);
}

// Proposition 3.6: the original specification is consistent iff the
// reduced implication instance does NOT imply phi.
class Prop36Sweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Prop36Sweep, SatIffNotImplied) {
  CnfFormula formula = CnfFormula::Random(3, 5, 2, GetParam());
  ASSERT_OK_AND_ASSIGN(Specification spec, CnfToDepth2Spec(formula));
  ConsistencyChecker checker;
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict direct, checker.Check(spec));

  ASSERT_OK_AND_ASSIGN(ImplicationInstance instance, SatToImplication(spec));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict implication,
      CheckKeyImplication(instance.spec.dtd, instance.spec.constraints,
                          instance.phi));
  EXPECT_EQ(direct.outcome == ConsistencyOutcome::kConsistent,
            !implication.implied)
      << formula.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop36Sweep,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace xmlverify
