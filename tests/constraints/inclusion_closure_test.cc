// Unary inclusion-dependency closure (the [12] cubic algorithm).
#include "constraints/inclusion_closure.h"

#include <gtest/gtest.h>

#include "core/implication.h"
#include "core/specification.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

Specification Parse(const std::string& constraints) {
  return Specification::Parse(R"(
<!ELEMENT r (a*, b*, c*, d*)>
<!ATTLIST a v>
<!ATTLIST b v>
<!ATTLIST c v>
<!ATTLIST d v>
)",
                              constraints)
      .ValueOrDie();
}

TEST(InclusionClosureTest, TransitivityAndReflexivity) {
  Specification spec = Parse("a.v <= b.v\nb.v <= c.v\n");
  InclusionClosure closure(spec.constraints);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int c, spec.dtd.TypeId("c"));
  ASSERT_OK_AND_ASSIGN(int d, spec.dtd.TypeId("d"));
  EXPECT_TRUE(closure.Implies(a, "v", c, "v"));   // transitivity
  EXPECT_TRUE(closure.Implies(a, "v", a, "v"));   // reflexivity
  EXPECT_TRUE(closure.Implies(d, "v", d, "v"));   // even off-graph
  EXPECT_FALSE(closure.Implies(c, "v", a, "v"));  // no reversal
  EXPECT_FALSE(closure.Implies(a, "v", d, "v"));
}

TEST(InclusionClosureTest, DerivedInclusionsEnumerated) {
  Specification spec = Parse("a.v <= b.v\nb.v <= c.v\n");
  InclusionClosure closure(spec.constraints);
  std::vector<AbsoluteInclusion> derived = closure.DerivedInclusions();
  // a<=b, b<=c, a<=c.
  EXPECT_EQ(derived.size(), 3u);
}

TEST(InclusionClosureTest, RedundancyDetection) {
  Specification spec = Parse("a.v <= b.v\nb.v <= c.v\na.v <= c.v\n");
  InclusionClosure closure(spec.constraints);
  std::vector<AbsoluteInclusion> redundant =
      closure.RedundantInclusions(spec.constraints);
  ASSERT_EQ(redundant.size(), 1u);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int c, spec.dtd.TypeId("c"));
  EXPECT_EQ(redundant[0].child_type, a);
  EXPECT_EQ(redundant[0].parent_type, c);
}

TEST(InclusionClosureTest, CyclesAreFine) {
  Specification spec = Parse("a.v <= b.v\nb.v <= a.v\n");
  InclusionClosure closure(spec.constraints);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int b, spec.dtd.TypeId("b"));
  EXPECT_TRUE(closure.Implies(a, "v", b, "v"));
  EXPECT_TRUE(closure.Implies(b, "v", a, "v"));
}

// The DTD-free closure is SOUND for the DTD-aware implication
// problem: everything it derives is confirmed by the full checker.
TEST(InclusionClosureTest, SoundForDtdAwareImplication) {
  Specification spec = Parse("a.v <= b.v\nb.v <= c.v\nc.v <= d.v\n");
  InclusionClosure closure(spec.constraints);
  for (const AbsoluteInclusion& derived : closure.DerivedInclusions()) {
    ASSERT_OK_AND_ASSIGN(
        ImplicationVerdict verdict,
        CheckInclusionImplication(spec.dtd, spec.constraints, derived));
    EXPECT_TRUE(verdict.implied) << derived.ToString(spec.dtd);
  }
}

// And it is INCOMPLETE by design: DTD cardinalities can force
// inclusions the pure dependency theory cannot see.
TEST(InclusionClosureTest, IncompleteWithoutTheDtd) {
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a, b)>
<!ATTLIST a v>
<!ATTLIST b v>
)",
                           "b.v -> b\nfk b.v <= a.v\na.v -> a\n")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int b, spec.dtd.TypeId("b"));
  // With exactly one a and one b, b.v <= a.v plus both keys forces
  // a.v <= b.v as well — but only the DTD-aware checker sees it.
  InclusionClosure closure(spec.constraints);
  EXPECT_FALSE(closure.Implies(a, "v", b, "v"));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict verdict,
      CheckInclusionImplication(spec.dtd, spec.constraints,
                                AbsoluteInclusion{a, {"v"}, b, {"v"}}));
  EXPECT_TRUE(verdict.implied);
}

}  // namespace
}  // namespace xmlverify
