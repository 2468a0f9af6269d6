#include "difftest/oracle.h"

#include <gtest/gtest.h>

#include "core/specification.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

Specification MustParse(const std::string& text) {
  Result<Specification> spec = Specification::ParseCombined(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).ValueOrDie();
}

TEST(OracleTest, AgreesOnConsistentSpec) {
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a.a*)>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n"
      "a.id -> a\n");
  CrossCheckReport report = CrossCheckSpecification(spec);
  EXPECT_TRUE(report.agreed())
      << (report.disagreements.empty() ? "" : report.disagreements[0]);
  ASSERT_TRUE(report.consensus.has_value());
  EXPECT_EQ(*report.consensus, ConsistencyOutcome::kConsistent);
}

TEST(OracleTest, AgreesOnInconsistentSpec) {
  // Two a-children forced by the DTD, unary key on a.id, and a's id
  // must equal the single r.id value: the key cannot hold.
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a.a)>\n"
      "<!ATTLIST r id CDATA #REQUIRED>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n"
      "a.id -> a\n"
      "a.id <= r.id\n");
  CrossCheckReport report = CrossCheckSpecification(spec);
  EXPECT_TRUE(report.agreed())
      << (report.disagreements.empty() ? "" : report.disagreements[0]);
  ASSERT_TRUE(report.consensus.has_value());
  EXPECT_EQ(*report.consensus, ConsistencyOutcome::kInconsistent);
}

TEST(OracleTest, ExhaustiveRefutationMakesInconsistencyDefinitive) {
  // Finite document space (no stars, no recursion): the bounded
  // search exhausting it is a proof, which the oracle reports as a
  // ran "exhaustive" procedure with an INCONSISTENT verdict.
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a.a)>\n"
      "<!ATTLIST r id CDATA #REQUIRED>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n"
      "a.id -> a\n"
      "a.id <= r.id\n");
  CrossCheckReport report = CrossCheckSpecification(spec);
  bool exhaustive_ran = false;
  for (const ProcedureRun& run : report.runs) {
    if (run.name == "exhaustive" && run.ran) {
      exhaustive_ran = true;
      EXPECT_EQ(run.verdict.outcome, ConsistencyOutcome::kInconsistent);
    }
  }
  EXPECT_TRUE(exhaustive_ran);
}

TEST(OracleTest, ReferenceProcedureRunsBesideTheFacade) {
  // The facade again with presolve and warm starts off: it runs on
  // every spec, right after the facade, and reaches the same verdict.
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a.a*)>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n"
      "a.id -> a\n");
  CrossCheckReport report = CrossCheckSpecification(spec);
  EXPECT_TRUE(report.agreed());
  ASSERT_GE(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].name, "facade");
  const ProcedureRun& reference = report.runs[1];
  EXPECT_EQ(reference.name, "reference");
  ASSERT_TRUE(reference.ran) << reference.skip_reason;
  EXPECT_EQ(reference.verdict.outcome, ConsistencyOutcome::kConsistent);
  ASSERT_TRUE(reference.verdict.witness.has_value());
}

TEST(OracleTest, MaxDocumentNodesBoundsFiniteDtds) {
  // r has children a and b; a has one c; all leaves are empty.
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a.b)>\n"
      "<!ELEMENT a (c)>\n"
      "<!ELEMENT b (%)>\n"
      "<!ELEMENT c (%)>\n"
      "%%\n");
  EXPECT_EQ(MaxDocumentNodes(spec.dtd, 100), 4);  // r, a, b, c
  EXPECT_EQ(MaxAttributeSlots(spec.dtd, 100), 0);
}

TEST(OracleTest, MaxDocumentNodesCapsStarsAndRecursion) {
  Specification starred = MustParse(
      "root r\n"
      "<!ELEMENT r (a*)>\n"
      "<!ELEMENT a (%)>\n"
      "%%\n");
  EXPECT_EQ(MaxDocumentNodes(starred.dtd, 10), 10);

  Specification recursive = MustParse(
      "root r\n"
      "<!ELEMENT r (a)>\n"
      "<!ELEMENT a (a|%)>\n"
      "%%\n");
  EXPECT_EQ(MaxDocumentNodes(recursive.dtd, 10), 10);
}

TEST(OracleTest, RoundTripSafeRejectsParserLossyTrees) {
  XmlTree clean(0);
  clean.AddText(clean.root(), "hello");
  EXPECT_TRUE(RoundTripSafe(clean));

  XmlTree empty_text(0);
  empty_text.AddText(empty_text.root(), "");
  EXPECT_FALSE(RoundTripSafe(empty_text));

  XmlTree padded(0);
  padded.AddText(padded.root(), " padded ");
  EXPECT_FALSE(RoundTripSafe(padded));

  XmlTree adjacent(0);
  adjacent.AddText(adjacent.root(), "one");
  adjacent.AddText(adjacent.root(), "two");
  EXPECT_FALSE(RoundTripSafe(adjacent));
}

// Regression: the stitched hierarchical witness must carry the global
// root's required attributes (the root scope has no enclosing scope
// to assign them).
TEST(OracleTest, HierarchicalWitnessCarriesRootAttributes) {
  Specification spec = MustParse(
      "root r\n"
      "<!ELEMENT r (a)>\n"
      "<!ATTLIST r id CDATA #REQUIRED>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n"
      "r(a.id -> a)\n");
  CrossCheckReport report = CrossCheckSpecification(spec);
  EXPECT_TRUE(report.agreed())
      << (report.disagreements.empty() ? "" : report.disagreements[0]);
}

}  // namespace
}  // namespace xmlverify
