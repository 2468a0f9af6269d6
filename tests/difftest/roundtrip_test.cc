// Property test for the serializer↔parser pair: for every tree T the
// difftest oracle would replay, Parse(Serialize(T)) == T. Trees with
// parser-lossy text layout (empty/padded/adjacent text runs) are
// excluded by RoundTripSafe, mirroring the oracle's witness replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/string_util.h"
#include "core/specification.h"
#include "difftest/oracle.h"
#include "difftest/spec_generator.h"
#include "tests/test_util.h"
#include "xml/tree.h"
#include "xml/xml_parser.h"

namespace xmlverify {
namespace {

Dtd MustParseDtd(const std::string& text) {
  Result<Specification> spec = Specification::ParseCombined(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).ValueOrDie().dtd;
}

void ExpectRoundTrips(const XmlTree& tree, const Dtd& dtd) {
  std::string xml = tree.ToXml(dtd);
  ASSERT_OK_AND_ASSIGN(XmlTree reparsed, ParseXmlDocument(xml, dtd));
  EXPECT_TRUE(TreesEqual(tree, reparsed)) << xml;
}

TEST(RoundTripTest, HandBuiltTreeRoundTrips) {
  Dtd dtd = MustParseDtd(
      "root r\n"
      "<!ELEMENT r (a.a*)>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a id CDATA #REQUIRED>\n"
      "%%\n");
  XmlTree tree(0);
  NodeId first = tree.AddElement(tree.root(), 1);
  tree.SetAttribute(first, "id", "v1");
  tree.AddText(first, "payload");
  NodeId second = tree.AddElement(tree.root(), 1);
  tree.SetAttribute(second, "id", "v2");
  ExpectRoundTrips(tree, dtd);
}

TEST(RoundTripTest, EntityCharactersSurvive) {
  Dtd dtd = MustParseDtd(
      "root r\n"
      "<!ELEMENT r (a)>\n"
      "<!ELEMENT a (%)>\n"
      "<!ATTLIST a v CDATA #REQUIRED>\n"
      "%%\n");
  const std::vector<std::string> payloads = {
      "&",      "<",           ">",          "\"",
      "'",      "a&b<c>d",     "&amp;",      "&&amp;&",
      "<tag/>", "\"quoted\" & 'apos'",
  };
  for (const std::string& payload : payloads) {
    XmlTree tree(0);
    NodeId child = tree.AddElement(tree.root(), 1);
    tree.SetAttribute(child, "v", payload);
    tree.AddText(child, payload);
    ExpectRoundTrips(tree, dtd);
  }
}

TEST(RoundTripTest, DeepAndWideTreesRoundTrip) {
  Dtd dtd = MustParseDtd(
      "root r\n"
      "<!ELEMENT r (a*)>\n"
      "<!ELEMENT a ((a|%))>\n"
      "<!ATTLIST a k CDATA #REQUIRED>\n"
      "%%\n");
  XmlTree tree(0);
  // Wide: many siblings under the root.
  for (int i = 0; i < 20; ++i) {
    NodeId child = tree.AddElement(tree.root(), 1);
    tree.SetAttribute(child, "k", StrCat("w", std::to_string(i)));
    tree.AddText(child, StrCat("t", std::to_string(i)));
  }
  // Deep: a chain of nested a-elements.
  NodeId cursor = tree.AddElement(tree.root(), 1);
  tree.SetAttribute(cursor, "k", "d0");
  for (int i = 1; i < 20; ++i) {
    cursor = tree.AddElement(cursor, 1);
    tree.SetAttribute(cursor, "k", StrCat("d", std::to_string(i)));
  }
  tree.AddText(cursor, "bottom");
  ExpectRoundTrips(tree, dtd);
}

// The oracle replays every witness it receives; those witnesses come
// from the bounded search over generated specs. Round-trip each one.
TEST(RoundTripTest, OracleWitnessesRoundTrip) {
  int round_tripped = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    ASSERT_OK_AND_ASSIGN(GeneratedSpec generated,
                         GenerateSpec(seed, DifftestClass::kAcUnary, {}));
    CrossCheckReport report = CrossCheckSpecification(generated.spec);
    ASSERT_TRUE(report.agreed()) << "seed " << seed;
    for (const ProcedureRun& run : report.runs) {
      if (!run.ran || !run.verdict.witness.has_value()) continue;
      const XmlTree& witness = *run.verdict.witness;
      if (!RoundTripSafe(witness)) continue;
      ExpectRoundTrips(witness, generated.spec.dtd);
      ++round_tripped;
    }
  }
  EXPECT_GT(round_tripped, 0);
}

}  // namespace
}  // namespace xmlverify
