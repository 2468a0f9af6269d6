// Randomized cross-validation: on small specifications, the counting
// checkers must agree with exhaustive bounded search (the semantic
// ground truth). SAT within the search bound implies the checker says
// consistent; checker-inconsistent implies the search finds nothing.
#include <gtest/gtest.h>

#include "base/string_util.h"
#include "core/brute_force.h"
#include "core/sat_absolute.h"
#include "core/sat_bounded.h"
#include "core/specification.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A random small no-star DTD over types r, t0..t3 with attribute v,
// and random unary keys / foreign keys.
Specification RandomSpec(uint64_t seed) {
  uint64_t state = seed;
  const int num_types = 4;
  std::string dtd_text = "<!ELEMENT r (";
  // Root content: 2-3 child groups, each "ti" or "(ti|tj)" or "ti?".
  int groups = 2 + NextRandom(&state) % 2;
  for (int g = 0; g < groups; ++g) {
    if (g > 0) dtd_text += ",";
    int t1 = NextRandom(&state) % num_types;
    switch (NextRandom(&state) % 3) {
      case 0:
        dtd_text += StrCat("t", std::to_string(t1));
        break;
      case 1: {
        int t2 = NextRandom(&state) % num_types;
        dtd_text += "(t" + std::to_string(t1) + "|t" + std::to_string(t2) +
                    ")";
        break;
      }
      default:
        dtd_text += "(t" + std::to_string(t1) + "|%)";
        break;
    }
  }
  dtd_text += ")>\n";
  for (int t = 0; t < num_types; ++t) {
    dtd_text += "<!ATTLIST t" + std::to_string(t) + " v>\n";
  }

  std::string constraints;
  int num_constraints = 1 + NextRandom(&state) % 3;
  for (int c = 0; c < num_constraints; ++c) {
    int t1 = NextRandom(&state) % num_types;
    int t2 = NextRandom(&state) % num_types;
    if (NextRandom(&state) % 2 == 0) {
      constraints += StrCat("t", std::to_string(t1), ".v -> t",
                            std::to_string(t1), "\n");
    } else {
      constraints += "fk t" + std::to_string(t1) + ".v <= t" +
                     std::to_string(t2) + ".v\n";
    }
  }
  // Referenced-but-absent types would be disconnected; ATTLIST on an
  // undeclared type interns it, so make every type reachable.
  std::string reachable = "<!ELEMENT rext (t0?, t1?, t2?, t3?)>\n";
  dtd_text = "<!ELEMENT top (r, rext)>\nroot top\n" +
             dtd_text + reachable;
  return Specification::Parse(dtd_text, constraints).ValueOrDie();
}

class OracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleSweep, CheckerAgreesWithBoundedSearch) {
  Specification spec = RandomSpec(GetParam());
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict checker,
                       CheckAbsoluteConsistency(spec.dtd, spec.constraints));
  ASSERT_NE(checker.outcome, ConsistencyOutcome::kUnknown);

  BoundedSearchOptions bounds;
  bounds.max_nodes = 7;
  bounds.num_values = 2;
  ASSERT_OK_AND_ASSIGN(
      ConsistencyVerdict search,
      BoundedSearchConsistency(spec.dtd, spec.constraints, bounds));

  if (search.outcome == ConsistencyOutcome::kConsistent) {
    EXPECT_EQ(checker.outcome, ConsistencyOutcome::kConsistent)
        << spec.ToString();
  }
  if (checker.outcome == ConsistencyOutcome::kInconsistent) {
    EXPECT_NE(search.outcome, ConsistencyOutcome::kConsistent)
        << spec.ToString();
  }
  // And the no-star specialized checker agrees exactly (these DTDs
  // are no-star and non-recursive).
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict no_star,
                       CheckNoStarConsistency(spec.dtd, spec.constraints));
  EXPECT_EQ(no_star.outcome, checker.outcome) << spec.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{40}));

TEST(BoundedSearchTest, FindsWitnessForSimpleSpec) {
  Specification spec =
      Specification::Parse(
          "<!ELEMENT r (a, b)>\n<!ATTLIST a v>\n<!ATTLIST b v>\n",
          "fk a.v <= b.v\n")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict,
                       BoundedSearchConsistency(spec.dtd, spec.constraints));
  EXPECT_EQ(verdict.outcome, ConsistencyOutcome::kConsistent);
  ASSERT_TRUE(verdict.witness.has_value());
}

TEST(BoundedSearchTest, ReportsUnknownWhenNothingFound) {
  // Key forces two distinct values but only one value is available.
  Specification spec =
      Specification::Parse("<!ELEMENT r (a, a)>\n<!ATTLIST a v>\n",
                           "a.v -> a\n")
          .ValueOrDie();
  BoundedSearchOptions bounds;
  bounds.num_values = 1;
  ASSERT_OK_AND_ASSIGN(
      ConsistencyVerdict verdict,
      BoundedSearchConsistency(spec.dtd, spec.constraints, bounds));
  EXPECT_EQ(verdict.outcome, ConsistencyOutcome::kUnknown);
}

}  // namespace
}  // namespace xmlverify
