// Search-shape goldens: branch-and-bound node counts and LP pivot
// counts on fixed draws of three of the paper's hardness families
// (Theorem 3.5a CNF depth-2, two-constraint SUBSET-SUM, Theorem 4.4
// QBF -> 2-HRC). Node counts depend on which LP vertex each relaxation
// returns, and pivot counts on the pivot sequence that reaches it, so
// a change that moves a vertex or a pivot (pricing, crash bases, early
// phase-1 exits) shows up here. Such a change must update these values
// on purpose; a pure speed-up of the simplex must leave them as they
// are.
//
// Presolve runs before every root LP, so a change in what it removes
// moves these counts too. The CNF, SUBSET-SUM and QBF -> 2-HRC tables
// were re-recorded when presolve started reducing to its fixpoint
// instead of stopping after eight passes. The LP receives fewer rows:
// the CNF and SUBSET-SUM node counts hold, and seven of their eight
// draws take fewer pivots (CNF seed 11: 363 -> 362, SUBSET-SUM seed
// 21: 343 -> 322; CNF seed 13 takes four more, 351 -> 355). The
// QBF -> 2-HRC scopes land on other vertices, with more nodes but
// fewer pivots (seed 31: 314 -> 356 nodes, 1,596 -> 1,498 pivots).
// The nested-scope programs did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/consistency.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/qbf.h"
#include "reductions/qbf_hrc.h"
#include "reductions/subset_sum.h"

namespace xmlverify {
namespace {

struct Golden {
  uint64_t seed;
  int64_t nodes;
  int64_t pivots;
};

// Checks `spec` with default options and returns the verdict, after
// asserting it matches the family's own oracle.
ConsistencyVerdict CheckAgainstOracle(const Specification& spec,
                                      bool expected_consistent,
                                      const std::string& context) {
  ConsistencyChecker checker;
  Result<ConsistencyVerdict> verdict = checker.Check(spec);
  EXPECT_TRUE(verdict.ok()) << context;
  if (!verdict.ok()) return {};
  EXPECT_EQ(verdict->outcome, expected_consistent
                                  ? ConsistencyOutcome::kConsistent
                                  : ConsistencyOutcome::kInconsistent)
      << context;
  return std::move(verdict).ValueOrDie();
}

TEST(SearchShapeTest, CnfDepth2NodeCounts) {
  const Golden goldens[] = {
      {11, 6, 362}, {12, 9, 372}, {13, 4, 355}, {14, 11, 370}};
  for (const Golden& golden : goldens) {
    CnfFormula formula = CnfFormula::Random(6, 12, 3, golden.seed);
    std::string context = "cnf n=6 seed " + std::to_string(golden.seed);
    ConsistencyVerdict verdict = CheckAgainstOracle(
        CnfToDepth2Spec(formula).ValueOrDie(), formula.Solve().has_value(),
        context);
    EXPECT_EQ(verdict.stats.solver_nodes, golden.nodes) << context;
    EXPECT_EQ(verdict.stats.lp_pivots, golden.pivots) << context;
  }
}

// Eight items below 2^8 and a target below their sum, drawn from a
// fixed linear congruential stream.
SubsetSumInstance SubsetSumDraw(uint64_t seed) {
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  SubsetSumInstance instance;
  int64_t sum = 0;
  for (int i = 0; i < 8; ++i) {
    int64_t item = 1 + static_cast<int64_t>(next() % 255);
    instance.items.push_back(item);
    sum += item;
  }
  instance.target = 1 + static_cast<int64_t>(next() % sum);
  return instance;
}

TEST(SearchShapeTest, SubsetSumNodeCounts) {
  const Golden goldens[] = {
      {21, 41, 322}, {22, 21, 264}, {23, 11, 230}, {24, 15, 235}};
  for (const Golden& golden : goldens) {
    SubsetSumInstance instance = SubsetSumDraw(golden.seed);
    std::string context = "subset-sum b=8 seed " + std::to_string(golden.seed);
    ConsistencyVerdict verdict =
        CheckAgainstOracle(SubsetSumToSpec(instance).ValueOrDie(),
                           instance.HasSolution(), context);
    EXPECT_EQ(verdict.stats.solver_nodes, golden.nodes) << context;
    EXPECT_EQ(verdict.stats.lp_pivots, golden.pivots) << context;
  }
}

TEST(SearchShapeTest, QbfTo2HrcNodeCounts) {
  const Golden goldens[] = {
      {31, 356, 1498}, {32, 328, 1446}, {33, 281, 1371}, {34, 242, 1355}};
  for (const Golden& golden : goldens) {
    QbfFormula formula = QbfFormula::Random(3, 3, 2, golden.seed);
    std::string context = "qbf-hrc m=3 seed " + std::to_string(golden.seed);
    ConsistencyVerdict verdict = CheckAgainstOracle(
        QbfTo2HrcSpec(formula).ValueOrDie(), formula.Evaluate(), context);
    EXPECT_EQ(verdict.stats.solver_nodes, golden.nodes) << context;
    EXPECT_EQ(verdict.stats.lp_pivots, golden.pivots) << context;
  }
}

// CONSISTENT hierarchical draws also pin the number of scope
// subproblems: each distinct scope is solved once, and the witness is
// stitched from those solves, so no scope instance is solved again.
struct ScopeGolden {
  uint64_t draw;  // nesting levels, or the QBF seed
  int64_t nodes;
  int64_t pivots;
  int64_t subproblems;
};

void ExpectScopeGolden(const ConsistencyVerdict& verdict,
                       const ScopeGolden& golden, const std::string& context) {
  EXPECT_EQ(verdict.stats.solver_nodes, golden.nodes) << context;
  EXPECT_EQ(verdict.stats.lp_pivots, golden.pivots) << context;
  EXPECT_EQ(verdict.stats.subproblems, golden.subproblems) << context;
}

// `levels` nested scopes with fan-out 2: s_{i-1}(s_i.v -> s_i) for
// every level i. The witness has 2^levels - 1 scope instances but only
// `levels` distinct scopes.
Specification NestedScopes(int levels) {
  std::string dtd_text;
  std::string constraints;
  for (int level = 0; level < levels; ++level) {
    std::string child = "s" + std::to_string(level + 1);
    dtd_text += StrCat("<!ELEMENT s", std::to_string(level), " (", child,
                       ", ", child, ")>\n");
    constraints += StrCat("s", std::to_string(level), "(", child, ".v -> ",
                          child, ")\n");
  }
  dtd_text += StrCat("<!ELEMENT s", std::to_string(levels), " EMPTY>\n");
  for (int level = 1; level <= levels; ++level) {
    dtd_text += StrCat("<!ATTLIST s", std::to_string(level), " v>\n");
  }
  return Specification::Parse(dtd_text, constraints).ValueOrDie();
}

TEST(SearchShapeTest, NestedScopesAreSolvedOncePerScope) {
  const ScopeGolden goldens[] = {{4, 4, 28, 4}, {6, 6, 42, 6}};
  for (const ScopeGolden& golden : goldens) {
    const int levels = static_cast<int>(golden.draw);
    std::string context = "nested scopes, " + std::to_string(levels) +
                          " levels";
    ExpectScopeGolden(CheckAgainstOracle(NestedScopes(levels),
                                         /*expected_consistent=*/true,
                                         context),
                      golden, context);
  }
}

TEST(SearchShapeTest, ConsistentQbfTo2HrcNodeCounts) {
  const ScopeGolden goldens[] = {{55, 267, 1391, 15}, {57, 221, 1328, 15}};
  for (const ScopeGolden& golden : goldens) {
    QbfFormula formula = QbfFormula::Random(3, 3, 2, golden.draw);
    ASSERT_TRUE(formula.Evaluate()) << "seed " << golden.draw;
    std::string context = "qbf-hrc m=3 seed " + std::to_string(golden.draw);
    ExpectScopeGolden(CheckAgainstOracle(QbfTo2HrcSpec(formula).ValueOrDie(),
                                         /*expected_consistent=*/true,
                                         context),
                      golden, context);
  }
}

}  // namespace
}  // namespace xmlverify
