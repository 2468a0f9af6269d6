// Minimal inconsistent core extraction.
#include "core/diagnosis.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "base/cancel.h"
#include "base/resource_guard.h"
#include "core/canonical.h"
#include "core/implication.h"
#include "reductions/cnf_depth2.h"
#include "tests/test_util.h"
#include "trace/trace.h"

namespace xmlverify {
namespace {

TEST(DiagnosisTest, ShrinksToTheConflictingPair) {
  // Only the key on a.ref and the inclusion into the singleton b are
  // needed for the contradiction; the c-constraints are noise.
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a, a, b, c+)>
<!ATTLIST a ref>
<!ATTLIST b id>
<!ATTLIST c v>
)",
                           R"(
a.ref -> a
a.ref <= b.id
c.v -> c
b.id <= c.v
)")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ConstraintSet core,
                       MinimizeInconsistentCore(spec.dtd, spec.constraints));
  // Core: the key on a.ref plus the inclusion a.ref <= b.id.
  EXPECT_EQ(core.absolute_keys().size(), 1u);
  EXPECT_EQ(core.absolute_inclusions().size(), 1u);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  EXPECT_EQ(core.absolute_keys()[0].type, a);
}

TEST(DiagnosisTest, ProbesGetFreshBudgetsNotTheCallersAccounting) {
  // Regression: MinimizeInconsistentCore used to hand the caller's
  // ConsistencyChecker::Options — including its live ResourceBudget
  // accounting — to every deletion probe, so charges accumulated
  // across the |Sigma|+1 probes and late probes spuriously exhausted.
  // Each probe must instead get a budget with the caller's CEILINGS
  // but fresh accounting: a caller whose own budget sits near its
  // memory ceiling must not poison the probes.
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a, a, b)>
<!ATTLIST a id>
<!ATTLIST b id>
)",
                           R"(
a.id -> a
a.id <= b.id
b.id -> b
)")
          .ValueOrDie();
  ConsistencyChecker::Options options;
  options.budget.set_memory_limit_bytes(8 << 20);
  // Park the caller's accounting 1KB below its ceiling for the whole
  // minimization. Probes sharing this accounting would all fail with
  // RESOURCE_EXHAUSTED; probes with fresh accounting never notice.
  ScopedMemoryCharge parked(options.budget, (8 << 20) - 1024,
                            "test/parked");
  ASSERT_OK(parked.status());
  ASSERT_OK_AND_ASSIGN(
      ConstraintSet core,
      MinimizeInconsistentCore(spec.dtd, spec.constraints, options));
  // 1-minimal: exactly the key on a.id and the inclusion into the
  // singleton b; the vacuous b.id -> b is deleted.
  EXPECT_EQ(core.size(), 2);
  EXPECT_EQ(core.absolute_keys().size(), 1u);
  EXPECT_EQ(core.absolute_inclusions().size(), 1u);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  EXPECT_EQ(core.absolute_keys()[0].type, a);
}

// Trips `token` as each top-level `check` span ends, so the first one
// to end is the minimization's whole-spec check.
class CancelWhenACheckEnds : public TraceSink {
 public:
  explicit CancelWhenACheckEnds(CancelToken token) : token_(std::move(token)) {}
  void SpanBegin(std::string_view, int) override {}
  void SpanEnd(std::string_view name, int, int64_t) override {
    if (name != "check") return;
    ++checks_;
    token_.Cancel();
  }
  void CounterAdd(std::string_view, int64_t, int) override {}
  int checks() const { return checks_; }

 private:
  CancelToken token_;
  int checks_ = 0;
};

TEST(DiagnosisTest, CancellationStopsTheMinimization) {
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a, a, b, c+)>
<!ATTLIST a ref>
<!ATTLIST b id>
<!ATTLIST c v>
)",
                           "a.ref -> a\na.ref <= b.id\nc.v -> c\n")
          .ValueOrDie();
  CancelToken token;
  ConsistencyChecker::Options options;
  options.deadline = Deadline().WithCancelToken(token);
  StatsRegistry registry;
  CancelWhenACheckEnds sink(token);
  TraceSession session(&registry, &sink);
  Result<ConstraintSet> core =
      MinimizeInconsistentCore(spec.dtd, spec.constraints, options);
  // A cancelled minimization returns no partial core and starts no
  // probe after the token trips.
  EXPECT_EQ(core.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(sink.checks(), 1);
}

TEST(DiagnosisTest, ImplicationPruningLeavesNoImpliedConstraintInTheCore) {
  // The pipeline's guarantee after the implication pruning pass: no
  // kept constraint is implied by the rest of the core. The redundant
  // transitive inclusion a.v <= c.v must never survive alongside
  // a.v <= b.v and b.v <= c.v, whichever pass removes it.
  Specification tight =
      Specification::Parse(R"(
<!ELEMENT r (a, a, b, c+)>
<!ATTLIST a v>
<!ATTLIST b v>
<!ATTLIST c v>
)",
                           R"(
a.v -> a
a.v <= b.v
b.v <= c.v
a.v <= c.v
c.v -> c
b.v -> b
)")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      ConstraintSet core,
      MinimizeInconsistentCore(tight.dtd, tight.constraints));
  // Core: a.v -> a plus a.v <= b.v (two a-values into one b slot).
  // Everything else — including the redundant a.v <= c.v — is gone.
  EXPECT_EQ(core.size(), 2);
  // And 1-minimality holds: dropping either member yields consistency.
  ConsistencyChecker checker;
  Specification reduced{tight.dtd, core};
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(reduced));
  EXPECT_EQ(verdict.outcome, ConsistencyOutcome::kInconsistent);
}

TEST(DiagnosisTest, RejectsConsistentSpecifications) {
  Specification spec =
      Specification::Parse("<!ELEMENT r (a+)>\n<!ATTLIST a v>\n",
                           "a.v -> a\n")
          .ValueOrDie();
  Result<ConstraintSet> core =
      MinimizeInconsistentCore(spec.dtd, spec.constraints);
  EXPECT_EQ(core.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiagnosisTest, ReportsABudgetTooTightForTheWholeSpecification) {
  // An unsatisfiable CNF as a depth-2 spec, decided by the ILP solver.
  // Running out before it is decided is a budget outcome, not a
  // malformed input.
  ASSERT_OK_AND_ASSIGN(Specification spec,
                       CnfToDepth2Spec(CnfFormula::Random(7, 30, 3, 2)));
  ConsistencyChecker::Options expired;
  expired.deadline = Deadline::AfterMillis(0);
  EXPECT_EQ(
      MinimizeInconsistentCore(spec.dtd, spec.constraints, expired)
          .status()
          .code(),
      StatusCode::kDeadlineExceeded);
  // Too small for even one simplex tableau; without the degraded rung
  // the check ends there.
  ConsistencyChecker::Options starved;
  starved.budget.set_memory_limit_bytes(50);
  starved.degrade_on_exhaustion = false;
  EXPECT_EQ(
      MinimizeInconsistentCore(spec.dtd, spec.constraints, starved)
          .status()
          .code(),
      StatusCode::kResourceExhausted);
}

TEST(DiagnosisTest, GeographyCoreKeepsTheCountingArgument) {
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ATTLIST country name>
<!ATTLIST province name>
<!ATTLIST capital inProvince>
)",
                           R"(
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince <= province.name)
)")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(ConstraintSet core,
                       MinimizeInconsistentCore(spec.dtd, spec.constraints));
  // The absolute country key and the relative province key are not
  // part of the counting argument; the capital key and the inclusion
  // are.
  EXPECT_TRUE(core.absolute_keys().empty());
  EXPECT_EQ(core.relative_keys().size(), 1u);
  EXPECT_EQ(core.relative_inclusions().size(), 1u);
  // And the core is itself inconsistent.
  ConsistencyChecker checker;
  Specification reduced{spec.dtd, core};
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict, checker.Check(reduced));
  EXPECT_EQ(verdict.outcome, ConsistencyOutcome::kInconsistent);
}

TEST(RedundancyTest, DropsTransitivelyImpliedInclusions) {
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a*, b*, c*)>
<!ATTLIST a v>
<!ATTLIST b v>
<!ATTLIST c v>
)",
                           R"(
a.v <= b.v
b.v <= c.v
a.v <= c.v
)")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      ConstraintSet pruned,
      RemoveRedundantConstraints(spec.dtd, spec.constraints));
  EXPECT_EQ(pruned.absolute_inclusions().size(), 2u);
  // The surviving pair still implies the dropped one.
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  ASSERT_OK_AND_ASSIGN(int c, spec.dtd.TypeId("c"));
  ASSERT_OK_AND_ASSIGN(
      ImplicationVerdict verdict,
      CheckInclusionImplication(spec.dtd, pruned,
                                AbsoluteInclusion{a, {"v"}, c, {"v"}}));
  EXPECT_TRUE(verdict.implied);
}

TEST(RedundancyTest, DropsKeysForcedByTheDtd) {
  // ext(b) = 1 by the DTD, so b.v -> b is vacuous.
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a*, b)>
<!ATTLIST a v>
<!ATTLIST b v>
)",
                           "a.v -> a\nb.v -> b\n")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      ConstraintSet pruned,
      RemoveRedundantConstraints(spec.dtd, spec.constraints));
  ASSERT_EQ(pruned.absolute_keys().size(), 1u);
  ASSERT_OK_AND_ASSIGN(int a, spec.dtd.TypeId("a"));
  EXPECT_EQ(pruned.absolute_keys()[0].type, a);
}

TEST(RedundancyTest, KeepsLoadBearingConstraints) {
  Specification spec =
      Specification::Parse(R"(
<!ELEMENT r (a+, b+)>
<!ATTLIST a v>
<!ATTLIST b v>
)",
                           "a.v -> a\nfk a.v <= b.v\n")
          .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      ConstraintSet pruned,
      RemoveRedundantConstraints(spec.dtd, spec.constraints));
  EXPECT_EQ(pruned.size(), spec.constraints.size());
}

#if defined(XMLVC_BINARY_PATH)

TEST(DiagnosisTest, CliDiagnoseAndSimplifyHonourTheTimeout) {
  // An unsatisfiable CNF as a depth-2 spec with 104 constraints. One
  // check takes far longer than the 5 ms budget; unbounded, diagnose
  // and simplify each run for many seconds (a probe per constraint).
  ASSERT_OK_AND_ASSIGN(Specification spec,
                       CnfToDepth2Spec(CnfFormula::Random(7, 30, 3, 2)));
  ASSERT_EQ(spec.constraints.size(), 104);
  const std::string path =
      ::testing::TempDir() + "/cli_diagnose_and_simplify.xvc";
  std::ofstream(path) << CanonicalSpecText(spec);
  for (const char* command : {"diagnose", "simplify"}) {
    const auto start = std::chrono::steady_clock::now();
    const int status =
        std::system((std::string(XMLVC_BINARY_PATH) + " " + command + " " +
                     path + " --timeout=5 > /dev/null 2>&1")
                        .c_str());
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    EXPECT_NE(status, -1) << command;
    // The whole specification does not settle in 5 ms, which diagnose
    // reports like check does: DEADLINE_EXCEEDED, exit 4.
    if (std::string_view(command) == "diagnose") {
      EXPECT_EQ(WEXITSTATUS(status), 4);
    }
    // Each probe gets the whole 5 ms: (104 + 2) x 5 ms, plus the
    // encoding that runs before the first deadline poll.
    EXPECT_LT(wall.count(), 5.0) << command;
  }
}

#endif  // XMLVC_BINARY_PATH

}  // namespace
}  // namespace xmlverify
