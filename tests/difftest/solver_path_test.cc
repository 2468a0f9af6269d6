// Differential guard for the solver fast path: the presolve + sparse
// two-tier pipeline and the legacy dense pipeline must reach the same
// definitive verdicts on every generated specification. SolverPath::
// kBoth runs both pipelines per grid cell and reports any divergence
// as a disagreement, so a clean sweep here is the equivalence proof in
// miniature (the nightly workflow runs the same mode at 10k seeds).
#include <gtest/gtest.h>

#include "difftest/difftest.h"

namespace xmlverify {
namespace {

TEST(SolverPathTest, FastAndLegacyPipelinesAgreeAcrossSweep) {
  DifftestOptions options;
  options.num_seeds = 25;
  options.jobs = 4;
  options.solver_path = SolverPath::kBoth;
  options.shrink = false;  // any find fails the test; no need to minimize
  DifftestReport report = RunDifftest(options);
  EXPECT_TRUE(report.agreed()) << report.Summary();
  EXPECT_GT(report.specs, 0);
}

TEST(SolverPathTest, LegacyModeStillSweepsCleanly) {
  DifftestOptions options;
  options.num_seeds = 10;
  options.jobs = 4;
  options.solver_path = SolverPath::kLegacy;
  options.shrink = false;
  DifftestReport report = RunDifftest(options);
  EXPECT_TRUE(report.agreed()) << report.Summary();
}

}  // namespace
}  // namespace xmlverify
