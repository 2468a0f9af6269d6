// Differential self-test driver: sweeps a seed range, generates one
// specification per (seed, class) grid cell, cross-checks every
// applicable decision procedure against the others (see oracle.h),
// and delta-debugs any disagreeing specification down to a minimal
// reproducer (see shrinker.h).
//
// The run is deterministic: generation is a pure function of
// (seed, class), workers write into preassigned grid slots, and the
// summary carries no timing or concurrency information — the same
// seed range yields a byte-identical report at any --jobs level.
#ifndef XMLVERIFY_DIFFTEST_DIFFTEST_H_
#define XMLVERIFY_DIFFTEST_DIFFTEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "difftest/impl_check.h"
#include "difftest/oracle.h"
#include "difftest/shrinker.h"
#include "difftest/spec_generator.h"
#include "trace/trace.h"

namespace xmlverify {

struct DifftestOptions {
  /// First seed of the sweep; each seed is run through every class.
  uint64_t start_seed = 1;
  int num_seeds = 100;
  /// Constraint classes to exercise; empty means all of them.
  std::vector<DifftestClass> classes;
  /// Worker threads (<= 0: one per hardware thread).
  int jobs = 1;
  /// Minimize disagreeing specs before reporting them.
  bool shrink = true;
  /// Also run the implication cross-check on every generated spec
  /// (difftest/impl_check.h): quick tier vs full encoding vs bounded /
  /// exhaustive counterexample search, per constraint.
  bool impl_mode = false;
  ImplCheckOptions impl;
  SpecGeneratorOptions generator;
  OracleOptions oracle;
  ShrinkOptions shrinker;
  /// When set, every worker thread opens a TraceSession on this
  /// (thread-safe) registry so difftest/* counters aggregate across
  /// workers.
  StatsRegistry* stats = nullptr;
};

/// One cross-check failure, pinned to its reproducing coordinates.
struct Disagreement {
  uint64_t seed = 0;
  DifftestClass cls = DifftestClass::kAcK;
  std::vector<std::string> reasons;
  std::string spec_text;    // the generated spec, canonical .xvc
  std::string shrunk_text;  // minimized reproducer (empty: not shrunk)
  int shrink_rounds = 0;
};

struct ClassTally {
  DifftestClass cls = DifftestClass::kAcK;
  int specs = 0;
  int consistent = 0;
  int inconsistent = 0;
  int unknown = 0;  // no definitive consensus (caps, undecidability)
  int disagreements = 0;
};

struct DifftestReport {
  std::vector<ClassTally> tallies;          // one per class, run order
  std::vector<Disagreement> disagreements;  // grid order (seed-major)
  int specs = 0;

  bool agreed() const { return disagreements.empty(); }
  /// Deterministic human-readable report: per-class tallies followed
  /// by one block per disagreement (seed, class, reasons, minimized
  /// spec) and a final RESULT line.
  std::string Summary() const;
};

/// Runs the sweep.
DifftestReport RunDifftest(const DifftestOptions& options);

}  // namespace xmlverify

#endif  // XMLVERIFY_DIFFTEST_DIFFTEST_H_
