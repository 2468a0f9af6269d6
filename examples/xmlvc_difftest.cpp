// xmlvc-difftest: differential self-tester for the consistency
// checkers. Generates seeded random specifications per constraint
// class, runs every applicable decision procedure on each (including
// the facade on the reference solver configuration: no presolve, cold
// LP re-solves), and reports any disagreement together with a
// delta-debugged minimal reproducer (see docs/testing.md).
//
//   xmlvc-difftest [flags]
//
// Flags, accepted anywhere on the command line:
//   --seeds=N       number of seeds to sweep (default 100)
//   --seed=S        first seed (default 1); seed S of a wide run can
//                   be replayed alone with --seed=S --seeds=1
//   --classes=a,b   comma-separated class list: ack, acfk, pkfk,
//                   reg, hrc (default: all)
//   --jobs=N        worker threads (default 1)
//   --shrink / --no-shrink
//                   minimize disagreeing specs (default on)
//   --impl          also cross-check the implication engine
//   --timeout=MS    per-procedure wall-clock budget in milliseconds
//   --stats         print a JSON phase/counter report to stdout
//
// Exit codes: 0 all procedures agree on every spec, 1 at least one
// disagreement (a bug somewhere), 2 usage error.
//
// The summary on stdout is deterministic for a given flag set
// (excluding --jobs, which never changes the output bytes).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "difftest/difftest.h"
#include "trace/trace.h"

namespace {

using namespace xmlverify;

int Usage() {
  std::fprintf(stderr,
               "usage: xmlvc-difftest [flags]\n"
               "  --seeds=N      seeds to sweep (default 100)\n"
               "  --seed=S       first seed (default 1)\n"
               "  --classes=a,b  classes: ack, acfk, pkfk, reg, hrc\n"
               "  --jobs=N       worker threads\n"
               "  --shrink / --no-shrink\n"
               "                 minimize disagreeing specs (default on)\n"
               "  --impl         also cross-check the implication engine\n"
               "                 (quick tier vs full encoding vs brute\n"
               "                 force) on every generated spec\n"
               "  --timeout=MS   per-procedure budget (ms)\n"
               "  --stats        JSON phase/counter report on stdout\n");
  return 2;
}

bool ParseClasses(const std::string& list,
                  std::vector<DifftestClass>* classes) {
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string name = list.substr(start, comma - start);
    if (!name.empty()) {
      Result<DifftestClass> cls = ParseDifftestClass(name);
      if (!cls.ok()) {
        std::fprintf(stderr, "error: %s\n", cls.status().message().c_str());
        return false;
      }
      classes->push_back(*cls);
    }
    start = comma + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DifftestOptions options;
  options.num_seeds = 100;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--seeds=")) {
      options.num_seeds = std::atoi(arg.c_str() + 8);
      if (options.num_seeds <= 0) {
        std::fprintf(stderr, "error: --seeds expects a positive integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--seed=")) {
      options.start_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--classes=")) {
      if (!ParseClasses(arg.substr(10), &options.classes)) return 2;
    } else if (StartsWith(arg, "--jobs=")) {
      options.jobs = std::atoi(arg.c_str() + 7);
      if (options.jobs <= 0) {
        std::fprintf(stderr, "error: --jobs expects a positive integer\n");
        return 2;
      }
    } else if (arg == "--impl") {
      options.impl_mode = true;
    } else if (arg == "--shrink") {
      options.shrink = true;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (StartsWith(arg, "--timeout=")) {
      options.oracle.timeout_millis = std::atoll(arg.c_str() + 10);
      if (options.oracle.timeout_millis <= 0) {
        std::fprintf(stderr,
                     "error: --timeout expects a positive millisecond "
                     "count\n");
        return 2;
      }
    } else if (arg == "--stats") {
      stats = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  StatsRegistry registry;
  if (stats) options.stats = &registry;

  DifftestReport report = RunDifftest(options);
  std::fputs(report.Summary().c_str(), stdout);
  if (stats) std::fputs(registry.ToJson().c_str(), stdout);
  return report.agreed() ? 0 : 1;
}
