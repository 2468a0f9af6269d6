// Gate benchmark for dual-simplex warm starts in branch and bound: the
// default solver configuration (warm starts on) must beat cold
// re-solves (every node solves its LP from scratch) by the acceptance
// floor end to end, with identical verdicts on every instance.
//
// Two instance families:
//   * Fig-3 multi-attribute key specs (KeyWidth) decided through the
//     full ConsistencyChecker — the end-to-end path the paper's
//     figure measures;
//   * knapsack-style equality programs hitting IlpSolver directly —
//     the branch-heavy substrate where warm starts pay per node.
//
// Both configurations run the same serial search on every instance.
// The gate compares aggregate cold time against aggregate warm time.
// Witnesses are not compared: the two LP paths may stop at different
// vertices, so only verdicts must agree.
//
// Prints a per-instance table; exits 2 below the speedup floor
// (--min-speedup=X, default 1.5) and 1 on any verdict mismatch.
// Standalone executable (paired cross-configuration measurements, like
// bench_implication_ablation).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/consistency.h"
#include "core/specification.h"
#include "ilp/solver.h"

namespace xmlverify {
namespace {

struct BenchConfig {
  int reps = 5;
  double min_speedup = 1.5;
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SolverOptions MakeSolverOptions(bool warm) {
  SolverOptions options;
  options.warm_start = warm;
  return options;
}

// Fig 3, column 2: one element type with a k-attribute primary key,
// each attribute a foreign key into a 2-value pool; 2^k - 1 elements
// fill the product space exactly (consistent, and the solver has to
// prove it through the prequadratic encoding).
Specification KeyWidthSpec(int k) {
  std::string attrs;
  std::string keys = "p[";
  std::string constraints;
  for (int a = 0; a < k; ++a) {
    attrs += " a" + std::to_string(a);
    if (a > 0) keys += ",";
    keys += StrCat("a", std::to_string(a));
    constraints += "fk p.a" + std::to_string(a) + " <= q.v\n";
  }
  keys += "] -> p\n";
  int elements = (1 << k) - 1;
  std::string dtd_text = "<!ELEMENT r (q,q";
  for (int e = 0; e < elements; ++e) dtd_text += ",p";
  dtd_text += ")>\n<!ATTLIST p" + attrs + ">\n<!ATTLIST q v>\n";
  return Specification::Parse(dtd_text, keys + constraints).ValueOrDie();
}

// Branch-heavy substrate: 0/1 knapsack equality with a target that
// forces search (same family bench_solver tracks).
IntegerProgram KnapsackProgram(int n) {
  IntegerProgram program;
  LinearExpr sum;
  for (int v = 0; v < n; ++v) {
    VarId var = program.NewVariable(StrCat("x", std::to_string(v)));
    program.SetUpperBound(var, BigInt(1));
    sum.Add(var, BigInt(2 * v + 3));
  }
  int64_t total = 0;
  for (int v = 0; v < n; ++v) total += 2 * v + 3;
  program.AddLinear(std::move(sum), Relation::kEq, BigInt(total / 2 + 1));
  return program;
}

// One instance = a function that runs the workload with warm starts on
// or off and returns its verdict code.
struct Instance {
  std::string name;
  int (*run)(const void* payload, bool warm);
  const void* payload;
};

int RunChecker(const void* payload, bool warm) {
  const Specification& spec = *static_cast<const Specification*>(payload);
  ConsistencyChecker::Options options;
  options.solver = MakeSolverOptions(warm);
  return static_cast<int>(
      ConsistencyChecker(options).Check(spec).ValueOrDie().outcome);
}

int RunSolver(const void* payload, bool warm) {
  const IntegerProgram& program =
      *static_cast<const IntegerProgram*>(payload);
  return static_cast<int>(
      IlpSolver(MakeSolverOptions(warm)).Solve(program).outcome);
}

// Best-of-reps wall time: the gate is about algorithmic cost, and the
// minimum is the most schedule-noise-resistant point estimate.
double TimeConfig(const Instance& instance, bool warm, int reps) {
  double best = -1;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t begin = NowMicros();
    instance.run(instance.payload, warm);
    double us = static_cast<double>(NowMicros() - begin);
    if (best < 0 || us < best) best = us;
  }
  return best;
}

int Run(const BenchConfig& config) {
  Specification key3 = KeyWidthSpec(3);
  Specification key4 = KeyWidthSpec(4);
  IntegerProgram knap12 = KnapsackProgram(12);
  IntegerProgram knap18 = KnapsackProgram(18);
  const std::vector<Instance> instances = {
      {"fig3-keywidth-3", RunChecker, &key3},
      {"fig3-keywidth-4", RunChecker, &key4},
      {"knapsack-12", RunSolver, &knap12},
      {"knapsack-18", RunSolver, &knap18},
  };

  std::printf("warm-start gate: %zu instances, reps=%d\n", instances.size(),
              config.reps);
  double cold_total = 0;
  double warm_total = 0;
  for (const Instance& instance : instances) {
    int cold_verdict = instance.run(instance.payload, /*warm=*/false);
    int warm_verdict = instance.run(instance.payload, /*warm=*/true);
    if (cold_verdict != warm_verdict) {
      std::fprintf(stderr, "%s: verdict mismatch cold=%d warm=%d\n",
                   instance.name.c_str(), cold_verdict, warm_verdict);
      return 1;
    }
    double cold_us = TimeConfig(instance, /*warm=*/false, config.reps);
    double warm_us = TimeConfig(instance, /*warm=*/true, config.reps);
    cold_total += cold_us;
    warm_total += warm_us;
    std::printf("  %-18s cold %9.0fus  warm %9.0fus  %5.2fx\n",
                instance.name.c_str(), cold_us, warm_us,
                warm_us > 0 ? cold_us / warm_us : 0);
  }
  double aggregate = warm_total > 0 ? cold_total / warm_total : 0;
  std::printf("  aggregate speedup: %.2fx (acceptance: >= %.2fx)\n",
              aggregate, config.min_speedup);
  return aggregate < config.min_speedup ? 2 : 0;
}

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--reps=")) {
      config.reps = std::atoi(v);
    } else if (const char* v = value("--min-speedup=")) {
      config.min_speedup = std::atof(v);
    } else {
      std::fprintf(stderr,
                   "usage: bench_warm_start [--reps=N] [--min-speedup=X]\n");
      return 1;
    }
  }
  return xmlverify::Run(config);
}
