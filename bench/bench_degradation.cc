// Robustness-layer overhead and degradation latency.
//
// Two questions (docs/robustness.md):
//   * What does resource governance cost when nothing is exhausted?
//     BM_SolverUnguarded vs BM_SolverGuarded run the same
//     branch-and-bound search without and with an armed memory budget
//     — the delta is the per-node charge/release overhead (budget:
//     < 2% on the solver hot loop).
//   * What does a degraded answer cost relative to the exact one?
//     BM_CheckExact vs BM_CheckDegraded time the same specification
//     through the exact path and through the ladder's bounded rung.
#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "core/consistency.h"
#include "ilp/solver.h"

namespace xmlverify {
namespace {

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

// Baseline: no limits set — every budget check short-circuits.
void BM_SolverUnguarded(benchmark::State& state) {
  IntegerProgram program = KnapsackProgram(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SolveResult result = IlpSolver().Solve(program);
    benchmark::DoNotOptimize(result.outcome);
  }
}
BENCHMARK(BM_SolverUnguarded)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

// Same search under a generous (never-hit) memory ceiling: the hot
// loop now pays the charge/release accounting on every node.
void BM_SolverGuarded(benchmark::State& state) {
  IntegerProgram program = KnapsackProgram(static_cast<int>(state.range(0)));
  SolverOptions options;
  options.budget.set_memory_limit_bytes(int64_t{1} << 33);  // 8 GiB
  for (auto _ : state) {
    SolveResult result = IlpSolver(options).Solve(program);
    benchmark::DoNotOptimize(result.outcome);
  }
}
BENCHMARK(BM_SolverGuarded)->Arg(10)->Arg(14)->Unit(benchmark::kMillisecond);

Specification WideSpec(int width) {
  std::string dtd = "<!ELEMENT r (";
  for (int i = 0; i < width; ++i) {
    if (i > 0) dtd += ", ";
    dtd += StrCat("a", std::to_string(i), "+");
  }
  dtd += ")>\n";
  std::string constraints;
  for (int i = 0; i < width; ++i) {
    dtd += "<!ATTLIST a" + std::to_string(i) + " v>\n";
    constraints += StrCat("a", std::to_string(i), ".v -> a", std::to_string(i),
                          "\n");
  }
  return Specification::Parse(dtd, constraints).ValueOrDie();
}

// The exact path, full budget.
void BM_CheckExact(benchmark::State& state) {
  Specification spec = WideSpec(static_cast<int>(state.range(0)));
  ConsistencyChecker::Options options;
  options.build_witness = false;
  ConsistencyChecker checker(options);
  for (auto _ : state) {
    auto verdict = checker.Check(spec);
    benchmark::DoNotOptimize(verdict.ok());
  }
}
BENCHMARK(BM_CheckExact)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// The ladder's rung: the exact stage gives up immediately (zero
// branch-and-bound nodes), so each iteration times one full
// degradation — exact attempt, then the small bounded search.
void BM_CheckDegraded(benchmark::State& state) {
  Specification spec = WideSpec(static_cast<int>(state.range(0)));
  ConsistencyChecker::Options options;
  options.build_witness = false;
  options.solver.max_nodes = 0;
  ConsistencyChecker checker(options);
  int64_t degraded = 0;
  for (auto _ : state) {
    auto verdict = checker.Check(spec);
    benchmark::DoNotOptimize(verdict.ok());
    if (verdict.ok() && !verdict->degradation.empty()) ++degraded;
  }
  state.counters["degraded"] = static_cast<double>(degraded);
}
BENCHMARK(BM_CheckDegraded)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlverify

BENCHMARK_MAIN();
