// Substrate benchmark: the exact integer solver (rational simplex +
// branch and bound) that underlies every consistency verdict. Not a
// paper figure — it calibrates where encoder-level costs end and
// solver-level costs begin, and tracks the solver's fast mechanisms
// against their references (see docs/performance.md):
//   * LP level:  the sparse two-tier (int64/BigInt) tableau (Fast)
//                against the dense BigInt tableau (Legacy,
//                SolveLpDense)
//   * B&B level: presolve + dual-simplex warm starts (Fast) against
//                no presolve and cold re-solves (Legacy, the difftest
//                `reference` configuration)
// The branch-and-bound ablations isolate each layer (NoPresolve =
// Fast minus presolve, ColdStart = Fast minus warm starts); the gated
// warm-vs-cold comparison lives in bench_warm_start.
#include <benchmark/benchmark.h>

#include "base/bigint.h"
#include "base/string_util.h"
#include "ilp/simplex.h"
#include "ilp/solver.h"

namespace xmlverify {
namespace {

SolverOptions PipelineOptions(bool fast) {
  SolverOptions options;
  options.use_presolve = fast;
  options.warm_start = fast;
  return options;
}

// A dense feasible LP: n variables, n rows of sum-style constraints.
// Worst case for the sparse engine (every row touches every column);
// the two-tier cells still pay off.
std::vector<LinearConstraint> DenseLp(int n) {
  std::vector<LinearConstraint> constraints;
  for (int r = 0; r < n; ++r) {
    LinearConstraint c;
    for (int v = 0; v < n; ++v) {
      c.lhs.Add(v, BigInt((v + r) % 5 + 1));
    }
    c.relation = r % 2 == 0 ? Relation::kGe : Relation::kLe;
    c.rhs = BigInt(r % 2 == 0 ? n : 10 * n);
    constraints.push_back(std::move(c));
  }
  return constraints;
}

// A banded feasible LP: n variables, each row touches 4 consecutive
// columns — the cardinality-encoding shape the checkers actually emit
// (each flow row mentions one parent and its children only).
std::vector<LinearConstraint> BandLp(int n) {
  std::vector<LinearConstraint> constraints;
  for (int r = 0; r < n; ++r) {
    LinearConstraint c;
    for (int k = 0; k < 4; ++k) {
      c.lhs.Add((r + k) % n, BigInt(k + 1));
    }
    c.relation = r % 2 == 0 ? Relation::kGe : Relation::kLe;
    c.rhs = BigInt(r % 2 == 0 ? 2 : 5 * n);
    constraints.push_back(std::move(c));
  }
  return constraints;
}

// Times one engine: SolveLp (the sparse tableau) or SolveLpDense.
void SimplexBench(benchmark::State& state,
                  std::vector<LinearConstraint> (*make)(int), bool sparse) {
  const int n = static_cast<int>(state.range(0));
  std::vector<LinearConstraint> constraints = make(n);
  int64_t pivots = 0;
  for (auto _ : state) {
    SimplexResult result =
        sparse ? SolveLp(n, constraints) : SolveLpDense(n, constraints);
    benchmark::DoNotOptimize(result.feasible);
    pivots = result.pivots;
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}

void BM_SimplexDense_Fast(benchmark::State& state) {
  SimplexBench(state, DenseLp, /*sparse=*/true);
}
void BM_SimplexDense_Legacy(benchmark::State& state) {
  SimplexBench(state, DenseLp, /*sparse=*/false);
}
BENCHMARK(BM_SimplexDense_Fast)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimplexDense_Legacy)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SimplexBand_Fast(benchmark::State& state) {
  SimplexBench(state, BandLp, /*sparse=*/true);
}
void BM_SimplexBand_Legacy(benchmark::State& state) {
  SimplexBench(state, BandLp, /*sparse=*/false);
}
// Arg capped at 64: past ~100 variables Bland's rule needs thousands
// of pivots on this family and a single iteration takes seconds.
BENCHMARK(BM_SimplexBand_Fast)
    ->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimplexBand_Legacy)
    ->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Integer feasibility with branching: knapsack-style equality.
IntegerProgram Knapsack(int n) {
  IntegerProgram program;
  LinearExpr sum;
  for (int v = 0; v < n; ++v) {
    VarId var = program.NewVariable(StrCat("x", std::to_string(v)));
    program.SetUpperBound(var, BigInt(1));
    sum.Add(var, BigInt(2 * v + 3));
  }
  // Target chosen to require search: half the total, offset by one.
  int64_t total = 0;
  for (int v = 0; v < n; ++v) total += 2 * v + 3;
  program.AddLinear(std::move(sum), Relation::kEq, BigInt(total / 2 + 1));
  return program;
}

void BranchAndBoundBench(benchmark::State& state, SolverOptions options) {
  const int n = static_cast<int>(state.range(0));
  IntegerProgram program = Knapsack(n);
  int64_t nodes = 0;
  for (auto _ : state) {
    SolveResult result = IlpSolver(options).Solve(program);
    benchmark::DoNotOptimize(result.outcome);
    nodes = result.nodes_explored;
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}

void BM_BranchAndBound_Fast(benchmark::State& state) {
  BranchAndBoundBench(state, PipelineOptions(/*fast=*/true));
}
void BM_BranchAndBound_Legacy(benchmark::State& state) {
  BranchAndBoundBench(state, PipelineOptions(/*fast=*/false));
}
// Ablation: the fast pipeline without presolve (warm starts kept)
// isolates the presolve layer's contribution.
void BM_BranchAndBound_NoPresolve(benchmark::State& state) {
  SolverOptions options;
  options.use_presolve = false;
  BranchAndBoundBench(state, options);
}
BENCHMARK(BM_BranchAndBound_Fast)
    ->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BranchAndBound_Legacy)
    ->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);
// Ablation: the fast pipeline with warm starts disabled — every node
// re-solves its LP from scratch. The gap to Fast is the per-node
// saving of resuming from the parent's final tableau.
void BM_BranchAndBound_ColdStart(benchmark::State& state) {
  SolverOptions options = PipelineOptions(/*fast=*/true);
  options.warm_start = false;
  BranchAndBoundBench(state, options);
}
BENCHMARK(BM_BranchAndBound_NoPresolve)
    ->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BranchAndBound_ColdStart)
    ->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);

// Coefficient growth: a small system scaled by 10^k plus a chained
// tail whose pivots keep remixing the scaled coefficients. Small
// scales sit in the int64 tier; large scales force promotion to BigInt
// cells, so the fast/legacy gap narrows as digits grow (hundreds of
// digits is where Karatsuba/Knuth-D/Stein carry the verdict).
void BigCoefficientsBench(benchmark::State& state, SolverOptions options) {
  const int scale_digits = static_cast<int>(state.range(0));
  BigInt scale = BigInt::Pow(BigInt(10), scale_digits);
  IntegerProgram program;
  VarId x = program.NewVariable("x");
  VarId y = program.NewVariable("y");
  LinearExpr a;
  a.Add(x, BigInt(3) * scale);
  a.Add(y, BigInt(5) * scale);
  program.AddLinear(std::move(a), Relation::kEq, BigInt(17) * scale);
  // Chained tail: each row couples two neighbors with scaled,
  // offset coefficients so eliminations multiply and divide
  // many-hundred-digit rationals instead of cancelling early.
  constexpr int kTail = 6;
  std::vector<VarId> tail;
  for (int v = 0; v < kTail; ++v) {
    tail.push_back(program.NewVariable(StrCat("t", std::to_string(v))));
  }
  for (int v = 0; v + 1 < kTail; ++v) {
    LinearExpr row;
    row.Add(tail[v], BigInt(2 * v + 3) * scale + BigInt(v + 1));
    row.Add(tail[v + 1], BigInt(2 * v + 5) * scale - BigInt(v + 2));
    program.AddLinear(std::move(row), Relation::kGe, BigInt(v + 1) * scale);
  }
  for (auto _ : state) {
    SolveResult result = IlpSolver(options).Solve(program);
    benchmark::DoNotOptimize(result.outcome);
  }
}

void BM_BigCoefficients_Fast(benchmark::State& state) {
  BigCoefficientsBench(state, PipelineOptions(/*fast=*/true));
}
void BM_BigCoefficients_Legacy(benchmark::State& state) {
  BigCoefficientsBench(state, PipelineOptions(/*fast=*/false));
}
BENCHMARK(BM_BigCoefficients_Fast)
    ->Arg(0)->Arg(10)->Arg(30)->Arg(60)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BigCoefficients_Legacy)
    ->Arg(0)->Arg(10)->Arg(30)->Arg(60)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xmlverify

BENCHMARK_MAIN();
