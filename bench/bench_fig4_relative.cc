// Figure 4: relative constraints.
//   * column 2 (RC_{K,FK}): undecidable (Theorem 4.1) — the
//     Diophantine-encoded family runs through the bounded searcher;
//   * column 3 (HRC_{K,FK}): decidable, EXPSPACE upper / PSPACE-hard —
//     BM_HierarchicalNesting scales the number and nesting of scopes;
//   * column 4 (d-HRC): PSPACE-complete — BM_QbfHrc runs the
//     Theorem 4.4 QBF reduction (2-local instances).
#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "core/brute_force.h"
#include "core/consistency.h"
#include "reductions/diophantine_relative.h"
#include "reductions/qbf.h"
#include "reductions/qbf_hrc.h"

namespace xmlverify {
namespace {

// `levels` nested scope layers, each with a relative key, fanout 2.
Specification NestedScopes(int levels) {
  std::string dtd_text = "<!ELEMENT s0 (s1, s1)>\n";
  std::string constraints;
  for (int level = 1; level < levels; ++level) {
    dtd_text += "<!ELEMENT s" + std::to_string(level) + " (s" +
                std::to_string(level + 1) + ", s" +
                std::to_string(level + 1) + ")>\n";
  }
  dtd_text += "<!ELEMENT s" + std::to_string(levels) + " EMPTY>\n";
  for (int level = 1; level <= levels; ++level) {
    dtd_text += "<!ATTLIST s" + std::to_string(level) + " v>\n";
    constraints += StrCat("s", std::to_string(level - 1), "(s",
                          std::to_string(level), ".v -> s",
                          std::to_string(level), ")\n");
  }
  return Specification::Parse(dtd_text, constraints).ValueOrDie();
}

void BM_HierarchicalNesting(benchmark::State& state) {
  Specification spec = NestedScopes(static_cast<int>(state.range(0)));
  ConsistencyChecker checker;
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  RecordStats(state, verdict);
  state.counters["scopes"] = static_cast<double>(verdict.stats.subproblems);
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
}
BENCHMARK(BM_HierarchicalNesting)
    ->DenseRange(1, 6, 1)
    ->Unit(benchmark::kMillisecond);

void BM_QbfHrc(benchmark::State& state) {
  const int num_variables = static_cast<int>(state.range(0));
  QbfFormula formula = QbfFormula::Random(num_variables, 3, 2, 11);
  Specification spec = QbfTo2HrcSpec(formula).ValueOrDie();
  ConsistencyChecker checker;
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  RecordStats(state, verdict);
  state.counters["scopes"] = static_cast<double>(verdict.stats.subproblems);
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
  state.counters["valid_qbf"] = formula.Evaluate() ? 1 : 0;
}
BENCHMARK(BM_QbfHrc)
    ->DenseRange(1, 5, 1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_UndecidableDiophantine(benchmark::State& state) {
  // A quadratic equation with a small solution: x0 * x1 = constant.
  // Not hierarchical, so only bounded search applies; cost grows
  // steeply with the node budget.
  QuadraticEquation equation;
  equation.num_variables = 2;
  equation.lhs_quadratic.push_back({1, 0, 1});
  equation.constant = 1;
  Specification spec =
      QuadraticEquationToRelativeSpec(equation).ValueOrDie();
  ConsistencyChecker::Options options;
  options.bounded.max_nodes = static_cast<int>(state.range(0));
  options.bounded.max_candidates = 200000;
  ConsistencyChecker checker(options);
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  state.counters["candidates"] =
      static_cast<double>(verdict.stats.subproblems);
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
}
BENCHMARK(BM_UndecidableDiophantine)
    ->DenseRange(4, 8, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::PrintPaperRow(
      "Figure 4", "RC_{K,FK} / HRC_{K,FK} / d-HRC_{K,FK}",
      "relative keys and foreign keys: general, hierarchical, d-local",
      "undecidable / EXPSPACE / PSPACE",
      "undecidable / PSPACE-hard / PSPACE-hard (QBF, Theorem 4.4)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
