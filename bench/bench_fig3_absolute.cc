// Figure 3, columns 1 and 2: multi-attribute constraints.
//
// Column 2 — AC^{*,1}_{PK,FK} (multi-attribute primary keys, unary
// foreign keys): polynomially equivalent to PDE (Theorem 3.1);
// NP-hard, in NEXPTIME. Measured:
//   * BM_PdeReduction: PDE instances pushed through the appendix
//     reduction and decided by the consistency checker;
//   * BM_PdeDirect: the same instances decided directly (the
//     SAT -> PDE direction), for the equivalence;
//   * BM_KeyWidth: growing key width k (prequadratic chain length).
//
// Column 1 — AC^{*,*}_{K,FK} is undecidable [14]: the bounded
// searcher is the only tool; BM_UndecidableBounded shows its cost.
#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "core/brute_force.h"
#include "core/consistency.h"
#include "reductions/pde_reduction.h"

namespace xmlverify {
namespace {

PdeSystem FamilyInstance(int size) {
  // x0 >= size, x0 <= x1 * x2, x1 <= ceil(sqrt(size)), x2 <= size.
  PdeSystem system;
  system.num_variables = 3;
  system.rows.push_back({{1, 0, 0}, false, size});
  int64_t cap = 1;
  while (cap * cap < size) ++cap;
  system.rows.push_back({{0, 1, 0}, true, cap});
  system.rows.push_back({{0, 0, 1}, true, size});
  system.prequadratics.push_back({0, 1, 2});
  return system;
}

void BM_PdeReduction(benchmark::State& state) {
  Specification spec =
      PdeToSpec(FamilyInstance(static_cast<int>(state.range(0))))
          .ValueOrDie();
  ConsistencyChecker checker;
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  RecordStats(state, verdict);
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
}
BENCHMARK(BM_PdeReduction)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_PdeDirect(benchmark::State& state) {
  PdeSystem system = FamilyInstance(static_cast<int>(state.range(0)));
  SolveResult result;
  for (auto _ : state) {
    result = SolvePde(system).ValueOrDie();
    benchmark::DoNotOptimize(result.outcome);
  }
  state.counters["solver_nodes"] = static_cast<double>(result.nodes_explored);
  state.counters["sat"] = result.outcome == SolveOutcome::kSat ? 1 : 0;
}
BENCHMARK(BM_PdeDirect)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_KeyWidth(benchmark::State& state) {
  // One element type with a k-attribute primary key; each attribute
  // is a foreign key into a pool of 2 values; 2^k - 1 elements fit.
  const int k = static_cast<int>(state.range(0));
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
  Specification spec =
      Specification::Parse(dtd_text, keys + constraints).ValueOrDie();
  ConsistencyChecker checker;
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  RecordStats(state, verdict);
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
}
BENCHMARK(BM_KeyWidth)->DenseRange(1, 4, 1)->Unit(benchmark::kMillisecond);

void BM_UndecidableBounded(benchmark::State& state) {
  // A multi-attribute inclusion (outside every decidable fragment):
  // bounded search is the honest fallback; cost grows with the node
  // budget.
  Specification spec =
      Specification::Parse(
          "<!ELEMENT r (p+, q+)>\n<!ATTLIST p a b>\n<!ATTLIST q c d>\n",
          "p[a,b] <= q[c,d]\n")
          .ValueOrDie();
  ConsistencyChecker::Options options;
  options.bounded.max_nodes = static_cast<int>(state.range(0));
  ConsistencyChecker checker(options);
  ConsistencyVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = checker.Check(spec).ValueOrDie();
    benchmark::DoNotOptimize(verdict.outcome);
  }
  state.counters["consistent"] = verdict.consistent() ? 1 : 0;
  state.counters["candidates"] =
      static_cast<double>(verdict.stats.subproblems);
}
BENCHMARK(BM_UndecidableBounded)
    ->DenseRange(3, 6, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::PrintPaperRow(
      "Figure 3 / columns 1-2", "AC^{*,*}_{K,FK} and AC^{*,1}_{PK,FK}",
      "multi-attribute keys (general: undecidable; primary + unary "
      "foreign keys: equivalent to PDE)",
      "undecidable / NEXPTIME (PDE, McAllester et al.)",
      "undecidable / NP-hard (Theorem 3.1)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
