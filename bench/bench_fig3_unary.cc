// Figure 3, column AC_{K,FK}: unary keys and foreign keys —
// NP-complete [14]. Measured families:
//   * BM_CnfDepth2: the depth-2 CNF-SAT reduction (Theorem 3.5a),
//     scaling in the number of propositional variables — worst-case
//     exponential growth is expected from an NP-complete fragment;
//   * BM_SubsetSum2Constraints: the 2-constraint SUBSET-SUM reduction,
//     scaling in the bit width of the target;
//   * BM_WideConsistentChain: a benign consistent family (foreign-key
//     chains), scaling near-polynomially — typical inputs are easy.
#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "core/consistency.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/subset_sum.h"

namespace xmlverify {
namespace {

void BM_CnfDepth2(benchmark::State& state) {
  const int num_variables = static_cast<int>(state.range(0));
  CnfFormula formula =
      CnfFormula::Random(num_variables, 2 * num_variables, 3, 42);
  Specification spec = CnfToDepth2Spec(formula).ValueOrDie();
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
BENCHMARK(BM_CnfDepth2)
    ->DenseRange(2, 12, 2)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SubsetSum2Constraints(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  // Target with all bits set; items are powers of two plus a filler,
  // so a solution exists.
  SubsetSumInstance instance;
  instance.target = (int64_t{1} << bits) - 1;
  for (int b = 0; b < bits; ++b) instance.items.push_back(int64_t{1} << b);
  Specification spec = SubsetSumToSpec(instance).ValueOrDie();
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
BENCHMARK(BM_SubsetSum2Constraints)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);

void BM_WideConsistentChain(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  // t0 <= t1 <= ... <= t_{w-1}: a long foreign-key chain, consistent.
  std::string dtd_text = "<!ELEMENT r (";
  std::string constraints;
  for (int t = 0; t < width; ++t) {
    if (t > 0) dtd_text += ",";
    dtd_text += StrCat("t", std::to_string(t), "+");
  }
  dtd_text += ")>\n";
  for (int t = 0; t < width; ++t) {
    dtd_text += "<!ATTLIST t" + std::to_string(t) + " v>\n";
    if (t + 1 < width) {
      constraints += "fk t" + std::to_string(t) + ".v <= t" +
                     std::to_string(t + 1) + ".v\n";
    }
  }
  Specification spec =
      Specification::Parse(dtd_text, constraints).ValueOrDie();
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
BENCHMARK(BM_WideConsistentChain)
    ->DenseRange(4, 32, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::PrintPaperRow(
      "Figure 3 / column 4", "AC_{K,FK}",
      "unary keys and unary foreign keys",
      "NP (membership via cardinality coding + integer programming)",
      "NP-hard (CNF-SAT via depth-2 DTDs; SUBSET SUM via 2 constraints)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
