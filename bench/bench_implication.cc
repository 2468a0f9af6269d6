// Implication (Section 3.4, Corollaries 3.7/4.5): Impl mirrors SAT
// complexities via Proposition 3.6. Measured:
//   * BM_ChainImplication: transitive inclusion chains (the coNP
//     fast path), scaling in chain length;
//   * BM_Prop36: full SAT -> co-Impl reduction instances;
//   * BM_RegularImplication: path-restricted key implication through
//     the z_theta machinery.
#include <benchmark/benchmark.h>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "core/implication.h"
#include "core/specification.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/impl_reduction.h"

namespace xmlverify {
namespace {

void BM_ChainImplication(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  std::string dtd_text = "<!ELEMENT r (";
  std::string constraints;
  for (int t = 0; t < length; ++t) {
    if (t > 0) dtd_text += ",";
    dtd_text += StrCat("t", std::to_string(t), "+");
  }
  dtd_text += ")>\n";
  for (int t = 0; t < length; ++t) {
    dtd_text += "<!ATTLIST t" + std::to_string(t) + " v>\n";
    if (t + 1 < length) {
      constraints += StrCat("t", std::to_string(t), ".v <= t",
                            std::to_string(t + 1), ".v\n");
    }
  }
  Specification spec =
      Specification::Parse(dtd_text, constraints).ValueOrDie();
  int first = spec.dtd.TypeId("t0").ValueOrDie();
  int last =
      spec.dtd.TypeId(StrCat("t", std::to_string(length - 1))).ValueOrDie();
  ImplicationVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = CheckInclusionImplication(
                  spec.dtd, spec.constraints,
                  AbsoluteInclusion{first, {"v"}, last, {"v"}})
                  .ValueOrDie();
    benchmark::DoNotOptimize(verdict.implied);
  }
  state.counters["implied"] = verdict.implied ? 1 : 0;
  state.counters["solver_nodes"] =
      static_cast<double>(verdict.stats.solver_nodes);
}
BENCHMARK(BM_ChainImplication)
    ->DenseRange(4, 20, 4)
    ->Unit(benchmark::kMillisecond);

void BM_Prop36(benchmark::State& state) {
  const int num_variables = static_cast<int>(state.range(0));
  CnfFormula formula =
      CnfFormula::Random(num_variables, 2 * num_variables, 2, 5);
  Specification spec = CnfToDepth2Spec(formula).ValueOrDie();
  ImplicationInstance instance = SatToImplication(spec).ValueOrDie();
  ImplicationVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = CheckKeyImplication(instance.spec.dtd,
                                  instance.spec.constraints, instance.phi)
                  .ValueOrDie();
    benchmark::DoNotOptimize(verdict.implied);
  }
  state.counters["implied"] = verdict.implied ? 1 : 0;
  state.counters["solver_nodes"] =
      static_cast<double>(verdict.stats.solver_nodes);
}
BENCHMARK(BM_Prop36)->DenseRange(2, 8, 2)->Unit(benchmark::kMillisecond);

void BM_RegularImplication(benchmark::State& state) {
  // k parallel branches; a global key must imply the key on branch 0.
  const int k = static_cast<int>(state.range(0));
  std::string dtd_text = "<!ELEMENT r (";
  for (int b = 0; b < k; ++b) {
    if (b > 0) dtd_text += ",";
    dtd_text += "br" + std::to_string(b);
  }
  dtd_text += ")>\n";
  for (int b = 0; b < k; ++b) {
    dtd_text += "<!ELEMENT br" + std::to_string(b) + " (item+)>\n";
  }
  dtd_text += "<!ATTLIST item id>\n";
  Specification spec =
      Specification::Parse(dtd_text, "r._*.item.id -> r._*.item\n")
          .ValueOrDie();
  auto resolve = [&spec](const std::string& name) {
    return spec.dtd.FindType(name);
  };
  Regex branch_path =
      ParseRegex("r.br0.item", resolve).ValueOrDie();
  int item = spec.dtd.TypeId("item").ValueOrDie();
  ImplicationVerdict verdict;
  BenchTrace trace(state);
  for (auto _ : state) {
    verdict = CheckKeyImplication(spec.dtd, spec.constraints,
                                  RegularKey{branch_path, item, "id"})
                  .ValueOrDie();
    benchmark::DoNotOptimize(verdict.implied);
  }
  state.counters["implied"] = verdict.implied ? 1 : 0;
}
BENCHMARK(BM_RegularImplication)
    ->DenseRange(1, 4, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::PrintPaperRow(
      "Implication (Section 3.4)", "Impl(AC_{K,FK}) / Impl(AC^{reg})",
      "constraint implication in the presence of DTDs",
      "coNP / co-NEXPTIME-style mirror of the SAT encodings",
      "coNP-hard / PSPACE-hard (Proposition 3.6, Corollary 3.7)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
