// Batch-driver throughput: the same manifest of specifications
// checked at increasing worker counts. The specs are spec-level
// independent (the paper's consistency problem is embarrassingly
// parallel across specifications), so throughput should scale with
// --jobs until memory bandwidth or the shared memo caches saturate;
// the jobs/1 vs jobs/8 ratio is the acceptance number for the batch
// driver. Entries deliberately repeat a few spec shapes so the DFA
// and cardinality-plan caches get hits, as a batch of related
// real-world specs would.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "batch/batch_runner.h"
#include "trace/trace.h"

namespace xmlverify {
namespace {

// A school-style spec of parameterized width: `kinds` student kinds,
// each with a key and a foreign key into a shared course roster.
std::string MakeSpec(int kinds, bool consistent) {
  // The inconsistent variant forces two s0 elements against a single
  // course: two distinct key values cannot fit one cid value.
  std::string dtd = "<!ELEMENT school (";
  if (!consistent) dtd += "s0, s0, ";
  for (int k = 0; k < kinds; ++k) {
    dtd += StrCat("s", std::to_string(k), "*, ");
  }
  dtd += consistent ? "course*" : "course";
  dtd += ")>\n";
  for (int k = 0; k < kinds; ++k) {
    dtd += "<!ATTLIST s" + std::to_string(k) + " sid aid>\n";
  }
  dtd += "<!ATTLIST course cid>\n";
  std::string constraints;
  for (int k = 0; k < kinds; ++k) {
    const std::string s = StrCat("s", std::to_string(k));
    constraints += s + ".sid -> " + s + "\n";
    constraints += "fk " + s + ".sid <= course.cid\n";
  }
  return dtd + "%%\n" + constraints;
}

// Writes the spec corpus and a manifest into a temp directory once;
// returns the manifest entries.
const std::vector<BatchEntry>& Manifest() {
  static const std::vector<BatchEntry>* entries = [] {
    auto* list = new std::vector<BatchEntry>();
    std::string dir = std::filesystem::temp_directory_path().string();
    int line = 0;
    for (int copy = 0; copy < 8; ++copy) {
      for (int kinds = 2; kinds <= 5; ++kinds) {
        std::string path = dir + "/bench_spec_" + std::to_string(kinds) +
                           "_" + std::to_string(copy % 2) + ".xvc";
        std::ofstream out(path);
        out << MakeSpec(kinds, copy % 2 == 0);
        BatchEntry entry;
        entry.dtd_path = path;
        entry.line = ++line;
        list->push_back(entry);
      }
    }
    return list;
  }();
  return *entries;
}

void BM_BatchThroughput(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  StatsRegistry registry;
  int verdicts = 0;
  for (auto _ : state) {
    BatchOptions options;
    options.jobs = jobs;
    options.stats = &registry;
    BatchResult result = RunBatch(Manifest(), options);
    benchmark::DoNotOptimize(result.consistent);
    verdicts = static_cast<int>(result.items.size());
  }
  state.counters["specs"] = verdicts;
  state.counters["dfa_hits"] =
      static_cast<double>(registry.Counter("cache/dfa_hits"));
  state.counters["cardinality_hits"] =
      static_cast<double>(registry.Counter("cache/cardinality_hits"));
}
BENCHMARK(BM_BatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace xmlverify

BENCHMARK_MAIN();
