// Self-tests of the benchmark itself: percentile and sample-count
// reporting, seed determinism of the request stream, class-share
// accounting, a planted wrong expected verdict on each workload (which
// must fail the run), and agreement of the printed metric names with
// BENCHMARK.json.
//
//   ledger_selftest [path/to/BENCHMARK.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ledger/ledger.h"
#include "ledger/serve.h"

namespace {

int failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  Expect(Near(ledger::Percentile(values, 0.5), 50), "p50 of 1..100 is 50");
  Expect(Near(ledger::Percentile(values, 0.9), 90), "p90 of 1..100 is 90");
  Expect(Near(ledger::Percentile(values, 0.99), 99), "p99 of 1..100 is 99");
  Expect(Near(ledger::Percentile(values, 1.0), 100), "p100 is the maximum");
  Expect(Near(ledger::Percentile({7}, 0.9), 7), "one sample is every quantile");
  Expect(Near(ledger::Percentile({}, 0.5), 0), "empty sample reads 0");
  Expect(Near(ledger::GeoMean({1, 100}), 10), "geomean of 1 and 100 is 10");
  // The reported tail needs ten samples beyond it.
  Expect(Near(ledger::SupportedTail(19), 0.5), "19 samples support only p50");
  Expect(Near(ledger::SupportedTail(100), 0.9), "100 samples support p90");
  Expect(Near(ledger::SupportedTail(999), 0.9), "999 samples stop at p90");
  Expect(Near(ledger::SupportedTail(1000), 0.99), "1000 samples support p99");
}

void TestResultLine() {
  ledger::Report report;
  report.Set("latency_ms", 1.25, "ms");
  report.Set("setup_s", 0.5, "s");
  std::string line = report.ResultLine(true, 10, 0);
  Expect(line ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line format: " + line);
}

void TestStreamDeterminismAndShares() {
  ledger::HotInputs a = ledger::BuildHotInputs(7, 2000, 5000);
  ledger::HotInputs b = ledger::BuildHotInputs(7, 2000, 5000);
  ledger::HotInputs c = ledger::BuildHotInputs(8, 2000, 5000);
  Expect(a.stream.problems.empty(), "hot inputs build without problems");
  Expect(ledger::StreamBytes(a.stream) == ledger::StreamBytes(b.stream),
         "same seed gives a byte-identical stream");
  Expect(ledger::StreamBytes(a.stream) != ledger::StreamBytes(c.stream),
         "another seed gives another stream");
  std::array<double, ledger::kNumClasses> shares =
      ledger::ClassShares(a.stream.requests);
  Expect(Near(shares[ledger::kRepeat], 0.70), "70% repeats");
  Expect(Near(shares[ledger::kRespell], 0.15), "15% respellings");
  Expect(Near(shares[ledger::kEdit], 0.14), "14% edits");
  Expect(Near(shares[ledger::kFresh], 0.01), "1% fresh");

  std::vector<ledger::Planned> planned(4);
  planned[0].cls = ledger::kUnique;
  planned[1].cls = ledger::kDuplicate;
  planned[2].cls = ledger::kDuplicate;
  planned[3].cls = ledger::kUnique;
  shares = ledger::ClassShares(planned);
  Expect(Near(shares[ledger::kDuplicate], 0.5), "pair halves counted");
  Expect(Near(shares[ledger::kRepeat], 0), "absent class reads 0");
}

// On every workload a planted wrong expected verdict must fail the run,
// and be caught where the run checks the program's answers (a problem
// "...: verdict X, expected/reference Y"), not by an earlier check.
void TestPlantedVerdict() {
  struct Case {
    const char* workload;
    ledger::RunResult (*run)(const ledger::Options&);
    double seconds;
  };
  const Case cases[] = {{"figures", ledger::RunFigures, 0.2},
                        {"serve_hot", ledger::RunServeHot, 0.2},
                        {"serve_cold", ledger::RunServeCold, 0.4}};
  for (const Case& c : cases) {
    ledger::Options options;
    options.workload = c.workload;
    options.seconds = c.seconds;
    ledger::RunResult clean = c.run(options);
    Expect(clean.correct,
           std::string(c.workload) + " verdicts match their references");
    options.plant_wrong_verdict = true;
    ledger::RunResult planted = c.run(options);
    bool caught = false;
    for (const std::string& problem : planted.problems) {
      caught |= problem.find(": verdict ") != std::string::npos;
    }
    Expect(!planted.correct && caught,
           std::string(c.workload) +
               ": a planted wrong expected verdict fails the answer check");
  }
}

void TestMetricNames(const char* path) {
  std::ifstream in(path);
  if (!in) {
    Expect(false, std::string("cannot read ") + path);
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  auto listed = [&](const std::string& name, const std::string& unit) {
    return json.find("\"name\": \"" + name + "\", \"unit\": \"" + unit + "\"") !=
           std::string::npos;
  };
  for (const auto& [name, unit] : ledger::EndToEndMetrics()) {
    Expect(listed(name, unit), "BENCHMARK.json lists " + name);
  }
  for (const auto& [name, unit] : ledger::PerLayerMetrics()) {
    Expect(listed(name, unit), "BENCHMARK.json lists " + name);
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestPercentiles();
  TestResultLine();
  TestStreamDeterminismAndShares();
  TestPlantedVerdict();
  if (argc > 1) TestMetricNames(argv[1]);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
