// The repository benchmark ("ledger"): one binary that runs one named
// workload from a seed, checks every verdict against a reference that
// does not share the solver's code, and prints one JSON result line.
// See ledger/README.md for the workloads and the metric definitions.
#ifndef LEDGER_LEDGER_H_
#define LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/verdict.h"
#include "trace/trace.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

int64_t NowNanos();
double SecondsSince(int64_t start_nanos);

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample: the
/// smallest value with at least q of the sample at or below it. 0 for
/// an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);
/// The highest of p50/p90/p99/p999 with at least ten samples above it
/// (0.5 when the sample is smaller than 20), so a reported tail is
/// never a single outlier.
double SupportedTail(size_t samples);

/// SplitMix64 stream: every seeded choice the benchmark makes.
struct Rng {
  uint64_t state;
  uint64_t Next();
  int Below(int n);
  double Uniform();
};

// -------------------------------------------------------------- output

/// The metrics one run prints, in the order they were set.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The value set under `name`, 0 when none was.
  double Get(const std::string& name) const;
  /// The contract's result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;
  /// Human-readable table, one metric a line.
  void PrintTable(std::FILE* out) const;
  /// Keeps only `names` (in that order); a missing name is set to 0.
  Report Select(const std::vector<std::pair<std::string, std::string>>&
                    names_and_units) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The end-to-end and per-layer metric names and units this binary
/// prints; BENCHMARK.json lists the same names (checked by the
/// self-test).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// --------------------------------------------------------- environment

struct EnvStamp {
  std::string git_sha;
  std::string compiler;
  std::string flags;
  std::string build_type;
  int nproc = 0;
  double load_start = 0;
  double load_end = 0;
};
EnvStamp StampStart();
void StampEnd(EnvStamp* stamp);
/// True when the load average exceeded the core count at either end.
bool Overloaded(const EnvStamp& stamp);
std::string StampJson(const EnvStamp& stamp, const std::string& workload,
                      uint64_t seed, bool trace);
/// Empty when this binary was built optimized and without asserts;
/// otherwise the reason to refuse the run.
std::string BuildRefusal();
double PeakRssMb();

// --------------------------------------------------------------- spans

/// In-memory span log for the traced run: each span is a call into a
/// layer's public function made from the benchmark's own code. Spans
/// nest per thread (the traced replays are single-threaded); a span's
/// self time is its duration minus its children's.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    int parent;      // index into spans(), -1 for a root
    int64_t request;  // request or instance id
  };
  int Begin(const char* name, int64_t request);
  void End(int index);
  /// Per-name aggregate: call count, durations (ns), summed self time.
  struct Aggregate {
    int64_t calls = 0;
    std::vector<double> durations;
    double self_total = 0;
  };
  std::map<std::string, Aggregate> Aggregates() const;
  /// Summed duration of the root spans named `root`.
  double RootTotal(const std::string& root) const;
  /// JSON lines, one span a line, for offline analysis; written to
  /// `<dir>/spans-<workload>-<seed>.jsonl` unless `dir` is empty.
  bool WriteJsonLines(const std::string& dir, const std::string& workload,
                      uint64_t seed) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request)
      : log_(log), index_(log ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Adds `<name>.calls`, `<name>.p50_us` (or `_ms`) and `<name>.share`
/// for every layer call in `layer_names`, with shares relative to
/// `e2e_nanos`.
void ReportLayerCalls(const SpanLog& log,
                      const std::vector<std::string>& layer_names,
                      double e2e_nanos, Report* report);

// ----------------------------------------------------------- workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Flips one expected verdict; the run must then fail (self-test).
  bool plant_wrong_verdict = false;
  /// Directory for the span log of a traced run ("" writes none).
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Report metrics;
  std::vector<std::string> problems;  // why `correct` is false
  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

RunResult RunFigures(const Options& options);
RunResult RunServeHot(const Options& options);
RunResult RunServeCold(const Options& options);

/// Empties the process-wide memo caches (regex->DFA, cardinality
/// plans, implication memo), so a timed phase starts cold.
void ClearProcessMemos();

bool Definitive(xmlverify::ConsistencyOutcome outcome);

}  // namespace ledger

#endif  // LEDGER_LEDGER_H_
