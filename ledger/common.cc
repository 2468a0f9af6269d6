#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "base/shared_cache.h"
#include "core/implication_engine.h"
#include "encoding/cardinality.h"
#include "ledger/ledger.h"
#include "regex/automaton.h"

#ifndef LEDGER_COMPILER
#define LEDGER_COMPILER "unknown"
#endif
#ifndef LEDGER_FLAGS
#define LEDGER_FLAGS "unknown"
#endif
#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e9;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size()) - 1e-9));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double SupportedTail(size_t samples) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999}) {
    double rank = std::ceil(q * static_cast<double>(samples) - 1e-9);
    if (static_cast<double>(samples) - rank >= 10) best = q;
  }
  return best;
}

uint64_t Rng::Next() {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::Below(int n) {
  return n <= 1 ? 0 : static_cast<int>(Next() % static_cast<uint64_t>(n));
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) / 9007199254740992.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const Entry& entry : entries_) {
    if (!first) line += ", ";
    first = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.value);
    line += xmlverify::trace::JsonQuote(entry.name) + ": {\"value\": " +
            value + ", \"unit\": " + xmlverify::trace::JsonQuote(entry.unit) +
            "}";
  }
  line += "}}";
  return line;
}

void Report::PrintTable(std::FILE* out) const {
  for (const Entry& entry : entries_) {
    std::fprintf(out, "  %-40s %14.6g %s\n", entry.name.c_str(), entry.value,
                 entry.unit.c_str());
  }
}

Report Report::Select(
    const std::vector<std::pair<std::string, std::string>>& names_and_units)
    const {
  Report selected;
  for (const auto& [name, unit] : names_and_units) {
    selected.Set(name, Get(name), unit);
  }
  return selected;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"verdict_p50_ms", "ms"},
      {"verdict_p90_ms", "ms"},
      {"verdict_geomean_ms", "ms"},
      {"verdicts_per_s", "1/s"},
      {"sustained_rps", "req/s"},
      {"decided_share", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

namespace {

std::vector<std::pair<std::string, std::string>> BuildPerLayer() {
  std::vector<std::pair<std::string, std::string>> metrics;
  // Timed layer calls: calls, median duration and share of e2e time.
  const std::vector<std::string> calls = {
      "serve.protocol",    "serve.lookup_raw",   "serve.lookup_canonical",
      "serve.insert",      "core.parse",         "core.canonical",
      "core.quick_implies", "core.classify",     "encoding.flow",
      "encoding.cardinality", "encoding.regular", "ilp.solve",
      "ilp.presolve",      "ilp.root_lp",        "core.witness",
      "checker.replay",    "core.hierarchical",  "core.check"};
  for (const std::string& call : calls) {
    metrics.push_back({call + ".calls", "count"});
    metrics.push_back({call + ".p50_us", "us"});
    metrics.push_back({call + ".share", "ratio"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"serve.repeat.p50_us", "us"},
      {"serve.respell.p50_us", "us"},
      {"serve.edit.p50_us", "us"},
      {"serve.fresh.p50_ms", "ms"},
      {"serve.unique.p50_ms", "ms"},
      {"serve.duplicate.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.raw_hit_share", "ratio"},
      {"serve.canonical_hit_share", "ratio"},
      {"serve.incremental_share", "ratio"},
      {"serve.miss_share", "ratio"},
      {"serve.queue_depth_max", "count"},
      {"serve.shed", "count"},
      {"serve.redundant_solves", "count"},
      {"serve.hit_overhead_us", "us"},
      {"core.quick_implies.confirm_share", "ratio"},
      {"encoding.vars", "count"},
      {"encoding.rows", "count"},
      {"encoding.cells", "count"},
      {"regex.dfa_hit_share", "ratio"},
      {"encoding.plan_hit_share", "ratio"},
      {"ilp.nodes", "count"},
      {"ilp.pivots", "count"},
      {"ilp.warm_share", "ratio"},
      {"ilp.presolve.refuted_share", "ratio"},
      {"ilp.root_lp.pivots", "count"},
      {"base.promotions_per_pivot", "ratio"},
      {"base.bigint.mul_calls", "count"},
      {"base.bigint.divmod_calls", "count"},
      {"base.bigint.gcd_iterations", "count"},
      {"core.witness.nodes", "count"},
      {"core.hierarchical.scopes", "count"},
      {"core.check.consistent_geomean_ms", "ms"},
      {"core.check.inconsistent_geomean_ms", "ms"},
      {"core.layer_coverage", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"bench.lag_p99_us", "us"},
      {"bench.class_share.repeat", "ratio"},
      {"bench.class_share.respell", "ratio"},
      {"bench.class_share.edit", "ratio"},
      {"bench.class_share.fresh", "ratio"},
      {"bench.class_share.unique", "ratio"},
      {"bench.class_share.duplicate", "ratio"},
      {"bench.dup_inflight_share", "ratio"},
      {"bench.error_share", "ratio"},
      {"bench.samples", "count"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  return metrics;
}

double ReadLoadAverage() {
  double load[1] = {0};
  if (getloadavg(load, 1) != 1) return -1;
  return load[0];
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics =
      BuildPerLayer();
  return kMetrics;
}

EnvStamp StampStart() {
  EnvStamp stamp;
  // run.py passes the commit; outside a git checkout there is none.
  const char* sha = std::getenv("LEDGER_GIT_SHA");
  stamp.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
  stamp.compiler = LEDGER_COMPILER;
  stamp.flags = LEDGER_FLAGS;
  stamp.build_type = LEDGER_BUILD_TYPE;
  stamp.nproc = static_cast<int>(std::thread::hardware_concurrency());
  stamp.load_start = ReadLoadAverage();
  return stamp;
}

void StampEnd(EnvStamp* stamp) { stamp->load_end = ReadLoadAverage(); }

bool Overloaded(const EnvStamp& stamp) {
  return stamp.load_start > stamp.nproc || stamp.load_end > stamp.nproc;
}

std::string StampJson(const EnvStamp& stamp, const std::string& workload,
                      uint64_t seed, bool trace) {
  using xmlverify::trace::JsonQuote;
  char loads[96];
  std::snprintf(loads, sizeof(loads),
                "\"load_start\": %.2f, \"load_end\": %.2f", stamp.load_start,
                stamp.load_end);
  return std::string("{\"env\": {\"git_sha\": ") + JsonQuote(stamp.git_sha) +
         ", \"compiler\": " + JsonQuote(stamp.compiler) +
         ", \"flags\": " + JsonQuote(stamp.flags) +
         ", \"build_type\": " + JsonQuote(stamp.build_type) +
         ", \"nproc\": " + std::to_string(stamp.nproc) + ", " + loads +
         ", \"overloaded\": " + (Overloaded(stamp) ? "true" : "false") +
         ", \"workload\": " + JsonQuote(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (trace ? "true" : "false") + "}}";
}

std::string BuildRefusal() {
#if !defined(__OPTIMIZE__)
  return "this binary was built without optimization; configure with "
         "-DCMAKE_BUILD_TYPE=Release";
#elif !defined(NDEBUG)
  return "this binary was built with assertions enabled (NDEBUG unset); "
         "configure with -DCMAKE_BUILD_TYPE=Release";
#else
  return std::string();
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int SpanLog::Begin(const char* name, int64_t request) {
  int index = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, NowNanos(), 0, open_.empty() ? -1 : open_.back(), request});
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[index].end = NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanLog::Aggregate> SpanLog::Aggregates() const {
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[span.parent] += static_cast<double>(span.end - span.start);
    }
  }
  std::map<std::string, Aggregate> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Aggregate& agg = out[span.name];
    double duration = static_cast<double>(span.end - span.start);
    agg.calls += 1;
    agg.durations.push_back(duration);
    agg.self_total += duration - child_time[i];
  }
  return out;
}

double SpanLog::RootTotal(const std::string& root) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 && root == span.name) {
      total += static_cast<double>(span.end - span.start);
    }
  }
  return total;
}

bool SpanLog::WriteJsonLines(const std::string& dir,
                             const std::string& workload,
                             uint64_t seed) const {
  if (dir.empty()) return true;
  std::ofstream out(dir + "/spans-" + workload + "-" + std::to_string(seed) +
                    ".jsonl");
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start << ",\"end_ns\":" << span.end
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

void ReportLayerCalls(const SpanLog& log,
                      const std::vector<std::string>& layer_names,
                      double e2e_nanos, Report* report) {
  std::map<std::string, SpanLog::Aggregate> aggregates = log.Aggregates();
  for (const std::string& name : layer_names) {
    auto it = aggregates.find(name);
    if (it == aggregates.end()) continue;
    const SpanLog::Aggregate& agg = it->second;
    report->Set(name + ".calls", static_cast<double>(agg.calls), "count");
    report->Set(name + ".p50_us", Median(agg.durations) / 1e3, "us");
    report->Set(name + ".share", e2e_nanos > 0 ? agg.self_total / e2e_nanos : 0,
                "ratio");
  }
}

void ClearProcessMemos() {
  xmlverify::GlobalDfaCache().Clear();
  xmlverify::GlobalCardinalityPlanCache().Clear();
  xmlverify::ImplicationChecker::GlobalMemo().Clear();
}

bool Definitive(xmlverify::ConsistencyOutcome outcome) {
  return outcome == xmlverify::ConsistencyOutcome::kConsistent ||
         outcome == xmlverify::ConsistencyOutcome::kInconsistent;
}

}  // namespace ledger
