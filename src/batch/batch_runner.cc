#include "batch/batch_runner.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "base/fault_injection.h"
#include "base/string_util.h"
#include "core/specification.h"

namespace xmlverify {

namespace {

Result<std::string> ReadFile(const std::string& path) {
  // Fault point `manifest_io`: a simulated transient read failure,
  // retryable like any other resource failure.
  if (FaultInjector::ShouldFail("manifest_io")) {
    return FaultInjector::Injected("manifest_io");
  }
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string ResolvePath(const std::string& path, const std::string& base_dir) {
  if (base_dir.empty() || path.empty() || path[0] == '/') return path;
  return base_dir + "/" + path;
}

Result<Specification> LoadSpec(const BatchEntry& entry) {
  if (entry.constraints_path.empty()) {
    ASSIGN_OR_RETURN(std::string combined, ReadFile(entry.dtd_path));
    return Specification::ParseCombined(combined);
  }
  ASSIGN_OR_RETURN(std::string dtd_text, ReadFile(entry.dtd_path));
  ASSIGN_OR_RETURN(std::string constraints_text,
                   ReadFile(entry.constraints_path));
  return Specification::Parse(dtd_text, constraints_text);
}

// Each retry doubles the wall-clock and memory limits.
constexpr int64_t kRetryBudgetGrowth = 2;

// One attempt at one entry: load, stamp `limits`, decide. Loading is
// inside the attempt so transient IO failures (the manifest_io fault
// point) are retried along with the check.
BatchItem CheckOnce(const BatchEntry& entry, const CheckLimits& limits) {
  BatchItem item;
  Result<Specification> spec = LoadSpec(entry);
  if (!spec.ok()) {
    item.status = Status(spec.status().code(),
                         "manifest line " + std::to_string(entry.line) + ": " +
                             spec.status().message());
    return item;
  }
  ConsistencyChecker::Options check = OptionsForOneCheck(limits);
  // Batch mode reports verdicts, not documents; skipping witness
  // construction keeps per-check memory flat across a large manifest.
  check.build_witness = false;
  ConsistencyChecker checker(std::move(check));
  Result<ConsistencyVerdict> verdict = checker.Check(*spec);
  if (!verdict.ok()) {
    item.status = Status(verdict.status().code(),
                         "manifest line " + std::to_string(entry.line) + ": " +
                             verdict.status().message());
    return item;
  }
  item.verdict = *std::move(verdict);
  return item;
}

// A budget failure — wherever it surfaced — is worth retrying with a
// bigger budget; anything definitive (or structurally broken) is not.
bool Retryable(const BatchItem& item) {
  if (!item.status.ok()) {
    return item.status.code() == StatusCode::kDeadlineExceeded ||
           item.status.code() == StatusCode::kResourceExhausted;
  }
  return item.verdict.outcome == ConsistencyOutcome::kDeadlineExceeded ||
         item.verdict.outcome == ConsistencyOutcome::kResourceExhausted;
}

// Checks one entry with the retry-with-escalated-budget ladder.
BatchItem CheckOne(const BatchEntry& entry, const BatchOptions& options,
                   std::atomic<int>* retries, std::atomic<int>* recovered) {
  const int max_retries = options.retries < 0 ? 0 : options.retries;
  CheckLimits limits = options.limits;
  BatchItem item = CheckOnce(entry, limits);
  for (int retry = 0; retry < max_retries && Retryable(item); ++retry) {
    limits.timeout_millis *= kRetryBudgetGrowth;
    limits.memory_limit_bytes *= kRetryBudgetGrowth;
    trace::Count("resource/retries");
    retries->fetch_add(1, std::memory_order_relaxed);
    item = CheckOnce(entry, limits);
    if (!Retryable(item)) {
      trace::Count("resource/retry_recovered");
      recovered->fetch_add(1, std::memory_order_relaxed);
    }
  }
  return item;
}

}  // namespace

Result<std::vector<BatchEntry>> ParseBatchManifest(
    const std::string& text, const std::string& base_dir) {
  std::vector<BatchEntry> entries;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::istringstream fields{std::string(stripped)};
    std::string first, second, extra;
    fields >> first >> second >> extra;
    if (!extra.empty()) {
      return Status::InvalidArgument(
          "manifest line " + std::to_string(line_number) +
          ": expected one path (combined .xvc) or two paths "
          "(DTD constraints), got more");
    }
    BatchEntry entry;
    entry.dtd_path = ResolvePath(first, base_dir);
    entry.constraints_path =
        second.empty() ? second : ResolvePath(second, base_dir);
    entry.line = line_number;
    entries.push_back(std::move(entry));
  }
  return entries;
}

BatchResult RunBatch(const std::vector<BatchEntry>& entries,
                     const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  BatchResult result;
  result.items.resize(entries.size());

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  if (jobs > static_cast<int>(entries.size())) {
    jobs = static_cast<int>(entries.size());
  }

  // Work distribution: an atomic cursor over the manifest. Each
  // worker claims the next unchecked entry and writes into its own
  // slot of `result.items` — distinct indices, so no lock is needed
  // on the result vector.
  std::atomic<size_t> next{0};
  std::atomic<int> retries{0};
  std::atomic<int> recovered{0};
  auto worker = [&]() {
    // Per-worker session on the shared (thread-safe) registry: the
    // library's trace::Count calls from every worker aggregate into
    // one report. With one job the worker runs on the caller's thread,
    // whose own session a null registry must not mask.
    std::unique_ptr<TraceSession> session;
    if (options.stats != nullptr) {
      session = std::make_unique<TraceSession>(options.stats);
    }
    while (true) {
      const size_t index = next.fetch_add(1);
      if (index >= entries.size()) break;
      result.items[index] =
          CheckOne(entries[index], options, &retries, &recovered);
      trace::Count("batch/specs_checked");
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (int job = 0; job < jobs; ++job) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  for (const BatchItem& item : result.items) {
    if (!item.status.ok()) {
      ++result.errors;
      continue;
    }
    switch (item.verdict.outcome) {
      case ConsistencyOutcome::kConsistent: ++result.consistent; break;
      case ConsistencyOutcome::kInconsistent: ++result.inconsistent; break;
      case ConsistencyOutcome::kUnknown: ++result.unknown; break;
      case ConsistencyOutcome::kDeadlineExceeded:
        ++result.deadline_exceeded;
        break;
      case ConsistencyOutcome::kResourceExhausted:
        ++result.resource_exhausted;
        break;
    }
  }
  result.retries = retries.load();
  result.retry_recovered = recovered.load();
  result.wall_millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (options.stats != nullptr) {
    options.stats->Add("batch/deadline_exceeded", result.deadline_exceeded);
    options.stats->Add("batch/resource_exhausted", result.resource_exhausted);
    options.stats->Add("batch/errors", result.errors);
  }
  return result;
}

}  // namespace xmlverify
