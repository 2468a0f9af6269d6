// Parallel batch verification: check many (DTD, constraints)
// specifications on a thread pool. Consistency of distinct
// specifications is embarrassingly parallel — checks share nothing
// but the process-wide memo caches (GlobalDfaCache,
// GlobalCardinalityPlanCache), which are mutex-guarded — so the
// driver simply hands manifest entries to workers through an atomic
// cursor and writes each result into its manifest slot.
#ifndef XMLVERIFY_BATCH_BATCH_RUNNER_H_
#define XMLVERIFY_BATCH_BATCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/consistency.h"
#include "core/verdict.h"
#include "trace/trace.h"

namespace xmlverify {

/// One manifest line: either a combined `.xvc` specification or a
/// (DTD file, constraints file) pair.
struct BatchEntry {
  std::string dtd_path;          // or the combined .xvc path
  std::string constraints_path;  // empty for a combined spec
  int line = 0;                  // 1-based manifest line, for messages
};

/// Parses a batch manifest: one specification per line. Blank lines
/// and lines starting with '#' are skipped. A line holds either one
/// path (a combined `.xvc` file) or two whitespace-separated paths
/// (DTD, then constraints). Relative paths are resolved against
/// `base_dir` (normally the manifest's own directory), so a manifest
/// can be checked from anywhere.
Result<std::vector<BatchEntry>> ParseBatchManifest(
    const std::string& text, const std::string& base_dir);

struct BatchOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int jobs = 0;
  /// Per-check limits. Each check gets them stamped afresh
  /// (OptionsForOneCheck) when its worker picks it up, so queueing
  /// time is not charged and no two checks share a memory account.
  CheckLimits limits;
  /// Per-item retry with escalated budgets: an item whose check ends
  /// in DEADLINE_EXCEEDED or RESOURCE_EXHAUSTED (as a verdict or as an
  /// IO/check error status) is re-run up to `retries` more times, each
  /// attempt with its wall-clock and memory limits doubled again.
  /// Unlimited budgets stay unlimited; definitive verdicts are never
  /// retried.
  int retries = 0;
  /// Optional registry shared by every worker (each worker installs
  /// its own TraceSession on it), aggregating counters such as
  /// cache/dfa_hits across the whole batch.
  StatsRegistry* stats = nullptr;
};

/// Result of one manifest entry, in manifest order.
struct BatchItem {
  /// IO/parse/internal failure for this entry; the verdict is
  /// meaningful only when ok().
  Status status;
  ConsistencyVerdict verdict;
};

struct BatchResult {
  std::vector<BatchItem> items;  // parallel to the manifest entries
  // Aggregates over `items`.
  int consistent = 0;
  int inconsistent = 0;
  int unknown = 0;
  int deadline_exceeded = 0;
  int resource_exhausted = 0;
  int errors = 0;
  // Retry accounting (see BatchOptions::retries): attempts re-run
  // after a budget failure, and how many of those items ultimately
  // escaped the budget failure.
  int retries = 0;
  int retry_recovered = 0;
  int64_t wall_millis = 0;  // whole-batch wall clock
};

/// Checks every entry on `jobs` worker threads. Results land at the
/// entry's manifest index regardless of completion order. Workers
/// load (read + parse) their specification themselves, so IO and
/// parsing parallelize along with the checks; witnesses are not built
/// (batch mode reports verdicts only).
BatchResult RunBatch(const std::vector<BatchEntry>& entries,
                     const BatchOptions& options);

}  // namespace xmlverify

#endif  // XMLVERIFY_BATCH_BATCH_RUNNER_H_
