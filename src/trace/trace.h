// Structured tracing and solver statistics.
//
// Three pieces, designed so that instrumentation can live permanently
// in hot paths (see docs/observability.md for the full event schema
// and counter naming convention):
//
//   * StatsRegistry — a thread-safe store of named monotonic counters
//     and per-phase wall-clock totals. One registry typically spans
//     one checker invocation (or one benchmark run).
//   * TraceSpan — an RAII phase timer. On destruction it adds its
//     elapsed time to the active registry under its name and notifies
//     the active sink, so nested spans reconstruct the phase tree
//     class-detection -> encoding -> solving -> witness construction.
//   * TraceSink — an optional streaming consumer of begin/end/counter
//     events (see sinks.h for text and JSON-lines implementations).
//
// Activation is per thread and scoped: instantiating a TraceSession
// installs a registry (and optional sink) as the calling thread's
// active trace target; destroying it restores the previous one.
// With no session installed every instrumentation call is a single
// thread-local load and branch — no clock reads, no locks, no
// allocation — which is what keeps always-on instrumentation free in
// release builds (the "zero overhead when disabled" contract measured
// by bench_solver).
#ifndef XMLVERIFY_TRACE_TRACE_H_
#define XMLVERIFY_TRACE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace xmlverify {

/// Streaming consumer of trace events. All methods are invoked on the
/// thread that owns the TraceSession; implementations need not be
/// thread-safe. `depth` is the span-nesting depth at the event.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void SpanBegin(std::string_view name, int depth) = 0;
  virtual void SpanEnd(std::string_view name, int depth, int64_t nanos) = 0;
  virtual void CounterAdd(std::string_view name, int64_t delta, int depth) = 0;
};

/// Aggregate of all completed spans with one name.
struct PhaseStat {
  int64_t count = 0;        // number of completed spans
  int64_t total_nanos = 0;  // summed wall-clock time
};

/// Thread-safe store of named counters and phase timings. Multiple
/// threads may share one registry (each via its own TraceSession);
/// every mutation takes the registry mutex.
class StatsRegistry {
 public:
  /// Adds `delta` to `counter` (creating it at zero).
  void Add(std::string_view counter, int64_t delta);
  /// Raises `counter` to `value` if below it (creating it at `value`,
  /// or at zero for negative `value`). Used for high-water marks such
  /// as search depth, which must appear in reports even when zero.
  void RecordMax(std::string_view counter, int64_t value);
  /// Adds one completed span of `nanos` to `phase`.
  void AddPhase(std::string_view phase, int64_t nanos);

  /// Current value of one counter; 0 if never touched.
  int64_t Counter(std::string_view counter) const;
  /// Snapshots (sorted by name; safe to take while other threads
  /// continue recording).
  std::map<std::string, int64_t> Counters() const;
  std::map<std::string, PhaseStat> Phases() const;
  void Reset();

  /// The machine-readable report behind `xmlvc --stats`:
  ///   {"phases": {name: {"count": N, "total_ns": N}, ...},
  ///    "counters": {name: N, ...}}
  /// Keys are sorted; emitted pretty-printed, one entry per line.
  std::string ToJson() const;
  /// Human-readable table of the same data (times in milliseconds).
  std::string ToText() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, PhaseStat, std::less<>> phases_;
};

namespace trace {

namespace internal {
struct ThreadState {
  StatsRegistry* registry = nullptr;  // null <=> tracing disabled
  TraceSink* sink = nullptr;
  int depth = 0;
};
extern thread_local ThreadState tls_state;

// Out-of-line slow paths, entered only with a session installed.
void CountSlow(std::string_view counter, int64_t delta);
void MaxSlow(std::string_view counter, int64_t value);
}  // namespace internal

/// True while a TraceSession is installed on this thread.
inline bool Enabled() { return internal::tls_state.registry != nullptr; }

/// Adds `delta` to a named monotonic counter, if tracing is enabled.
inline void Count(std::string_view counter, int64_t delta = 1) {
  if (Enabled()) internal::CountSlow(counter, delta);
}

/// Records a high-water mark, if tracing is enabled.
inline void Max(std::string_view counter, int64_t value) {
  if (Enabled()) internal::MaxSlow(counter, value);
}

/// JSON string literal (quotes plus escaping) for report writers.
std::string JsonQuote(std::string_view text);

}  // namespace trace

/// Installs `registry` (and optionally `sink`) as the calling
/// thread's trace target for the lifetime of this object. Sessions
/// nest; the previous target is restored on destruction.
class TraceSession {
 public:
  explicit TraceSession(StatsRegistry* registry, TraceSink* sink = nullptr);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  trace::internal::ThreadState saved_;
};

/// RAII phase timer. `name` must outlive the span (string literals in
/// practice). Inactive (and free apart from one branch) when no
/// session is installed at construction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  int depth_ = 0;
  bool active_ = false;
};

}  // namespace xmlverify

#endif  // XMLVERIFY_TRACE_TRACE_H_
