// The long-lived verification service: a multi-threaded TCP front
// end over the consistency checker that keeps process-wide state warm
// across requests — the regex->DFA and cardinality-plan memo caches
// (base/shared_cache.h) and the serve layer's own verdict cache
// (serve/verdict_cache.h).
//
// Thread shape (docs/serving.md has the operator's view):
//
//   acceptor ──> one reader thread per connection
//                   │ parse line, admission control
//                   ▼
//              bounded job queue ──> N worker threads
//                                       │ verdict cache / checker
//                                       ▼
//                                    response line (per-connection
//                                    write mutex; out of order by id)
//
// Admission control: the queue is bounded; when it is full the reader
// answers immediately with the distinct RETRYABLE error instead of
// queueing (load shedding — the client owns the retry policy, the
// server never builds unbounded backlog). Each check's limits are
// stamped by OptionsForOneCheck (core/consistency.h) when a worker
// picks the job up (queueing time is not charged, as in the batch
// runner), while a request that carries its own `timeout_ms` is
// additionally stamped at enqueue, so a job that already outwaited its
// client is shed cheaply at pickup instead of being solved for nobody.
// The degradation ladder of docs/robustness.md applies unchanged.
//
// Hostile-client hardening (docs/serving.md, "Connection hardening"):
// per-connection idle and write deadlines bound how long a silent or
// stalled peer can hold a reader thread or the response path, a
// connection cap sheds accepts beyond `max_connections` with a
// RETRYABLE line, and every connection carries a CancelToken
// (base/cancel.h) that the reader trips when the peer is gone —
// workers observe it through the ordinary cooperative deadline polls
// and abandon the check. Cancellation, like RESOURCE_EXHAUSTED, is
// never a definitive verdict and never enters the caches.
#ifndef XMLVERIFY_SERVE_SERVER_H_
#define XMLVERIFY_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "base/deadline.h"
#include "base/status.h"
#include "core/consistency.h"
#include "serve/protocol.h"
#include "serve/verdict_cache.h"
#include "trace/trace.h"

namespace xmlverify {

struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// from ServeServer::port()).
  int port = 0;
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int jobs = 0;
  /// Bounded admission queue; a request arriving while `queue_limit`
  /// jobs are already waiting is shed with a RETRYABLE response.
  size_t queue_limit = 256;
  /// Server-side per-request wall-clock ceiling in milliseconds;
  /// <= 0 means none. A request's own `timeout_ms` may only tighten
  /// it, never exceed it. Like the two ceilings below, it is stamped
  /// afresh for every check (OptionsForOneCheck).
  int64_t timeout_millis = 0;
  /// Per-request tracked-memory ceiling in bytes; <= 0 means none.
  int64_t memory_limit_bytes = 0;
  /// Per-request recursion-depth ceiling; <= 0 means none.
  int max_depth = 0;
  /// Verdict-cache capacity per tier (see serve/verdict_cache.h).
  size_t cache_entries = 1 << 16;
  /// Longest accepted request line; longer lines are discarded up to
  /// the next newline and answered with a LINE_TOO_LONG error.
  size_t max_line_bytes = 4u << 20;
  /// Stop serving after this many responses have been written
  /// (0: serve forever). Lets tests and benches run a bounded session
  /// without signal choreography.
  int64_t max_requests = 0;
  /// Per-connection idle deadline in milliseconds; <= 0 disables. A
  /// connection that sends no bytes for this long is cancelled and
  /// closed (its reader thread is reclaimed), so slowloris peers
  /// cannot pin readers forever.
  int64_t idle_timeout_millis = 0;
  /// Per-response write deadline in milliseconds; <= 0 disables. A
  /// peer that stops draining its socket for this long has its
  /// connection cancelled and the response dropped, so a stalled
  /// client cannot wedge the shared response path.
  int64_t write_timeout_millis = 0;
  /// Open-connection cap; <= 0 means unlimited. An accept beyond the
  /// cap is answered with a single RETRYABLE error line and closed
  /// immediately — a distinct shed from queue-full, visible as
  /// serve/connections_rejected.
  int max_connections = 0;
  /// Durable warm cache (serve/snapshot.h): when non-empty, the
  /// canonical verdict-cache tier is loaded from this path at Start
  /// and written back on drain (and periodically, below), so a
  /// restart begins warm. Corrupt or stale records are skipped
  /// individually at load.
  std::string cache_snapshot_path = "";
  /// Periodic snapshot interval in milliseconds; <= 0 writes only on
  /// drain. Ignored when cache_snapshot_path is empty.
  int64_t snapshot_interval_millis = 0;
  /// Test-only: each worker sleeps this long before handling a job,
  /// making queue buildup (and thus shedding) deterministic in tests.
  int64_t debug_handle_delay_millis = 0;
  /// Optional registry shared by every server thread (each installs
  /// its own TraceSession), aggregating the serve/* counters.
  StatsRegistry* stats = nullptr;
};

class ServeServer {
 public:
  explicit ServeServer(ServeOptions options);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens, and spawns the acceptor and worker threads.
  Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Blocks until the server decides to stop (max_requests reached or
  /// Shutdown called from another thread), then completes the
  /// shutdown. Returns once every thread is joined.
  void Wait();

  /// Idempotent, thread-safe: stops accepting, unblocks every reader,
  /// drains the queue, joins all threads. Concurrent callers block
  /// until the teardown is complete (never returns with threads still
  /// running).
  void Shutdown();

  /// True once the server has decided to stop (signal from Shutdown
  /// or the max_requests threshold); threads may still be draining.
  bool stopped() const { return stop_.load(); }

  /// Responses written so far (verdicts, errors, and sheds alike).
  int64_t responses_sent() const {
    return responses_sent_.load(std::memory_order_relaxed);
  }

 private:
  /// One client connection. The fd is owned here and closed on
  /// destruction; workers and the reader share the connection via
  /// shared_ptr, so the fd stays valid until the last in-flight
  /// response for it has been written.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mutex;
    /// Tripped by the reader when the peer is gone (recv error, idle
    /// timeout) or by the writer on a write error/timeout. In-flight
    /// checks for this connection observe it through their deadline
    /// polls and abandon the work; queued jobs are skipped at pickup.
    /// A clean half-close (EOF after the last request) does NOT trip
    /// it: pipelined clients legitimately shut down their write side
    /// and then read the remaining responses.
    CancelToken cancel;
  };

  struct Job {
    ServeRequest request;
    std::shared_ptr<Connection> conn;
    /// Stamped at enqueue when the request carries its own
    /// timeout_ms (infinite otherwise), so queue wait counts against
    /// the client's budget and an already-expired job is shed cheaply
    /// at pickup. The server ceiling is still stamped at pickup.
    Deadline client_deadline;
  };

  /// One solved specification remembered for incremental
  /// re-verification (docs/serving.md): the constraints it carried,
  /// its definitive outcome, its witness (CONSISTENT) and, when a
  /// client has paid for it, its minimized core (INCONSISTENT).
  struct HistoryEntry {
    ConstraintSet constraints;
    std::optional<ConstraintSet> core;
    ConsistencyOutcome outcome = ConsistencyOutcome::kUnknown;
    std::string witness_xml;
  };

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void SnapshotLoop();
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line);
  void HandleRequest(const Job& job);
  bool TryEnqueue(Job job);
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const std::string& line);
  void RequestStop();

  /// The limits of one check of `job` at pickup: the server ceiling
  /// (stamped now) tightened by what remains of the client deadline
  /// (stamped at enqueue), and the server's memory and depth ceilings.
  /// OptionsForOneCheck stamps them, with the connection's cancel
  /// token, so the check aborts cooperatively when the client goes
  /// away.
  CheckLimits PickupLimits(const Job& job) const;
  /// Remembers a definitive verdict for the incremental path: appends
  /// it to its DTD's entries and drops the oldest beyond
  /// kHistoryPerDtd; too many DTDs clear the whole map.
  void RecordHistory(const std::string& dtd_text, HistoryEntry entry);
  /// Tries to confirm a verdict for `spec` from the history of its
  /// DTD, newest entry first: a CONSISTENT entry by replaying its
  /// witness through the document checker on `spec`, an INCONSISTENT
  /// one by quick-tier implication of its core. On success fills the
  /// outcome, witness and note of `confirmed`; the note names the
  /// class of `spec`.
  bool TryIncremental(const Specification& spec, CachedVerdict* confirmed);

  ServeOptions options_;
  VerdictCache cache_;

  // Recently solved specifications grouped by their canonical DTD
  // text (same text => same symbol ids, so constraint sets transfer).
  std::mutex history_mutex_;
  std::unordered_map<std::string, std::vector<HistoryEntry>> history_;
  std::mutex listen_mutex_;  // guards listen_fd_/listen_shut_ teardown
  int listen_fd_ = -1;
  bool listen_shut_ = false;
  int port_ = 0;

  std::thread acceptor_;
  std::thread snapshotter_;
  std::vector<std::thread> workers_;
  // Reader threads, reaped opportunistically by the acceptor (a slot
  // whose `done` flag is set joins instantly) and finally in
  // Shutdown.
  struct ReaderSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex readers_mutex_;
  std::list<ReaderSlot> readers_;

  // Open connections, tracked so Shutdown can unblock readers that
  // are parked in recv().
  std::mutex connections_mutex_;
  std::set<std::shared_ptr<Connection>> connections_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  bool joined_ = false;           // guarded by shutdown_mutex_
  std::mutex shutdown_mutex_;     // serializes the join sequence
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;

  std::atomic<int64_t> responses_sent_{0};
};

}  // namespace xmlverify

#endif  // XMLVERIFY_SERVE_SERVER_H_
