#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "base/fault_injection.h"
#include "checker/document_checker.h"
#include "core/canonical.h"
#include "serve/snapshot.h"
#include "core/diagnosis.h"
#include "core/implication_engine.h"
#include "core/specification.h"
#include "xml/xml_parser.h"

namespace xmlverify {

namespace {

// Composite raw-tier cache key covering both request forms; the
// separator bytes cannot appear adjacently in either text, so the two
// forms (and distinct pairs) never collide.
std::string RawCacheKey(const ServeRequest& request) {
  if (request.has_spec) return "s\n" + request.spec_text;
  return "p\n" + request.dtd_text + "\n\x1f\n" + request.constraints_text;
}

// Bounds for the incremental-reverification history: a small FIFO of
// recently solved constraint sets per DTD, and an epoch clear on the
// DTD map itself, mirroring SharedCache's crude-but-contention-free
// policy.
constexpr size_t kHistoryPerDtd = 4;
constexpr size_t kHistoryDtds = 1024;

// Poll slice for the reader/writer loops: long enough that an idle
// server burns no measurable CPU, short enough that stop_ and the
// idle/write deadlines are observed promptly.
constexpr int kPollSliceMillis = 100;

// Milliseconds left on `deadline`, clamped into [0, slice] for use as
// a poll() timeout. An infinite deadline polls a full slice.
int PollTimeout(const Deadline& deadline) {
  if (deadline.is_infinite()) return kPollSliceMillis;
  auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline.Remaining())
                       .count();
  if (remaining <= 0) return 0;
  return static_cast<int>(
      std::min<int64_t>(remaining, kPollSliceMillis));
}

}  // namespace

ServeServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

ServeServer::ServeServer(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_entries == 0 ? 1 : options_.cache_entries) {}

ServeServer::~ServeServer() { Shutdown(); }

Status ServeServer::Start() {
  if (started_.exchange(true)) return Status::Internal("already started");

  // Warm-start before the port opens, so the first request already
  // sees the restored cache. A bad snapshot is a degraded start, not
  // a fatal one: the loader skips bad records individually, and even
  // a wholesale-unreadable file only costs the warm start.
  if (!options_.cache_snapshot_path.empty()) {
    std::unique_ptr<TraceSession> session;
    if (options_.stats != nullptr) {
      session = std::make_unique<TraceSession>(options_.stats);
    }
    Result<SnapshotLoadStats> loaded =
        LoadVerdictSnapshot(&cache_, options_.cache_snapshot_path);
    if (!loaded.ok()) trace::Count("serve/cache_snapshot_load_failures");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  // Loopback only: the service speaks an unauthenticated protocol, so
  // exposure beyond the host is an operator decision (front it with a
  // real proxy), not a default.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind 127.0.0.1:" + std::to_string(options_.port) +
                            ": " + std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(saved));
  }
  port_ = ntohs(bound.sin_port);
  if (::listen(listen_fd_, 128) != 0) {
    int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen: ") + std::strerror(saved));
  }

  int jobs = options_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  workers_.reserve(jobs);
  for (int job = 0; job < jobs; ++job) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (!options_.cache_snapshot_path.empty() &&
      options_.snapshot_interval_millis > 0) {
    snapshotter_ = std::thread([this] { SnapshotLoop(); });
  }
  return Status();
}

void ServeServer::Wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    wait_cv_.wait(lock, [this] { return stop_.load(); });
  }
  Shutdown();
}

void ServeServer::RequestStop() {
  stop_.store(true);
  wait_cv_.notify_all();
  queue_cv_.notify_all();
  // Unblock the acceptor without closing the fd out from under it
  // (Shutdown joins before closing). The mutex keeps a late stop
  // request from touching an fd number the OS has already recycled.
  std::lock_guard<std::mutex> lock(listen_mutex_);
  if (listen_fd_ >= 0 && !listen_shut_) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    listen_shut_ = true;
  }
}

void ServeServer::Shutdown() {
  if (!started_.load()) return;
  RequestStop();
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (joined_) return;
  joined_ = true;

  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(listen_mutex_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // Kick every parked reader out of recv(); their connections close
  // as the last shared_ptr (reader or in-flight job) is released.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (ReaderSlot& slot : readers_) {
      if (slot.thread.joinable()) slot.thread.join();
    }
    readers_.clear();
  }

  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (snapshotter_.joinable()) snapshotter_.join();

  // Drain snapshot, after the workers have stopped mutating the
  // cache. Retried a few times so a transiently failing disk (or an
  // armed `cache_snapshot_write` probability fault) does not silently
  // discard the warm state accumulated over the whole run.
  if (!options_.cache_snapshot_path.empty()) {
    std::unique_ptr<TraceSession> session;
    if (options_.stats != nullptr) {
      session = std::make_unique<TraceSession>(options_.stats);
    }
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (WriteVerdictSnapshot(cache_, options_.cache_snapshot_path, nullptr)
              .ok()) {
        break;
      }
    }
  }

  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.clear();
}

void ServeServer::SnapshotLoop() {
  TraceSession session(options_.stats);
  const auto interval =
      std::chrono::milliseconds(options_.snapshot_interval_millis);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wait_mutex_);
      if (wait_cv_.wait_for(lock, interval, [this] { return stop_.load(); })) {
        return;  // the drain write in Shutdown captures the final state
      }
    }
    WriteVerdictSnapshot(cache_, options_.cache_snapshot_path, nullptr);
  }
}

void ServeServer::AcceptLoop() {
  TraceSession session(options_.stats);
  while (!stop_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket shut down (or a fatal accept error)
    }
    if (stop_.load()) {
      ::close(fd);
      break;
    }
    // Fault point `socket_accept`: the handshake "fails" after the
    // kernel accepted — the fd is dropped on the floor exactly as an
    // accept-time RST would leave it. The client sees a reset; the
    // server carries on.
    if (FaultInjector::ShouldFail("socket_accept")) {
      trace::Count("serve/accept_faults");
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0) {
      size_t open;
      {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        open = connections_.size();
      }
      if (open >= static_cast<size_t>(options_.max_connections)) {
        // Shed at the door with the same RETRYABLE contract as a full
        // queue — the client owns the retry policy. Best-effort write
        // on the still-blocking fd; the connection never enters the
        // tracked set and is not counted in responses_sent().
        trace::Count("serve/connections_rejected");
        std::string line = FormatErrorResponse(
            "", "RETRYABLE",
            "connection limit (" + std::to_string(options_.max_connections) +
                " open); retry with backoff",
            true);
        (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking from here on: the reader paces itself with poll()
    // (idle deadline), and the writer can bound how long a stalled
    // peer may hold the response path (write deadline).
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.insert(conn);
    }
    trace::Count("serve/connections");
    std::lock_guard<std::mutex> lock(readers_mutex_);
    // Reap readers that already finished (join returns immediately),
    // so a long-lived server does not accumulate thread handles.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (it->done.load()) {
        if (it->thread.joinable()) it->thread.join();
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
    readers_.emplace_back();
    ReaderSlot& slot = readers_.back();
    slot.thread = std::thread([this, conn, &slot] {
      ReadLoop(conn);
      slot.done.store(true);
    });
  }
}

void ServeServer::ReadLoop(std::shared_ptr<Connection> conn) {
  TraceSession session(options_.stats);
  std::string buffer;
  bool discarding = false;
  bool peer_failed = false;
  char chunk[16384];
  Deadline idle = options_.idle_timeout_millis > 0
                      ? Deadline::AfterMillis(options_.idle_timeout_millis)
                      : Deadline::Infinite();
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, PollTimeout(idle));
    if (ready < 0) {
      if (errno == EINTR) continue;
      peer_failed = true;
      break;
    }
    if (ready == 0) {
      if (idle.Expired()) {
        // Slowloris defense: a connection that goes silent for the
        // idle budget is cancelled and reclaimed; its in-flight
        // checks abandon through the cooperative deadline polls.
        trace::Count("serve/idle_timeouts");
        peer_failed = true;
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      peer_failed = true;  // reset or worse: nobody is reading answers
      break;
    }
    // n == 0 is a clean half-close: the peer finished writing but may
    // still be reading. Responses for queued requests keep flowing —
    // this must NOT cancel (pipelined clients depend on it).
    if (n == 0) break;
    if (options_.idle_timeout_millis > 0) {
      idle = Deadline::AfterMillis(options_.idle_timeout_millis);
    }
    const char* const end = chunk + n;
    for (const char* begin = chunk; begin < end;) {
      const char* newline = std::find(begin, end, '\n');
      if (!discarding) {
        buffer.append(begin, newline);
        // A line can exceed the cap while buffering or, within a
        // single recv chunk, only once it is complete.
        if (buffer.size() > options_.max_line_bytes) {
          trace::Count("serve/oversized_lines");
          WriteResponse(conn, FormatErrorResponse(
                                  "", "LINE_TOO_LONG",
                                  "request line exceeds " +
                                      std::to_string(options_.max_line_bytes) +
                                      " bytes",
                                  false));
          buffer.clear();
          discarding = true;
        }
      }
      if (newline == end) break;
      // A complete line; the tail of an oversized one is dropped and
      // framing resumes after it.
      if (!discarding) HandleLine(conn, buffer);
      discarding = false;
      buffer.clear();
      begin = newline + 1;
    }
  }
  if (peer_failed) {
    trace::Count("serve/connections_cancelled");
    conn->cancel.Cancel();
  }
  // A final unterminated line is still a request (netcat piping a
  // file without a trailing newline).
  if (!peer_failed && !discarding && !buffer.empty() && !stop_.load()) {
    HandleLine(conn, buffer);
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.erase(conn);
}

void ServeServer::HandleLine(const std::shared_ptr<Connection>& conn,
                             const std::string& line) {
  // Blank lines are tolerated silently: they carry no id to answer
  // under and commonly appear when driving the port by hand.
  bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
  if (blank) return;

  Result<ServeRequest> request = ParseServeRequest(line);
  if (!request.ok()) {
    trace::Count("serve/invalid_requests");
    WriteResponse(conn,
                  FormatErrorResponse(RecoverRequestId(line), "INVALID_REQUEST",
                                      request.status().message(), false));
    return;
  }
  trace::Count("serve/requests");
  Job job;
  job.request = *std::move(request);
  job.conn = conn;
  // The client's own timeout starts here, at admission: time spent
  // queued counts against it, so a job that outwaits its client is
  // shed at pickup instead of being solved for nobody. The server
  // ceiling is still stamped at pickup (see HandleRequest).
  if (job.request.timeout_millis > 0) {
    job.client_deadline = Deadline::AfterMillis(job.request.timeout_millis);
  }
  std::string id = job.request.id;
  if (!TryEnqueue(std::move(job))) {
    trace::Count("serve/shed");
    WriteResponse(conn, FormatErrorResponse(
                            id, "RETRYABLE",
                            "queue full (" + std::to_string(options_.queue_limit) +
                                " requests waiting); retry with backoff",
                            true));
  }
}

bool ServeServer::TryEnqueue(Job job) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.size() >= options_.queue_limit) return false;
    queue_.push_back(std::move(job));
    trace::Max("serve/queue_depth_max",
               static_cast<int64_t>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

void ServeServer::WorkerLoop() {
  TraceSession session(options_.stats);
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stop_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_.load()) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.debug_handle_delay_millis > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.debug_handle_delay_millis));
    }
    HandleRequest(job);
  }
}

CheckLimits ServeServer::PickupLimits(const Job& job) const {
  CheckLimits limits;
  limits.timeout_millis = options_.timeout_millis;  // server ceiling
  if (!job.client_deadline.is_infinite()) {
    // What remains of the enqueue-stamped client budget; the expired
    // case is shed before this is called, so clamp to 1ms as a race
    // guard rather than re-deciding here.
    int64_t remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                            job.client_deadline.Remaining())
                            .count();
    if (remaining < 1) remaining = 1;
    if (limits.timeout_millis <= 0 || remaining < limits.timeout_millis) {
      limits.timeout_millis = remaining;
    }
  }
  limits.memory_limit_bytes = options_.memory_limit_bytes;
  limits.max_depth = options_.max_depth;
  return limits;
}

void ServeServer::RecordHistory(const std::string& dtd_text,
                                HistoryEntry entry) {
  std::lock_guard<std::mutex> lock(history_mutex_);
  if (history_.size() >= kHistoryDtds &&
      history_.find(dtd_text) == history_.end()) {
    history_.clear();  // epoch clear, SharedCache-style
  }
  std::vector<HistoryEntry>& entries = history_[dtd_text];
  entries.push_back(std::move(entry));
  if (entries.size() > kHistoryPerDtd) entries.erase(entries.begin());
}

bool ServeServer::TryIncremental(const Specification& spec,
                                 CachedVerdict* confirmed) {
  std::vector<HistoryEntry> candidates;
  {
    std::lock_guard<std::mutex> lock(history_mutex_);
    auto it = history_.find(spec.dtd.ToString());
    if (it == history_.end()) return false;
    candidates = it->second;  // small copy; confirm outside the lock
  }
  const ImplicationChecker engine;
  // Most recent first: incremental editing sessions hit the last
  // verdict almost always.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const HistoryEntry& old = *it;
    if (old.outcome == ConsistencyOutcome::kInconsistent) {
      // Sigma_new |= core (or the full old Sigma): any document
      // satisfying the new spec would satisfy an inconsistent set.
      const ConstraintSet& base = old.core ? *old.core : old.constraints;
      if (!engine.QuickImpliesAll(spec.dtd, spec.constraints, base)) {
        continue;
      }
    } else {
      // The history holds definitive verdicts only, so `old` is
      // CONSISTENT. A document that conforms to the DTD and satisfies
      // Sigma_new proves the new spec consistent (the paper's dynamic
      // check), so replaying the old witness needs no implication.
      if (old.witness_xml.empty()) continue;
      Result<XmlTree> witness = ParseXmlDocument(old.witness_xml, spec.dtd);
      if (!witness.ok() ||
          !CheckDocument(*witness, spec.dtd, spec.constraints).ok()) {
        trace::Count("serve/incremental_witness_rejected");
        continue;
      }
    }
    // The old core need not be a subset of the new constraints, so it
    // is not carried over: core-requesting clients get a fresh
    // minimization instead.
    confirmed->outcome = old.outcome;
    confirmed->note = "class: " + ConstraintClassName(spec.Classify());
    confirmed->witness_xml = old.witness_xml;
    return true;
  }
  return false;
}

void ServeServer::HandleRequest(const Job& job) {
  const ServeRequest& request = job.request;

  // Pickup admission: a job whose connection died while it queued is
  // dropped outright (nobody is listening), and one that outwaited
  // its own client timeout is answered with a cheap DEADLINE_EXCEEDED
  // instead of a full solve whose answer would arrive too late.
  if (job.conn->cancel.cancelled()) {
    trace::Count("serve/cancelled");
    return;
  }
  if (job.client_deadline.Expired()) {
    trace::Count("serve/queue_expired");
    WriteResponse(job.conn,
                  FormatVerdictResponse(
                      request.id, ConsistencyOutcome::kDeadlineExceeded,
                      "request timeout_ms of " +
                          std::to_string(request.timeout_millis) +
                          " expired while queued",
                      /*fingerprint=*/"", /*cached=*/false,
                      /*witness_xml=*/"", /*include_witness=*/false));
    return;
  }

  const std::string raw_key = RawCacheKey(request);

  // Raw tier first: a byte-identical repeat skips even the parse —
  // unless the entry owes the client a core it does not have yet, in
  // which case the parse path below computes and attaches it once.
  if (auto hit = cache_.LookupRaw(raw_key)) {
    const bool core_pending =
        request.want_core &&
        hit->outcome == ConsistencyOutcome::kInconsistent &&
        hit->core_text.empty();
    if (!core_pending) {
      trace::Count("serve/cache_hits");
      WriteResponse(job.conn,
                    FormatVerdictResponse(request.id, hit->outcome, hit->note,
                                          hit->fingerprint, /*cached=*/true,
                                          hit->witness_xml,
                                          request.want_witness, hit->core_text,
                                          request.want_core));
      return;
    }
  }

  Result<Specification> spec =
      request.has_spec
          ? Specification::ParseCombined(request.spec_text)
          : Specification::Parse(request.dtd_text, request.constraints_text);
  if (!spec.ok()) {
    trace::Count("serve/invalid_specs");
    WriteResponse(job.conn,
                  FormatErrorResponse(request.id, "INVALID_SPEC",
                                      spec.status().message(), false));
    return;
  }

  const std::string canonical = CanonicalSpecText(*spec);
  const std::string fingerprint = FingerprintText(canonical);
  // The other sources fill one answer: a canonical-tier hit, a
  // confirmation from the DTD's history, or a cold solve. The last two
  // are new answers, which the cache and the history store.
  CachedVerdict answer;
  bool solved = false;
  const std::shared_ptr<const CachedVerdict> hit =
      cache_.LookupCanonical(canonical, raw_key);
  if (hit != nullptr) {
    trace::Count("serve/cache_hits");
    answer = *hit;
  } else {
    trace::Count("serve/cache_misses");
    answer.fingerprint = fingerprint;
    // Incremental re-verification: before paying for a cold solve, try
    // to confirm a verdict previously computed for the same DTD — by
    // replaying an old witness, or for INCONSISTENT by quick-tier
    // implication (docs/serving.md).
    if (TryIncremental(*spec, &answer)) {
      trace::Count("serve/incremental_hits");
    } else {
      // The server ceiling is stamped when the worker picks the job up
      // (queueing time is not charged against it; batch-runner
      // contract), tightened by what remains of the enqueue-stamped
      // client deadline. The connection's cancel token rides on the
      // deadline, so the check aborts cooperatively the moment the
      // reader declares the peer dead.
      ConsistencyChecker checker(
          OptionsForOneCheck(PickupLimits(job), &job.conn->cancel));
      Result<ConsistencyVerdict> verdict = checker.Check(*spec);
      if (!verdict.ok()) {
        if (job.conn->cancel.cancelled()) {
          // The client is gone; its budget-shaped failure is nobody's
          // business and the socket is dead anyway.
          trace::Count("serve/cancelled");
          trace::Count("serve/cancelled_inflight");
          return;
        }
        trace::Count("serve/check_errors");
        bool retryable =
            verdict.status().code() == StatusCode::kDeadlineExceeded ||
            verdict.status().code() == StatusCode::kResourceExhausted;
        WriteResponse(job.conn, FormatErrorResponse(
                                    request.id, "CHECK_FAILED",
                                    verdict.status().message(), retryable));
        return;
      }
      solved = true;
      answer.outcome = verdict->outcome;
      answer.note = verdict->note;
      if (verdict->witness.has_value()) {
        answer.witness_xml = verdict->witness->ToXml(spec->dtd);
      }
    }
    // Only definitive verdicts enter the cache; Insert enforces the
    // policy (UNKNOWN/DEADLINE_EXCEEDED/RESOURCE_EXHAUSTED describe
    // this run's budget, not the specification).
    cache_.Insert(canonical, raw_key, fingerprint, answer.outcome, answer.note,
                  answer.witness_xml);
  }

  // An INCONSISTENT answer owes a core-requesting client its core,
  // minimized at most once per cached spec. The minimization runs
  // |Sigma|+1 probe checks; it gets one fresh request-sized budget
  // here, and MinimizeInconsistentCore derives a fresh per-probe
  // budget from it (core/diagnosis.cc). A tripped cancel token fails
  // it, so a dead client's request records no core.
  std::optional<ConstraintSet> core;
  if (request.want_core &&
      answer.outcome == ConsistencyOutcome::kInconsistent &&
      answer.core_text.empty()) {
    Result<ConstraintSet> minimized = MinimizeInconsistentCore(
        spec->dtd, spec->constraints,
        OptionsForOneCheck(PickupLimits(job), &job.conn->cancel));
    if (minimized.ok()) {
      trace::Count("serve/core_computed");
      answer.core_text = minimized->ToString(spec->dtd);
      cache_.AttachCore(canonical, raw_key, answer.core_text);
      core = *std::move(minimized);
    } else {
      trace::Count("serve/core_failed");
    }
  }
  // The history remembers new definitive answers and computed cores.
  if (core.has_value() ||
      (hit == nullptr && VerdictCache::Cacheable(answer.outcome))) {
    RecordHistory(spec->dtd.ToString(),
                  HistoryEntry{spec->constraints, std::move(core),
                               answer.outcome, answer.witness_xml});
  }
  if (solved && job.conn->cancel.cancelled()) {
    // The client died after the solve finished. The definitive result
    // was banked in the cache and history above — the work is not
    // wasted — but there is nobody to write to.
    trace::Count("serve/cancelled");
    trace::Count("serve/cancelled_inflight");
    return;
  }
  WriteResponse(job.conn,
                FormatVerdictResponse(request.id, answer.outcome, answer.note,
                                      answer.fingerprint, /*cached=*/!solved,
                                      answer.witness_xml, request.want_witness,
                                      answer.core_text, request.want_core));
}

void ServeServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                                const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    // The fd is non-blocking; a peer that stops draining its socket
    // surfaces as EAGAIN, and the write deadline bounds how long it
    // may hold this connection's response path. On expiry the
    // connection is cancelled: a client too stalled to read one
    // response will not absorb further work either.
    Deadline write_deadline =
        options_.write_timeout_millis > 0
            ? Deadline::AfterMillis(options_.write_timeout_millis)
            : Deadline::Infinite();
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(conn->fd, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (stop_.load() || write_deadline.Expired()) {
            trace::Count("serve/write_timeouts");
            conn->cancel.Cancel();
            break;
          }
          pollfd pfd{};
          pfd.fd = conn->fd;
          pfd.events = POLLOUT;
          int ready = ::poll(&pfd, 1, PollTimeout(write_deadline));
          if (ready < 0 && errno != EINTR) {
            trace::Count("serve/write_errors");
            conn->cancel.Cancel();
            break;
          }
          continue;
        }
        trace::Count("serve/write_errors");
        conn->cancel.Cancel();  // client went away; drop the response
        break;
      }
      sent += static_cast<size_t>(n);
    }
  }
  trace::Count("serve/responses");
  int64_t sent_total = responses_sent_.fetch_add(1) + 1;
  if (options_.max_requests > 0 && sent_total >= options_.max_requests) {
    RequestStop();
  }
}

}  // namespace xmlverify
