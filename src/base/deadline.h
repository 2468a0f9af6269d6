// Cooperative wall-clock deadlines for the decision procedures.
//
// A Deadline is a point in time (or "never"); long-running loops poll
// it and bail out with a kDeadlineExceeded verdict instead of hanging
// on adversarial inputs. Polling is cooperative and cheap: an
// infinite deadline costs one branch, and hot loops amortize the
// clock read through PeriodicDeadlineCheck.
//
// Deadlines are plain values: copy them freely into worker threads
// and option structs. A default-constructed Deadline never expires.
#ifndef XMLVERIFY_BASE_DEADLINE_H_
#define XMLVERIFY_BASE_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/cancel.h"

namespace xmlverify {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires `budget` from now.
  static Deadline After(Clock::duration budget) {
    Deadline deadline;
    deadline.has_deadline_ = true;
    deadline.at_ = Clock::now() + budget;
    return deadline;
  }

  /// Expires `millis` milliseconds from now; non-positive budgets are
  /// already expired (useful in tests).
  static Deadline AfterMillis(int64_t millis) {
    return After(std::chrono::milliseconds(millis));
  }

  static Deadline Infinite() { return Deadline(); }

  /// Returns a copy that additionally expires the moment `token` is
  /// cancelled (base/cancel.h). Every existing cooperative poll —
  /// Expired(), PeriodicDeadlineCheck — then observes cancellation
  /// with one relaxed atomic load; the procedures need no changes. A
  /// cancel-only deadline (no time component) is not infinite: it is
  /// polled like any other.
  Deadline WithCancelToken(const CancelToken& token) const {
    Deadline deadline = *this;
    deadline.cancel_ = token.flag();
    return deadline;
  }

  /// Returns a copy whose clock restarts now: it expires `budget` from
  /// now (never, for Clock::duration::max()) and keeps this deadline's
  /// cancel token. Gives each of several checks the same allowance
  /// without dropping the caller's cancellation.
  Deadline Restarted(Clock::duration budget) const {
    Deadline deadline = *this;
    deadline.has_deadline_ = budget != Clock::duration::max();
    deadline.at_ = deadline.has_deadline_ ? Clock::now() + budget
                                          : Clock::time_point{};
    return deadline;
  }

  bool is_infinite() const { return !has_deadline_ && cancel_ == nullptr; }

  /// True once the attached cancel token (if any) has been tripped.
  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// True once the wall clock has passed the deadline or the attached
  /// cancel token has been tripped. Reads the clock; in tight loops
  /// prefer PeriodicDeadlineCheck.
  bool Expired() const {
    if (cancelled()) return true;
    return has_deadline_ && Clock::now() >= at_;
  }

  /// Time left, clamped at zero; a very large value when infinite.
  Clock::duration Remaining() const {
    if (cancelled()) return Clock::duration::zero();
    if (!has_deadline_) return Clock::duration::max();
    Clock::time_point now = Clock::now();
    return now >= at_ ? Clock::duration::zero() : at_ - now;
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point at_{};
  // Shared with the CancelToken that produced it (null: not
  // cancellable). Copies of the deadline share the one flag.
  std::shared_ptr<const std::atomic<bool>> cancel_;
};

/// Amortized deadline polling for hot loops: reads the clock only
/// every `stride` calls (and never for infinite deadlines), so a
/// disabled deadline adds one predictable branch per iteration.
/// Detection latency is bounded by `stride` loop iterations.
class PeriodicDeadlineCheck {
 public:
  explicit PeriodicDeadlineCheck(const Deadline& deadline,
                                 uint32_t stride = 64)
      : deadline_(deadline), stride_(stride == 0 ? 1 : stride) {}

  /// True once the deadline has passed (sticky after first detection).
  bool Expired() {
    if (expired_) return true;
    if (deadline_.is_infinite()) return false;
    if (++tick_ % stride_ != 0) return false;
    expired_ = deadline_.Expired();
    return expired_;
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  uint32_t stride_;
  uint32_t tick_ = 0;
  bool expired_ = false;
};

}  // namespace xmlverify

#endif  // XMLVERIFY_BASE_DEADLINE_H_
