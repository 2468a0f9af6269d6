// Deadline and PeriodicDeadlineCheck semantics.
#include "base/deadline.h"

#include <gtest/gtest.h>

#include <thread>

#include "base/cancel.h"

namespace xmlverify {
namespace {

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline deadline;
  EXPECT_TRUE(deadline.is_infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline deadline = Deadline::AfterMillis(0);
  EXPECT_FALSE(deadline.is_infinite());
  EXPECT_TRUE(deadline.Expired());
}

TEST(DeadlineTest, FutureDeadlineExpiresAfterItsBudget) {
  Deadline deadline = Deadline::AfterMillis(20);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.Remaining(), Deadline::Clock::duration::zero());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(deadline.Expired());
}

TEST(DeadlineTest, RestartedKeepsTheCancelToken) {
  CancelToken token;
  Deadline base = Deadline::AfterMillis(0).WithCancelToken(token);
  Deadline restarted = base.Restarted(std::chrono::hours(1));
  EXPECT_FALSE(restarted.Expired());
  Deadline unbounded = base.Restarted(Deadline::Clock::duration::max());
  EXPECT_FALSE(unbounded.is_infinite());  // still cancellable
  EXPECT_EQ(unbounded.Remaining(), Deadline::Clock::duration::max());
  token.Cancel();
  EXPECT_TRUE(restarted.Expired());
  EXPECT_TRUE(unbounded.Expired());
  EXPECT_TRUE(Deadline().Restarted(Deadline::Clock::duration::max())
                  .is_infinite());
}

TEST(PeriodicDeadlineCheckTest, InfiniteDeadlineIsFree) {
  PeriodicDeadlineCheck check((Deadline()));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(check.Expired());
}

TEST(PeriodicDeadlineCheckTest, DetectsExpiryWithinOneStride) {
  PeriodicDeadlineCheck check(Deadline::AfterMillis(0), /*stride=*/8);
  bool expired = false;
  // The clock is polled at least once every `stride` calls, so an
  // already-expired deadline must surface within one full stride.
  for (int i = 0; i < 8 && !expired; ++i) expired = check.Expired();
  EXPECT_TRUE(expired);
  // Sticky: once seen, every later call reports expiry too.
  EXPECT_TRUE(check.Expired());
}

TEST(PeriodicDeadlineCheckTest, UnexpiredDeadlineStaysQuiet) {
  PeriodicDeadlineCheck check(Deadline::AfterMillis(60000), /*stride=*/1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(check.Expired());
}

}  // namespace
}  // namespace xmlverify
