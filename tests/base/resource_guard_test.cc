#include "base/resource_guard.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "base/status.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

TEST(ResourceBudgetTest, UnlimitedBudgetNeverFails) {
  ResourceBudget budget;
  EXPECT_OK(budget.ChargeMemory(int64_t{1} << 40, "test/huge"));
  EXPECT_OK(budget.CheckDepth(1'000'000, "test/deep"));
  EXPECT_EQ(budget.memory_used(), int64_t{1} << 40);
}

TEST(ResourceBudgetTest, MemoryCeilingIsEnforced) {
  ResourceBudget budget;
  budget.set_memory_limit_bytes(1000);
  EXPECT_OK(budget.ChargeMemory(600, "test/a"));
  EXPECT_OK(budget.ChargeMemory(400, "test/b"));
  Status over = budget.ChargeMemory(1, "test/c");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // The failed charge was not recorded.
  EXPECT_EQ(budget.memory_used(), 1000);
  budget.ReleaseMemory(400);
  EXPECT_OK(budget.ChargeMemory(1, "test/c"));
}

TEST(ResourceBudgetTest, ReleaseClampsAtZero) {
  ResourceBudget budget;
  EXPECT_OK(budget.ChargeMemory(10, "test/a"));
  budget.ReleaseMemory(1000);
  EXPECT_EQ(budget.memory_used(), 0);
}

TEST(ResourceBudgetTest, PeakTracksHighWaterMark) {
  ResourceBudget budget;
  EXPECT_OK(budget.ChargeMemory(500, "test/a"));
  budget.ReleaseMemory(500);
  EXPECT_OK(budget.ChargeMemory(100, "test/b"));
  EXPECT_EQ(budget.memory_peak(), 500);
}

TEST(ResourceBudgetTest, CopiesShareAccountingButNotLimits) {
  ResourceBudget base;
  base.set_memory_limit_bytes(1000);
  ResourceBudget copy = base;
  // Raising the copy's ceiling leaves the base's ceiling intact...
  copy.set_memory_limit_bytes(2000);
  EXPECT_EQ(base.memory_limit_bytes(), 1000);
  // ...but a charge through either copy is visible to both.
  EXPECT_OK(copy.ChargeMemory(700, "test/shared"));
  EXPECT_EQ(base.memory_used(), 700);
  Status over = base.ChargeMemory(400, "test/over");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_OK(copy.ChargeMemory(400, "test/under"));
}

TEST(ResourceBudgetTest, DepthCeilingIsEnforced) {
  ResourceBudget budget;
  budget.set_max_depth(10);
  EXPECT_OK(budget.CheckDepth(10, "test/depth"));
  Status deep = budget.CheckDepth(11, "test/depth");
  EXPECT_EQ(deep.code(), StatusCode::kResourceExhausted);
}

TEST(ResourceBudgetTest, ConcurrentChargesNeverExceedTheCeiling) {
  ResourceBudget budget;
  budget.set_memory_limit_bytes(10'000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget]() {
      for (int i = 0; i < 1000; ++i) {
        if (budget.ChargeMemory(7, "test/concurrent").ok()) {
          budget.ReleaseMemory(7);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(budget.memory_used(), 0);
  EXPECT_LE(budget.memory_peak(), 10'000);
}

TEST(ScopedMemoryChargeTest, ReleasesOnDestruction) {
  ResourceBudget budget;
  {
    ScopedMemoryCharge charge(budget, 128, "test/scoped");
    ASSERT_OK(charge.status());
    EXPECT_EQ(budget.memory_used(), 128);
  }
  EXPECT_EQ(budget.memory_used(), 0);
}

TEST(ScopedMemoryChargeTest, FailedChargeReleasesNothing) {
  ResourceBudget budget;
  budget.set_memory_limit_bytes(100);
  ASSERT_OK(budget.ChargeMemory(90, "test/base"));
  {
    ScopedMemoryCharge charge(budget, 50, "test/scoped");
    EXPECT_EQ(charge.status().code(), StatusCode::kResourceExhausted);
  }
  // The failed scope must not have "released" bytes it never charged.
  EXPECT_EQ(budget.memory_used(), 90);
}

TEST(MaxParseDepthTest, OverrideAndRestore) {
  EXPECT_EQ(MaxParseDepth(), kDefaultMaxParseDepth);
  SetMaxParseDepth(25);
  EXPECT_EQ(MaxParseDepth(), 25);
  SetMaxParseDepth(0);  // non-positive restores the default
  EXPECT_EQ(MaxParseDepth(), kDefaultMaxParseDepth);
}

}  // namespace
}  // namespace xmlverify
