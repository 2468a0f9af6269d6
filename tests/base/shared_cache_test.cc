// SharedCache: memoization semantics, counters, eviction, and
// concurrent access.
#include "base/shared_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/string_util.h"

namespace xmlverify {
namespace {

TEST(SharedCacheTest, LookupMissThenInsertThenHit) {
  SharedCache<int> cache;
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  std::shared_ptr<const int> inserted = cache.Insert("k", 7);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(*inserted, 7);
  std::shared_ptr<const int> found = cache.Lookup("k");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 7);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCacheTest, FirstWriterWins) {
  SharedCache<int> cache;
  cache.Insert("k", 1);
  // A racing second insert must not replace the published value:
  // earlier callers may already hold the first pointer.
  std::shared_ptr<const int> second = cache.Insert("k", 2);
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(*cache.Lookup("k"), 1);
}

TEST(SharedCacheTest, GetOrComputeComputesOnce) {
  SharedCache<std::string> cache;
  int computed = 0;
  auto factory = [&computed] {
    ++computed;
    return std::string("value");
  };
  EXPECT_EQ(*cache.GetOrCompute("k", factory), "value");
  EXPECT_EQ(*cache.GetOrCompute("k", factory), "value");
  EXPECT_EQ(computed, 1);
}

TEST(SharedCacheTest, EpochEvictionClearsWhenFull) {
  SharedCache<int> cache(/*max_entries=*/4);
  for (int i = 0; i < 4; ++i) cache.Insert(StrCat("k", std::to_string(i)), i);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Insert("overflow", 99);  // new key at capacity: epoch clear
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(*cache.Lookup("overflow"), 99);
  // Values handed out before the clear stay valid via shared_ptr; the
  // old keys are simply gone from the map.
  EXPECT_EQ(cache.Lookup("k0"), nullptr);
}

TEST(SharedCacheTest, ConcurrentInsertsAndLookupsAgree) {
  SharedCache<int> cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          std::string key = StrCat("k", std::to_string(k));
          std::shared_ptr<const int> value = cache.Lookup(key);
          if (value == nullptr) {
            // Every thread proposes its own value; whichever insert
            // lands first defines the key forever after.
            value = cache.Insert(key, k * 1000 + t);
          }
          ASSERT_LT(*value % 1000, 1000);
          ASSERT_EQ(*value / 1000, k);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  // Whatever value won for k stays self-consistent.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(*cache.Lookup(StrCat("k", std::to_string(k))) / 1000, k);
  }
}

}  // namespace
}  // namespace xmlverify
