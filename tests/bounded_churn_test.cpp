// bounded_churn_test.cpp — the byte ceiling of the bounded-memory cache
// mode holds under working-set churn, for both bounded maps.
//
// Four writers stream fresh, never-repeated keys — about ten times what a
// 1 MiB ceiling holds — while the main thread samples resident_bytes(). The
// high-water mark must stay under ceiling + 50%: the slack covers each
// writer's overshoot between the publish that crosses the ceiling and the
// backpressure scan it triggers, not reclamation limbo (resident bytes are
// published-minus-retired, so limbo never counts). The trie keeps an exact
// double-entry byte ledger; the chm baseline's footprint is derived.
//
// Both maps share one clock hand and one adaptive LRU window
// (evict::BoundedPolicy::backpressure); a second test drives that window
// through a collapse and a recovery on an injected clock. Labeled `bounded`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "cachetrie/evict.hpp"

namespace {

constexpr std::size_t kCeiling = 1u << 20;
constexpr std::size_t kSlack = kCeiling / 2;
constexpr std::size_t kWriters = 4;
constexpr std::size_t kKeysPerWriter = 50000;  // 200k keys ~ 11 MiB of pairs

std::atomic<std::uint64_t> g_tick{0};
std::uint64_t test_tick() { return g_tick.load(std::memory_order_relaxed); }

template <typename Map>
class BoundedChurn : public ::testing::Test {};

using BoundedMaps =
    ::testing::Types<cachetrie::evict::BoundedCacheTrie<std::uint64_t,
                                                        std::uint64_t>,
                     cachetrie::evict::BoundedChm<std::uint64_t,
                                                  std::uint64_t>>;
TYPED_TEST_SUITE(BoundedChurn, BoundedMaps);

TYPED_TEST(BoundedChurn, ResidentHighWaterStaysUnderCeilingPlusSlack) {
  cachetrie::evict::BoundedConfig cfg;
  cfg.ceiling_bytes = kCeiling;
  cfg.ttl_ticks = 0;  // pure ceiling pressure
  TypeParam map{cfg};

  std::atomic<std::size_t> running{kWriters};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&map, &running, t] {
      const std::uint64_t base = (t + 1) << 32;
      for (std::size_t i = 0; i < kKeysPerWriter; ++i) map.insert(base + i, i);
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::size_t hwm = 0;
  while (running.load(std::memory_order_acquire) != 0) {
    hwm = std::max(hwm, map.resident_bytes());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& w : writers) w.join();
  hwm = std::max(hwm, map.resident_bytes());

  const auto counts = map.eviction_counts();
  EXPECT_LE(hwm, kCeiling + kSlack)
      << "evictions " << counts.lru_evictions << ", scans "
      << counts.backpressure_scans;
  EXPECT_GT(counts.lru_evictions, 0u) << "the churn never reached the ceiling";
}

TYPED_TEST(BoundedChurn, LruWindowCollapsesThenRecoversOncePressureClears) {
  // Time stands still unless the test moves it, so each write's LRU floor
  // is exactly now - window and the window shows in what gets evicted.
  constexpr std::size_t kTestCeiling = 128u << 10;
  g_tick.store(1000, std::memory_order_relaxed);
  cachetrie::evict::BoundedConfig cfg;
  cfg.ceiling_bytes = kTestCeiling;
  cfg.ttl_ticks = 0;
  cfg.tick = &test_tick;
  TypeParam map{cfg};

  // Collapse: every pair is stamped `now`, so each scan over the ceiling is
  // fruitless and halves the window; 16 of them take 1024 ticks down to 1.
  std::uint64_t next_key = 1;
  while (map.resident_bytes() <= kTestCeiling) map.insert(next_key++, 0);
  for (int i = 0; i < 16; ++i) map.insert(next_key++, 0);
  auto counts = map.eviction_counts();
  ASSERT_GE(counts.backpressure_scans, 16u);
  ASSERT_EQ(counts.lru_evictions, 0u);
  // Two ticks later a one-tick window already makes the pairs evictable.
  g_tick.store(1002, std::memory_order_relaxed);
  map.insert(next_key++, 0);
  EXPECT_GT(map.eviction_counts().lru_evictions, 0u)
      << "fruitless scans did not collapse the LRU window";

  // Relief: below 3/4 of the ceiling every write doubles the window back,
  // so 16 more writes restore the full 1024 ticks.
  std::uint64_t oldest = 1;
  while (map.resident_bytes() > kTestCeiling - kTestCeiling / 4 &&
         oldest < next_key) {
    map.remove(oldest++);
  }
  ASSERT_LE(map.resident_bytes(), kTestCeiling - kTestCeiling / 4);
  const std::uint64_t survivor = next_key - 1;
  for (int i = 0; i < 16; ++i) map.insert(survivor, 1);

  // Pressure again, 100 ticks on: the restored window spares the pairs
  // stamped at 1000/1002 for the next three scans (windows 1024, 512 and
  // 256). A window left at one tick would evict them on the first.
  g_tick.store(1100, std::memory_order_relaxed);
  counts = map.eviction_counts();
  const std::uint64_t evicted_before = counts.lru_evictions;
  const std::uint64_t scans_before = counts.backpressure_scans;
  while (map.eviction_counts().backpressure_scans < scans_before + 3 &&
         next_key < 1000000) {
    map.insert(next_key++, 0);
  }
  counts = map.eviction_counts();
  ASSERT_EQ(counts.backpressure_scans, scans_before + 3);
  EXPECT_EQ(counts.lru_evictions, evicted_before)
      << "the LRU window did not recover after pressure cleared";

  // And the recovered window still lets pressure evict what is idle.
  g_tick.store(5000, std::memory_order_relaxed);
  map.insert(next_key++, 0);
  EXPECT_GT(map.eviction_counts().lru_evictions, evicted_before);
}

}  // namespace
