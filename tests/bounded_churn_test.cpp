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
// Labeled `bounded`.
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

}  // namespace
