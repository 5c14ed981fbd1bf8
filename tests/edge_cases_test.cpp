// edge_cases_test.cpp — cross-cutting edge cases that earlier suites do not
// pin down: deep branch creation from long shared prefixes, guard/reentrancy
// semantics, conditional-op winners on every structure, and traversal under
// concurrent mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <set>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "mr/epoch.hpp"
#include "skiplist/skiplist.hpp"
#include "util/rng.hpp"

namespace {

// Hashes sharing the low 56 bits force the deepest possible ANode chains
// (14 shared nibbles) before the keys separate in the top byte.
struct DeepPrefixHash {
  std::uint64_t operator()(const std::uint64_t& k) const noexcept {
    return (k << 56) | 0x00FFFFFFFFFFFFFFull >> 8;
  }
};

TEST(EdgeCases, DeepestPossibleBranching) {
  cachetrie::CacheTrie<std::uint64_t, std::uint64_t, DeepPrefixHash> trie;
  // Only 256 distinct hashes exist (top byte); all pairs share 14 nibbles.
  for (std::uint64_t k = 0; k < 256; ++k) {
    ASSERT_TRUE(trie.insert(k, k * 3));
  }
  // Keys 256.. collide fully with keys k%256 -> LNode chains at the bottom.
  for (std::uint64_t k = 256; k < 512; ++k) {
    ASSERT_TRUE(trie.insert(k, k * 3));
  }
  EXPECT_EQ(trie.size(), 512u);
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(trie.lookup(k).value(), k * 3) << k;
  }
  const auto hist = trie.level_histogram();
  // Everything sits at the maximum depth the 64-bit hash allows.
  EXPECT_GE(hist.counts[14] + hist.counts[15] + hist.counts[16], 512u);
  auto issues = trie.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
  // Remove everything; compression must unwind the deep spine.
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_TRUE(trie.remove(k).has_value()) << k;
  }
  EXPECT_EQ(trie.size(), 0u);
  // Near-empty trie again; the (retained) cache arrays dominate what's left.
  EXPECT_LT(trie.footprint_bytes(), 16384u);
}

TEST(EdgeCases, EpochGuardIsMovable) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  auto g1 = dom.pin();
  auto g2 = std::move(g1);  // must transfer, not double-unpin
  {
    auto g3 = dom.pin();  // nested while moved-to guard alive
  }
  SUCCEED();
}

TEST(EdgeCases, RetireUnderNestedGuards) {
  auto& dom = cachetrie::mr::EpochDomain::instance();
  struct Obj {
    int x = 42;
  };
  {
    auto outer = dom.pin();
    {
      auto inner = dom.pin();
      dom.retire(new Obj());
    }
    dom.retire(new Obj());
  }
  dom.drain_for_testing();
  SUCCEED();
}

template <typename Map>
void put_if_absent_one_winner() {
  Map map;
  constexpr int kThreads = 8;
  constexpr int kKeys = 4000;
  std::atomic<int> wins{0};
  std::barrier start{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      int local = 0;
      for (int i = 0; i < kKeys; ++i) {
        if (map.put_if_absent(i, t)) ++local;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(wins.load(), kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const auto v = map.lookup(i);
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, kThreads);
  }
}

TEST(EdgeCases, PutIfAbsentOneWinnerCHashMap) {
  put_if_absent_one_winner<
      cachetrie::chm::ConcurrentHashMap<int, int>>();
}

TEST(EdgeCases, PutIfAbsentOneWinnerSkipList) {
  put_if_absent_one_winner<
      cachetrie::csl::ConcurrentSkipList<int, int>>();
}

TEST(EdgeCases, PutIfAbsentOneWinnerCtrie) {
  put_if_absent_one_winner<cachetrie::ctrie::Ctrie<int, int>>();
}

TEST(EdgeCases, SkipListSingleKeyInsertRemoveStorm) {
  cachetrie::csl::ConcurrentSkipList<int, std::uint64_t> list;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> anomalies{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 15000; ++i) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(w) << 32) |
            static_cast<std::uint32_t>(i);
        list.insert(7, tag);
        list.remove(7);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto v = list.lookup(7);
        if (v.has_value() && (*v >> 32) >= 4) anomalies.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(anomalies.load(), 0u);
  auto issues = list.debug_validate();
  EXPECT_TRUE(issues.empty()) << issues.front();
}

TEST(EdgeCases, ForEachDuringConcurrentWritesIsSafe) {
  // for_each is not a snapshot: a key removed and re-inserted while the
  // walk runs may be missed. What it does promise, and what is checked
  // exactly here: every reported pair is a real pair, no key is reported
  // twice, and a key no writer touches is reported exactly once — even
  // while expansions and compressions around it copy its node. The writer
  // churns odd keys only, so the even keys are the untouched ones.
  constexpr int kKeys = 30000;
  cachetrie::CacheTrie<int, int> trie;
  for (int k = 0; k < kKeys; ++k) trie.insert(k, k);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    cachetrie::util::XorShift64Star rng{5};
    while (!stop.load(std::memory_order_acquire)) {
      const int k = static_cast<int>(rng.next_below(kKeys / 2)) * 2 + 1;
      trie.remove(k);
      trie.insert(k, k);
    }
  });
  std::vector<int> seen(kKeys);
  for (int round = 0; round < 20; ++round) {
    std::fill(seen.begin(), seen.end(), 0);
    std::size_t foreign = 0;  // out-of-range keys or mismatched values
    trie.for_each([&](const int& k, const int& v) {
      if (k < 0 || k >= kKeys || v != k) {
        ++foreign;
      } else {
        ++seen[static_cast<std::size_t>(k)];
      }
    });
    EXPECT_EQ(foreign, 0u) << "round " << round;
    for (int k = 0; k < kKeys; ++k) {
      const int n = seen[static_cast<std::size_t>(k)];
      if (k % 2 == 0 ? n != 1 : n > 1) {
        ADD_FAILURE() << "round " << round << ": key " << k << " seen " << n
                      << " times";
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(EdgeCases, MoveOnlyCallsAreNotRequired) {
  // Values must be copyable but keys/values needn't be default-constructible.
  struct NonDefault {
    explicit NonDefault(int x) : v(x) {}
    int v;
    bool operator==(const NonDefault& o) const { return v == o.v; }
  };
  cachetrie::CacheTrie<int, NonDefault> trie;
  trie.insert(1, NonDefault{10});
  const auto got = trie.lookup(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->v, 10);
}

TEST(EdgeCases, ZeroAndMaxKeys) {
  cachetrie::CacheTrie<std::uint64_t, int> trie;
  const std::uint64_t min_k = 0;
  const std::uint64_t max_k = ~std::uint64_t{0};
  EXPECT_TRUE(trie.insert(min_k, 1));
  EXPECT_TRUE(trie.insert(max_k, 2));
  EXPECT_EQ(trie.lookup(min_k).value(), 1);
  EXPECT_EQ(trie.lookup(max_k).value(), 2);
  EXPECT_TRUE(trie.remove(min_k).has_value());
  EXPECT_TRUE(trie.remove(max_k).has_value());
}

}  // namespace
