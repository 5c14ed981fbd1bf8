// common.hpp — shared scaffolding for the figure-reproduction binaries:
// the five competitor configurations of the paper's evaluation (§5), plus
// small helpers to run one workload across all of them.
//
//   CHM        — chm::ConcurrentHashMap      (the paper's baseline)
//   cachetrie  — CacheTrie, cache enabled    (the contribution)
//   w/o cache  — CacheTrie, cache disabled   (paper's ablation variant)
//   ctrie      — ctrie::Ctrie                (previous hash-trie design)
//   skiplist   — csl::ConcurrentSkipList     (ConcurrentSkipListMap)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/thread_team.hpp"
#include "harness/workload.hpp"
#include "mr/epoch.hpp"
#include "skiplist/skiplist.hpp"

namespace bench {

using Key = std::uint64_t;
using Val = std::uint64_t;

using CacheTrieMap = cachetrie::CacheTrie<Key, Val>;
using CtrieMap = cachetrie::ctrie::Ctrie<Key, Val>;
using ChmMap = cachetrie::chm::ConcurrentHashMap<Key, Val>;
using SkipListMap = cachetrie::csl::ConcurrentSkipList<Key, Val>;

inline CacheTrieMap make_cachetrie() { return CacheTrieMap{}; }

inline CacheTrieMap make_cachetrie_nocache() {
  cachetrie::Config cfg;
  cfg.use_cache = false;
  return CacheTrieMap{cfg};
}

/// Runs `body(map)` for a freshly constructed map, under the measurement
/// protocol; `make()` constructs the map, body returns elapsed ms.
template <typename Make, typename Body>
cachetrie::harness::Summary measure_structure(
    Make&& make, Body&& body,
    const cachetrie::harness::MeasureOptions& opts) {
  return cachetrie::harness::measure(
      [&]() -> double {
        auto map = make();
        return body(map);
      },
      opts);
}

/// Default measurement options tuned per scale so the whole suite finishes
/// in minutes on a small container and in ScalaMeter-like fidelity at
/// REPRO_SCALE=paper.
inline cachetrie::harness::MeasureOptions bench_options() {
  cachetrie::harness::MeasureOptions opts;
  using cachetrie::harness::by_scale;
  opts.min_warmup = by_scale<std::size_t>(1, 1, 3);
  opts.max_warmup = by_scale<std::size_t>(2, 4, 12);
  opts.reps = by_scale<std::size_t>(2, 3, 5);
  opts.cov_threshold = 0.10;
  return opts;
}

inline void print_preamble(const char* figure, const char* description) {
  std::printf("=== %s ===\n%s\n", figure, description);
  const char* scale = std::getenv("REPRO_SCALE");
  std::printf("scale profile: %s (set REPRO_SCALE=smoke|default|paper)\n",
              scale ? scale : "default");
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
}

/// Thread counts swept by the parallel figures (paper: 1..8 on a 4c/8t i7).
inline std::vector<int> thread_sweep() {
  return cachetrie::harness::by_scale<std::vector<int>>(
      {1, 2, 4}, {1, 2, 4, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
}

/// Snapshot of the epoch domain's reclamation counters, for reporting the
/// limbo (retired-not-yet-freed) overhead next to live-structure footprints
/// — the paper's JVM numbers fold this cost into the GC, ours is explicit.
struct ReclaimSnapshot {
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::size_t limbo_bytes = 0;
  std::size_t limbo_bytes_hwm = 0;

  static ReclaimSnapshot take() {
    auto& dom = cachetrie::mr::EpochDomain::instance();
    return ReclaimSnapshot{dom.retired_count(), dom.freed_count(),
                           dom.retired_bytes(),
                           dom.retired_bytes_high_water()};
  }

  /// Prints the delta since `before` (counters are process-wide and
  /// monotonic, except limbo_bytes which is a level, not a counter).
  void print_delta(const ReclaimSnapshot& before, const char* label) const {
    std::printf(
        "reclamation [%s]: retired %llu, freed %llu, limbo now %.2f MB, "
        "limbo high-water %.2f MB\n",
        label, static_cast<unsigned long long>(retired - before.retired),
        static_cast<unsigned long long>(freed - before.freed),
        static_cast<double>(limbo_bytes) / 1e6,
        static_cast<double>(limbo_bytes_hwm) / 1e6);
  }
};

}  // namespace bench
