// config.hpp — tuning knobs of the cache-trie.
//
// Defaults follow the paper. Config holds the knobs that benches and tests
// actually set; parameters that nothing moves are the constants declared
// before it. The bounded-memory mode's ceiling, TTL and clock are not trie
// knobs: they belong to evict::BoundedConfig (evict.hpp), whose policy type
// compiles them into BoundedCacheTrie only.
#pragma once

#include <cstdint>

namespace cachetrie {

/// Number of padded per-thread miss counters in each cache array (the
/// paper's THROUGHPUT_FACTOR * #CPU).
inline constexpr std::uint32_t kMissSlots = 16;

/// The cache is first created when a slow operation encounters a node at
/// this trie level or deeper (§3.5: "If the cachee level is 12, inhabit
/// initializes the cache at level 8"; Config::cache_init_level is the 8).
inline constexpr std::uint32_t kCacheInitTriggerLevel = 12;

/// Random trie descents per sampling pass (§3.6: "The thread repeats this
/// several times").
inline constexpr std::uint32_t kSampleSize = 192;

struct Config {
  /// Master switch for the auxiliary cache (§3.4). Off reproduces the
  /// paper's "w/o cache" variant used throughout the evaluation.
  bool use_cache = true;

  /// remove() compresses ANodes that became empty (§3.7).
  bool compress = true;

  /// Extension beyond the paper: during compression, an ANode left with a
  /// single live SNode collapses to that SNode (hoisted one level up). The
  /// reachability invariant ("the slot path is a prefix of the hash") is
  /// preserved because a shorter path is still a prefix.
  bool compress_singletons = true;

  /// Cache misses a thread accumulates before triggering a depth-sampling
  /// pass (§3.6; "experimentally set to 2048" in the paper).
  std::uint32_t max_misses = 2048;

  /// Level the cache is created at, once a slow operation meets a node at
  /// kCacheInitTriggerLevel or deeper (§3.5).
  std::uint32_t cache_init_level = 8;

  /// Bounds for the adaptive cache level. The lower bound keeps the cache
  /// from degenerating into a copy of the root; the upper bound caps the
  /// cache array at 2^max_cache_level pointers.
  std::uint32_t min_cache_level = 8;
  std::uint32_t max_cache_level = 24;

  /// Maintain operation counters (expansions, cache hits, ...). Off by
  /// default: benches must not pay for shared-counter traffic.
  bool collect_stats = false;
};

}  // namespace cachetrie
