// evict.hpp — the bounded-memory production cache mode (DESIGN.md §3).
//
// BoundedCacheTrie wraps CacheTrie with a hard byte ceiling and/or TTL:
//   * every pair carries a last-use stamp (a relaxed tick from an injectable
//     clock); lookups refresh it, horizons read it;
//   * a pair older than the TTL horizon is semantically absent and lazily
//     evicted by the first writer whose traversal crosses it;
//   * under ceiling pressure every writer runs a short backpressure scan
//     that evicts pairs idle past an adaptive LRU window — no dedicated
//     evictor thread exists to die, so a stalled or killed thread cannot
//     unbound the footprint (eviction_fault_test proves this);
//   * freed bytes flow through the same retire paths as user removes, so
//     the ceiling is enforced as *observed footprint*: exact double-entry
//     accounting at publish/retire choke points, with retire-limbo bytes
//     visible separately via mr.epoch.limbo_bytes.
//
// BoundedChm is the baseline counterpart: the same stamp/TTL/pressure
// surface over chm::ConcurrentHashMap, with a *derived* byte estimate
// (size() * node_bytes() + table bytes) — the trie's exact accounting is
// the headline, the baseline shows what a conventional design can offer.
//
// All stamp/tick/resident words are relaxed-advisory (no protocol decision
// creates a happens-before edge through them); the eviction CASes reuse the
// declared CT_TXN / CT_SLOT_COMMIT edges (ordering_contracts.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "obs/inventory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testkit/chaos.hpp"
#include "util/hashing.hpp"

namespace cachetrie::evict {

/// Injectable clock for the bounded-memory mode. Returns the current tick;
/// tests point it at a test-controlled atomic so TTL expiry is
/// deterministic.
using TickFn = std::uint64_t (*)();

/// Initial width of the adaptive LRU window: under ceiling pressure, pairs
/// idle for more than this many ticks are evictable. The window halves when
/// a backpressure scan frees nothing and relaxes back once the footprint
/// drops below 3/4 of the ceiling.
inline constexpr std::uint64_t kLruIdleTicks = 1024;

/// Hash paths probed per backpressure scan (the lazy clock hand).
inline constexpr std::uint32_t kEvictProbes = 8;

/// Process-wide resident-bytes cell. Every bounded trie mirrors its exact
/// per-trie accounting into this cell (BoundedPolicy::account), so one
/// registered callback gauge reports the process's total bounded footprint
/// without per-trie gauge registrations (which could dangle: the registry
/// has no unregister, but this cell outlives every trie).
inline std::atomic<std::int64_t>& process_resident_bytes() {
  static std::atomic<std::int64_t> cell{0};
  return cell;
}

/// Registers the callback gauge once per process (PR-3 machinery: callback
/// gauges fold external state into snapshots at sample time).
inline void register_resident_gauge() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::Registry::instance().register_gauge_fn(
        "cachetrie.bounded.resident_bytes",
        [] { return process_resident_bytes().load(std::memory_order_relaxed); });
  });
}

/// Env override for the ceiling: CACHETRIE_CACHE_CEILING_BYTES. Returns 0
/// (unbounded) when unset or unparsable — same strtoull contract as the
/// mr/ env knobs.
inline std::size_t env_ceiling_bytes() {
  const char* s = std::getenv("CACHETRIE_CACHE_CEILING_BYTES");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s) return 0;
  return static_cast<std::size_t>(v);
}

/// Knobs of the bounded mode. `ceiling_bytes == 0` defers to the env
/// override; if that is unset too, no ceiling is enforced (TTL may still
/// be).
struct BoundedConfig {
  std::size_t ceiling_bytes = 0;      // 0 -> CACHETRIE_CACHE_CEILING_BYTES
  std::uint64_t ttl_ticks = 0;        // 0 -> no TTL
  TickFn tick = nullptr;              // nullptr -> per-structure logical tick
  Config trie;                        // remaining cache-trie knobs
};

/// CacheTrie's bounded-memory policy (UnboundedPolicy is the plain one):
/// leaves carry an atomic last-use stamp, and this object holds the rest of
/// the mode's state — ceiling, TTL, clock, LRU window and clock hand,
/// eviction counters, and the resident ledger mirrored into the process
/// gauge. All of it is advisory: every access is relaxed, and no protocol
/// decision builds a happens-before edge through it.
class BoundedPolicy {
 public:
  using Stamp = std::atomic<std::uint64_t>;
  using Settings = BoundedConfig;
  static constexpr bool kLedger = true;

  explicit BoundedPolicy(const BoundedConfig& cfg)
      : ceiling_(cfg.ceiling_bytes != 0 ? cfg.ceiling_bytes
                                        : env_ceiling_bytes()),
        ttl_ticks_(cfg.ttl_ticks),
        tick_(cfg.tick) {
    register_resident_gauge();
  }

  /// Whatever the trie still counted as resident leaves the process-wide
  /// gauge with it.
  ~BoundedPolicy() {
    process_resident_bytes().fetch_sub(
        resident_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

  /// This operation's horizons, advancing the logical clock by one tick —
  /// unless an injectable clock owns time (then tests drive it).
  Horizon make_horizon() const noexcept {
    Horizon hz;
    hz.now = tick_ != nullptr
                 ? tick_()
                 : op_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (ttl_ticks_ != 0 && hz.now > ttl_ticks_) {
      hz.ttl_floor = hz.now - ttl_ticks_;
    }
    return hz;
  }

  /// Current tick, without advancing the logical clock.
  std::uint64_t now_tick() const noexcept {
    return tick_ != nullptr ? tick_()
                            : op_tick_.load(std::memory_order_relaxed);
  }

  /// Exact double-entry byte accounting: every publish-success adds the
  /// bytes it made reachable, every retire subtracts what it retires.
  void account(std::ptrdiff_t delta) const noexcept {
    resident_.fetch_add(delta, std::memory_order_relaxed);
    process_resident_bytes().fetch_add(delta, std::memory_order_relaxed);
  }

  /// Bytes published into the trie minus bytes retired out of it, excluding
  /// bytes parked in reclaimer limbo (EpochDomain::retired_bytes() tracks
  /// those).
  std::size_t resident_bytes() const noexcept {
    const std::int64_t b = resident_.load(std::memory_order_relaxed);
    return b > 0 ? static_cast<std::size_t>(b) : 0;
  }

  void count_eviction(bool expiry, std::uint64_t n = 1) const noexcept {
    (expiry ? ttl_expiries_ : lru_evictions_)
        .fetch_add(n, std::memory_order_relaxed);
  }
  void count_backpressure_scan() const noexcept {
    backpressure_scans_.fetch_add(1, std::memory_order_relaxed);
  }

  EvictionCounts eviction_counts() const noexcept {
    return {lru_evictions_.load(std::memory_order_relaxed),
            ttl_expiries_.load(std::memory_order_relaxed),
            backpressure_scans_.load(std::memory_order_relaxed)};
  }

  std::size_t ceiling_bytes() const noexcept { return ceiling_; }

  /// Bytes left under the ceiling at `resident`; SIZE_MAX when unbounded.
  /// Advisory (the inputs are relaxed-published), which is all the callers
  /// want: the serving layer flips a degraded *hint* on replies, it does
  /// not gate admission on an exact byte count.
  std::size_t headroom_bytes(std::size_t resident) const noexcept {
    if (ceiling_ == 0) return std::numeric_limits<std::size_t>::max();
    return resident >= ceiling_ ? 0 : ceiling_ - resident;
  }
  /// True once `resident` crosses `frac` of the ceiling — the serving
  /// layer's graceful-degradation signal (net/serve_map.hpp).
  bool near_ceiling(std::size_t resident, double frac) const noexcept {
    return ceiling_ != 0 && static_cast<double>(resident) >=
                                frac * static_cast<double>(ceiling_);
  }

  /// Ceiling enforcement, run by every writer before its own work, so no
  /// evictor's death can unbound the footprint. `resident` is the caller's
  /// byte count (the trie's ledger, or BoundedChm's derived estimate). Over
  /// the ceiling it runs the lazy clock hand (after the fwoodruff
  /// Lock-Free-Cache design: no list, no thread): `evict_path(h, hz)`
  /// probes a few pseudo-random hashes from a roving cursor, evicting
  /// entries idle past an adaptive window that halves when a scan frees
  /// nothing and doubles back once the footprint falls below 3/4 of the
  /// ceiling.
  template <typename EvictPath>
  void backpressure(Horizon& hz, std::size_t resident,
                    EvictPath&& evict_path) {
    if (ceiling_ == 0) return;
    const std::uint64_t w = lru_window_.load(std::memory_order_relaxed);
    if (resident <= ceiling_) {
      if (w < kLruIdleTicks && resident <= ceiling_ - ceiling_ / 4) {
        lru_window_.store(std::min<std::uint64_t>(w * 2, kLruIdleTicks),
                          std::memory_order_relaxed);
      }
      return;
    }
    count_backpressure_scan();
    obs::sites::cachetrie_evict_backpressure.add();
    obs::trace::emit(obs::trace::EventId::kCachetrieCeilingHit, resident,
                     ceiling_);
    hz.lru_floor = hz.now > w ? hz.now - w : hz.now;
    testkit::chaos_point("cachetrie.evict_scan");
    std::size_t evicted = 0;
    for (std::uint32_t p = 0; p < kEvictProbes; ++p) {
      const std::uint64_t h =
          util::mix64(evict_cursor_.fetch_add(1, std::memory_order_relaxed));
      if (evict_path(h, hz)) ++evicted;
    }
    if (evicted == 0 && w > 1) {
      lru_window_.store(w / 2, std::memory_order_relaxed);
    }
  }

 private:
  std::size_t ceiling_;
  std::uint64_t ttl_ticks_;
  TickFn tick_;
  /// Logical eviction clock (one tick per op) when no injectable clock is
  /// configured. Mutable: lookups advance it.
  mutable std::atomic<std::uint64_t> op_tick_{0};
  /// Signed so transient publish/retire interleavings can dip below zero.
  mutable std::atomic<std::int64_t> resident_{0};
  std::atomic<std::uint64_t> evict_cursor_{0};
  std::atomic<std::uint64_t> lru_window_{kLruIdleTicks};
  mutable std::atomic<std::uint64_t> lru_evictions_{0};
  mutable std::atomic<std::uint64_t> ttl_expiries_{0};
  mutable std::atomic<std::uint64_t> backpressure_scans_{0};
};

/// The production cache mode: CacheTrie with lazy lock-free LRU/TTL
/// eviction under a hard byte ceiling. A thin façade — every operation
/// delegates; the eviction machinery lives inside CacheTrie, compiled in by
/// BoundedPolicy, so it can ride the protocol's own txn announce/commit
/// path.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedCacheTrie {
 public:
  using Trie = CacheTrie<K, V, Hash, Reclaimer, BoundedPolicy>;
  using EvictionCounts = cachetrie::EvictionCounts;

  explicit BoundedCacheTrie(BoundedConfig cfg = {}) : trie_(cfg.trie, cfg) {}

  bool insert(const K& key, const V& value) {
    return trie_.insert(key, value);
  }
  bool put_if_absent(const K& key, const V& value) {
    return trie_.put_if_absent(key, value);
  }
  bool replace(const K& key, const V& value) {
    return trie_.replace(key, value);
  }
  bool replace_if_equals(const K& key, const V& expected, const V& desired)
    requires std::equality_comparable<V>
  {
    return trie_.replace_if_equals(key, expected, desired);
  }
  std::optional<V> lookup(const K& key) const { return trie_.lookup(key); }
  bool contains(const K& key) const { return trie_.contains(key); }
  std::optional<V> remove(const K& key) { return trie_.remove(key); }
  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    return trie_.remove_if_equals(key, expected);
  }
  /// Forced eviction of one key (linearizable remove counted as an LRU
  /// eviction) — the test battery races this against user operations.
  std::optional<V> evict(const K& key) { return trie_.evict(key); }

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }
  template <typename F>
  void for_each(F&& fn) const {
    trie_.for_each(static_cast<F&&>(fn));
  }

  std::size_t footprint_bytes() const { return trie_.footprint_bytes(); }
  std::size_t resident_bytes() const { return trie_.resident_bytes(); }
  EvictionCounts eviction_counts() const { return trie_.eviction_counts(); }
  std::uint64_t now_tick() const { return trie_.now_tick(); }
  std::size_t ceiling_bytes() const { return trie_.policy().ceiling_bytes(); }
  std::size_t resident_headroom_bytes() const {
    return trie_.policy().headroom_bytes(resident_bytes());
  }
  bool near_ceiling(double frac = 0.9) const {
    return trie_.policy().near_ceiling(resident_bytes(), frac);
  }

  /// The wrapped trie, for tests that need debug_validate() etc.
  Trie& underlying() { return trie_; }
  const Trie& underlying() const { return trie_; }

 private:
  Trie trie_;
};

/// Baseline counterpart: the same bounded-mode surface over the
/// ConcurrentHashMap. Differences (documented in DESIGN.md §3):
///   * byte accounting is a derived estimate, not double-entry exact;
///   * the policy's clock hand probes bins, and each probe sweeps its bin
///     under the bin lock (evict_stale), so a writer parked inside a swept
///     bin's lock blocks that bin's eviction — the baseline's known
///     weakness under faults.
template <typename K, typename V, typename Hash = util::DefaultHash<K>,
          typename Reclaimer = mr::EpochReclaimer>
class BoundedChm {
 public:
  using Map = chm::ConcurrentHashMap<K, V, Hash, Reclaimer>;
  using EvictionCounts = cachetrie::EvictionCounts;

  explicit BoundedChm(BoundedConfig cfg = {}) : policy_(cfg) {}

  bool insert(const K& key, const V& value) {
    const Horizon hz = begin_write(key).first;
    return map_.insert(key, value, hz.now);
  }

  bool put_if_absent(const K& key, const V& value) {
    const Horizon hz = begin_write(key).first;
    return map_.put_if_absent(key, value, hz.now);
  }

  std::optional<V> lookup(const K& key) const {
    const Horizon hz = policy_.make_horizon();
    return map_.lookup_refresh(key, hz.now, hz.ttl_floor);
  }

  bool contains(const K& key) const { return lookup(key).has_value(); }

  // A corpse is semantically absent: the removes evict it and report
  // nothing removed.
  std::optional<V> remove(const K& key) {
    if (begin_write(key).second) return std::nullopt;
    return map_.remove(key);
  }

  bool remove_if_equals(const K& key, const V& expected)
    requires std::equality_comparable<V>
  {
    if (begin_write(key).second) return false;
    return map_.remove_if_equals(key, expected);
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Derived footprint estimate (DESIGN.md §3): table bytes plus
  /// size() * node_bytes(), O(1) — backpressure polls this on every
  /// write, so the exact traversal (footprint_bytes) is out of the
  /// question. The striped size counter makes this approximate under
  /// concurrency — the trie's exact double-entry accounting is the
  /// contrast the fig14 bench draws.
  std::size_t resident_bytes() const {
    return map_.footprint_estimate_bytes();
  }

  EvictionCounts eviction_counts() const { return policy_.eviction_counts(); }
  std::uint64_t now_tick() const { return policy_.now_tick(); }
  std::size_t ceiling_bytes() const { return policy_.ceiling_bytes(); }
  /// Same contract as BoundedCacheTrie's, over the derived estimate.
  std::size_t resident_headroom_bytes() const {
    return policy_.headroom_bytes(resident_bytes());
  }
  bool near_ceiling(double frac = 0.9) const {
    return policy_.near_ceiling(resident_bytes(), frac);
  }

  Map& underlying() { return map_; }
  const Map& underlying() const { return map_; }

 private:
  /// Every write's prologue: tick the clock, enforce the ceiling, then
  /// lazily unlink the operation's own key if it expired. Returns the
  /// horizon and whether that key was an expired corpse.
  std::pair<Horizon, bool> begin_write(const K& key) {
    Horizon hz = policy_.make_horizon();
    policy_.backpressure(hz, resident_bytes(),
                         [this](std::uint64_t h, const Horizon& at) {
                           const std::size_t n =
                               map_.evict_stale(h, at.lru_floor);
                           if (n == 0) return false;
                           policy_.count_eviction(/*expiry=*/false, n);
                           obs::sites::cachetrie_evict_lru.add(n);
                           return true;
                         });
    if (hz.ttl_floor == 0 || !map_.remove_if_stale(key, hz.ttl_floor)) {
      return {hz, false};
    }
    policy_.count_eviction(/*expiry=*/true);
    obs::sites::cachetrie_evict_ttl.add();
    return {hz, true};
  }

  /// Clock, TTL, ceiling, clock hand, LRU window and counters; its byte
  /// ledger stays unused here.
  BoundedPolicy policy_;
  Map map_;
};

}  // namespace cachetrie::evict
