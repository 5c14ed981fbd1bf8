// ablation_cache.cpp — ablations for the design choices DESIGN.md calls
// out (not a paper figure; supports §3.4-3.6 and the C++-port decisions):
//
//   A. cache level: adaptive sampling vs. pinned levels — how much does
//      placing the cache at the "wrong" level cost, and does the sampler
//      find the right one? (§3.6's motivation.)
//   B. miss threshold: how sensitive is performance to MAX_MISSES (the
//      paper's experimentally chosen 2048)?
//   C. reclamation backend: epoch-based reclamation vs. leaking (the
//      closest analogue to the JVM's out-of-band GC) — the cost of manual
//      safe memory reclamation on the write path.
#include "common.hpp"
#include "mr/leak.hpp"

namespace {

using cachetrie::Config;
using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Trie>
Summary lookup_throughput(Trie& map, const std::vector<bench::Key>& keys) {
  for (auto k : keys) map.insert(k, k);
  for (auto k : keys) (void)map.lookup(k);  // warm the cache
  volatile std::uint64_t sink = 0;
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::time_ms([&] {
          std::uint64_t acc = 0;
          for (auto k : keys) acc += map.lookup(k).value_or(0);
          sink = acc;
        });
      },
      bench::bench_options());
}

}  // namespace

int main() {
  bench::print_preamble(
      "Ablations: cache level, miss threshold, reclamation backend",
      "Lookup time for N keys (every key once) under modified cache-trie\n"
      "configurations.");

  const std::size_t n =
      cachetrie::harness::by_scale<std::size_t>(50000, 1000000, 1000000);
  const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
  // Most keys sit on the adjacent depths around log16(n) (Theorem 4.3);
  // e.g. 1M keys concentrate on levels 20/24, so the cache targets 20.
  const std::uint32_t ideal = static_cast<std::uint32_t>(std::lround(
                                  std::log(static_cast<double>(n)) /
                                  std::log(16.0))) *
                              4;

  {
    // Throwaway pass: fault in allocator arenas and pages so the first
    // measured configuration is not penalized by process cold start.
    bench::CacheTrieMap warm;
    for (auto k : keys) warm.insert(k, k);
    std::uint64_t acc = 0;
    for (auto k : keys) acc += warm.lookup(k).value_or(0);
    volatile std::uint64_t sink = acc;
    (void)sink;
  }

  {
    std::printf("--- A: cache level (N = %zu; sampled optimum ~level %u) ---\n",
                n, ideal);
    Table table{{"configuration", "lookup ms", "vs adaptive"}};
    Summary adaptive;
    {
      bench::CacheTrieMap trie;
      adaptive = lookup_throughput(trie, keys);
      table.add_row({"adaptive (paper)", Table::fmt(adaptive.mean_ms),
                     "1.00x"});
    }
    for (const std::uint32_t lvl :
         {ideal >= 8 ? ideal - 8 : 8u, ideal >= 4 ? ideal - 4 : 8u, ideal,
          ideal + 4}) {
      Config cfg;
      cfg.min_cache_level = lvl;
      cfg.max_cache_level = lvl;
      cfg.cache_init_level = lvl;
      cachetrie::CacheTrie<bench::Key, bench::Val> trie(cfg);
      const Summary s = lookup_throughput(trie, keys);
      table.add_row({"pinned level " + std::to_string(lvl),
                     Table::fmt(s.mean_ms),
                     Table::fmt_ratio(s.mean_ms, adaptive.mean_ms)});
    }
    {
      Config cfg;
      cfg.use_cache = false;
      cachetrie::CacheTrie<bench::Key, bench::Val> trie(cfg);
      const Summary s = lookup_throughput(trie, keys);
      table.add_row({"no cache", Table::fmt(s.mean_ms),
                     Table::fmt_ratio(s.mean_ms, adaptive.mean_ms)});
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf("--- B: miss threshold (MAX_MISSES; paper uses 2048) ---\n");
    Table table{{"max_misses", "lookup ms"}};
    for (const std::uint32_t mm : {64u, 512u, 2048u, 16384u}) {
      Config cfg;
      cfg.max_misses = mm;
      cachetrie::CacheTrie<bench::Key, bench::Val> trie(cfg);
      const Summary s = lookup_throughput(trie, keys);
      table.add_row({std::to_string(mm), Table::fmt(s.mean_ms)});
    }
    table.print();
    std::printf("\n");
  }

  {
    std::printf(
        "--- C: reclamation backend on the write path (insert+remove %zu "
        "keys) ---\n",
        n / 2);
    const auto half =
        cachetrie::harness::shuffled_sequential_keys(n / 2, /*seed=*/77);
    Table table{{"reclaimer", "churn ms"}};
    {
      const Summary s = cachetrie::harness::measure(
          [&]() -> double {
            cachetrie::CacheTrie<bench::Key, bench::Val> trie;
            return cachetrie::harness::time_ms([&] {
              for (auto k : half) trie.insert(k, k);
              for (auto k : half) (void)trie.remove(k);
            });
          },
          bench::bench_options());
      table.add_row({"epoch (EBR, default)", Table::fmt(s.mean_ms)});
    }
    {
      const Summary s = cachetrie::harness::measure(
          [&]() -> double {
            cachetrie::CacheTrie<bench::Key, bench::Val,
                                 cachetrie::util::DefaultHash<bench::Key>,
                                 cachetrie::mr::LeakReclaimer>
                trie;
            return cachetrie::harness::time_ms([&] {
              for (auto k : half) trie.insert(k, k);
              for (auto k : half) (void)trie.remove(k);
            });
          },
          bench::bench_options());
      table.add_row({"leak (GC-like upper bound)", Table::fmt(s.mean_ms)});
    }
    table.print();
  }
  return 0;
}
