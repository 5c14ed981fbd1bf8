// micro_ops.cpp — google-benchmark microbenchmarks of individual
// operations (per-op latency rather than the figure binaries' whole-run
// times). Complements the figure reproductions: these are the numbers a
// downstream user comparing dictionaries cares about.
//
// Run a subset:  ./build/bench/micro_ops --benchmark_filter=lookup_hit
// Keep results:  --benchmark_out=micro.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cstdint>

#include "cachetrie/cache_trie.hpp"
#include "chashmap/chashmap.hpp"
#include "ctrie/ctrie.hpp"
#include "harness/workload.hpp"
#include "skiplist/skiplist.hpp"

namespace {

using Key = std::uint64_t;

template <typename Map>
void bm_lookup_hit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  static Map* map = nullptr;
  static std::size_t filled = 0;
  if (map == nullptr || filled != n) {
    delete map;
    map = new Map();
    for (auto k : cachetrie::harness::shuffled_sequential_keys(n)) {
      map->insert(k, k);
    }
    for (std::size_t k = 0; k < n; ++k) (void)map->lookup(k);  // warm cache
    filled = n;
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->lookup((i * 0x9e3779b9u) % n));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Map>
void bm_lookup_miss(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Map map;
  for (auto k : cachetrie::harness::shuffled_sequential_keys(n)) {
    map.insert(k, k);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.lookup(n + (i * 0x9e3779b9u)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Map>
void bm_insert_grow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
  for (auto _ : state) {
    Map map;
    for (auto k : keys) map.insert(k, k);
    benchmark::DoNotOptimize(map.lookup(keys[0]));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}

template <typename Map>
void bm_churn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Map map;
  for (std::uint64_t k = 0; k < n; ++k) map.insert(k, k);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t k = (i * 0x9e3779b9u) % n;
    map.remove(k);
    map.insert(k, i);
    ++i;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2));
}

using CacheTrieMap = cachetrie::CacheTrie<Key, Key>;
using CtrieMap = cachetrie::ctrie::Ctrie<Key, Key>;
using ChmMap = cachetrie::chm::ConcurrentHashMap<Key, Key>;
using SkipListMap = cachetrie::csl::ConcurrentSkipList<Key, Key>;

}  // namespace

BENCHMARK(bm_lookup_hit<CacheTrieMap>)->Arg(100000)->Arg(1000000);
BENCHMARK(bm_lookup_hit<ChmMap>)->Arg(100000)->Arg(1000000);
BENCHMARK(bm_lookup_hit<CtrieMap>)->Arg(100000)->Arg(1000000);
BENCHMARK(bm_lookup_hit<SkipListMap>)->Arg(100000)->Arg(1000000);

BENCHMARK(bm_lookup_miss<CacheTrieMap>)->Arg(100000);
BENCHMARK(bm_lookup_miss<ChmMap>)->Arg(100000);
BENCHMARK(bm_lookup_miss<CtrieMap>)->Arg(100000);
BENCHMARK(bm_lookup_miss<SkipListMap>)->Arg(100000);

BENCHMARK(bm_insert_grow<CacheTrieMap>)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_insert_grow<ChmMap>)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_insert_grow<CtrieMap>)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_insert_grow<SkipListMap>)->Arg(100000)->Unit(benchmark::kMillisecond);

BENCHMARK(bm_churn<CacheTrieMap>)->Arg(100000);
BENCHMARK(bm_churn<ChmMap>)->Arg(100000);
BENCHMARK(bm_churn<CtrieMap>)->Arg(100000);
BENCHMARK(bm_churn<SkipListMap>)->Arg(100000);

BENCHMARK_MAIN();
