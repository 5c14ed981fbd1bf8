// ablation_mixed.cpp — mixed read/write workloads (ours; the paper
// benchmarks pure phases, but its motivation — "lookup is a predominantly
// used dictionary operation" — is about mixes). Sweeps read fractions over
// all competitors at a fixed population, multi-threaded.
//
// Workload: each thread performs ops on keys drawn uniformly from a
// pre-populated working set; writes alternate remove/re-insert so the
// population stays stable around N.
#include "common.hpp"

#include "util/rng.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_mix(Make&& make, const std::vector<bench::Key>& keys,
                  int threads, unsigned read_pct, std::size_t ops_per_thread) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
  for (auto k : keys) (void)map.lookup(k);  // warm any cache
  std::atomic<std::uint64_t> sink{0};
  return cachetrie::harness::measure(
      [&]() -> double {
        return cachetrie::harness::run_team_ms(threads, [&](int t) {
          cachetrie::util::XorShift64Star rng{
              static_cast<std::uint64_t>(t) * 7919 + 13};
          std::uint64_t acc = 0;
          const std::size_t n = keys.size();
          for (std::size_t op = 0; op < ops_per_thread; ++op) {
            const bench::Key k = keys[rng.next_below(n)];
            if (rng.next_below(100) < read_pct) {
              acc += map.lookup(k).value_or(0);
            } else if ((op & 1) == 0) {
              (void)map.remove(k);
            } else {
              map.insert(k, k);
            }
          }
          sink.fetch_add(acc, std::memory_order_relaxed);
        });
      },
      bench::bench_options());
}

}  // namespace

int main() {
  bench::print_preamble(
      "Ablation: mixed read/write workloads",
      "Each thread draws keys uniformly from an N-key working set; writes\n"
      "alternate remove/insert. Makespan in ms, ratio vs CHM.");

  const std::size_t n = cachetrie::harness::by_scale<std::size_t>(
      20000, 300000, 1000000);
  const std::size_t ops = cachetrie::harness::by_scale<std::size_t>(
      50000, 300000, 1000000);
  const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
  const int threads = cachetrie::harness::by_scale<int>(2, 4, 8);
  std::printf("--- N = %zu, %d threads, %zu ops/thread ---\n", n, threads,
              ops);

  Table table{{"read%", "chm (ms)", "cachetrie", "w/o cache", "ctrie",
               "skiplist"}};
  for (const unsigned read_pct : {95u, 70u, 50u}) {
    const Summary chm = bench_mix([] { return bench::ChmMap{}; }, keys,
                                  threads, read_pct, ops);
    const Summary trie =
        bench_mix(bench::make_cachetrie, keys, threads, read_pct, ops);
    const Summary trie_nc = bench_mix(bench::make_cachetrie_nocache, keys,
                                      threads, read_pct, ops);
    const Summary ctrie = bench_mix([] { return bench::CtrieMap{}; }, keys,
                                    threads, read_pct, ops);
    const Summary slist = bench_mix([] { return bench::SkipListMap{}; },
                                    keys, threads, read_pct, ops);
    auto cell = [&](const Summary& s) {
      return Table::fmt(s.mean_ms) + " (" +
             Table::fmt_ratio(s.mean_ms, chm.mean_ms) + ")";
    };
    table.add_row({std::to_string(read_pct),
                   Table::fmt_mean_std(chm.mean_ms, chm.stddev_ms),
                   cell(trie), cell(trie_nc), cell(ctrie), cell(slist)});
  }
  table.print();
  std::printf(
      "\nexpected: the cache-trie's advantage grows with the write share\n"
      "(no resize stalls), while CHM leads in read-dominated mixes.\n");
  return 0;
}
