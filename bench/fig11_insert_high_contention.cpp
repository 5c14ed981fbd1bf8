// fig11_insert_high_contention.cpp — reproduces Figure 11 (multi-threaded
// insert, HIGH contention): every thread inserts the same N keys in the
// same order, so threads collide on every single slot.
//
// Paper's findings: at N=50k cache-tries beat CHM by ~10% up to 4 threads;
// at 200k/600k they are 10-30% slower (more slow-path restarts under
// contention). Skip lists and ctries trail both.
//
// NOTE: threads beyond the host's core count (`nproc`) measure contention
// overhead under preemptive interleaving, not parallel speedup; the
// relative ordering of structures is still informative there.
#include "common.hpp"

namespace {

using cachetrie::harness::SharedKeys;
using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_contended(Make&& make, const SharedKeys& workload,
                        int threads) {
  return bench::measure_structure(
      make,
      [&](auto& map) {
        return cachetrie::harness::run_team_ms(threads, [&](int t) {
          for (auto k : workload.for_thread(t)) map.insert(k, k);
        });
      },
      bench::bench_options());
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 11: multi-threaded insert, high contention",
      "All threads insert the same keys in the same order (paper: \"we\n"
      "expect a high contention\"); makespan in ms, ratio vs CHM.");

  const auto sizes = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {20000}, {50000, 200000, 600000}, {50000, 200000, 600000});

  for (const std::size_t n : sizes) {
    const SharedKeys workload{n};
    std::printf("--- N = %zu ---\n", n);
    Table table{{"threads", "chm (ms)", "cachetrie", "w/o cache", "ctrie",
                 "skiplist"}};
    for (const int threads : bench::thread_sweep()) {
      const Summary chm =
          bench_contended([] { return bench::ChmMap{}; }, workload, threads);
      const Summary trie =
          bench_contended(bench::make_cachetrie, workload, threads);
      const Summary trie_nc =
          bench_contended(bench::make_cachetrie_nocache, workload, threads);
      const Summary ctrie =
          bench_contended([] { return bench::CtrieMap{}; }, workload,
                          threads);
      const Summary slist = bench_contended(
          [] { return bench::SkipListMap{}; }, workload, threads);
      auto cell = [&](const Summary& s) {
        return Table::fmt(s.mean_ms) + " (" +
               Table::fmt_ratio(s.mean_ms, chm.mean_ms) + ")";
      };
      table.add_row({std::to_string(threads),
                     Table::fmt_mean_std(chm.mean_ms, chm.stddev_ms),
                     cell(trie), cell(trie_nc), cell(ctrie), cell(slist)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): cachetrie ~CHM at 50k (<=4T even ~10%%\n"
      "faster), 1.1-1.3x slower at 200k/600k; ctrie and skiplist slower.\n");
  return 0;
}
