// fig10_single_thread.cpp — reproduces Figure 10 (single-threaded lookup
// and insert running times vs. number of keys).
//
// Paper's findings (shapes to mirror):
//   lookup: CHM fastest; cache-trie 1.6-2.1x slower than CHM but well ahead
//           of ctrie (up to 7.5x slower than CHM) and skip lists (up to 36x);
//   insert: cache-trie within +-20% of CHM; w/o-cache close behind;
//           ctrie ~1.5x; skip list ~6x slower.
#include "common.hpp"

namespace {

using cachetrie::harness::Summary;
using cachetrie::harness::Table;

template <typename Make>
Summary bench_lookup(Make&& make, const std::vector<bench::Key>& keys) {
  auto map = make();
  for (auto k : keys) map.insert(k, k);
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

template <typename Make>
Summary bench_insert(Make&& make, const std::vector<bench::Key>& keys) {
  return bench::measure_structure(
      make,
      [&](auto& map) {
        return cachetrie::harness::time_ms([&] {
          for (auto k : keys) map.insert(k, k);
        });
      },
      bench::bench_options());
}

template <typename RunAll>
void print_figure(const char* title, const std::vector<std::size_t>& sizes,
                  RunAll run_all) {
  std::printf("--- %s ---\n", title);
  Table table{{"N", "chm (ms)", "cachetrie", "w/o cache", "ctrie",
               "skiplist"}};
  for (const std::size_t n : sizes) {
    const auto keys = cachetrie::harness::shuffled_sequential_keys(n);
    const auto r = run_all(keys);
    auto cell = [&](const Summary& s) {
      return Table::fmt(s.mean_ms) + " (" +
             Table::fmt_ratio(s.mean_ms, r[0].mean_ms) + ")";
    };
    table.add_row({std::to_string(n), Table::fmt_mean_std(r[0].mean_ms,
                                                          r[0].stddev_ms),
                   cell(r[1]), cell(r[2]), cell(r[3]), cell(r[4])});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  bench::print_preamble(
      "Figure 10: single-threaded lookup and insert",
      "Times to look up / insert every one of N keys once; multipliers are\n"
      "relative to CHM (the paper's baseline).");

  const auto sizes = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {20000, 50000}, {50000, 150000, 300000, 500000},
      {50000, 100000, 200000, 300000, 400000, 500000});

  print_figure("lookup", sizes, [](const std::vector<bench::Key>& keys) {
    return std::vector<Summary>{
        bench_lookup([] { return bench::ChmMap{}; }, keys),
        bench_lookup(bench::make_cachetrie, keys),
        bench_lookup(bench::make_cachetrie_nocache, keys),
        bench_lookup([] { return bench::CtrieMap{}; }, keys),
        bench_lookup([] { return bench::SkipListMap{}; }, keys),
    };
  });

  print_figure("insert", sizes, [](const std::vector<bench::Key>& keys) {
    return std::vector<Summary>{
        bench_insert([] { return bench::ChmMap{}; }, keys),
        bench_insert(bench::make_cachetrie, keys),
        bench_insert(bench::make_cachetrie_nocache, keys),
        bench_insert([] { return bench::CtrieMap{}; }, keys),
        bench_insert([] { return bench::SkipListMap{}; }, keys),
    };
  });

  std::printf(
      "expected shape (paper): lookup CHM < cachetrie (1.6-2.1x) << ctrie\n"
      "(<=7.5x) << skiplist (<=36x); insert cachetrie within +-20%% of CHM.\n");
  return 0;
}
