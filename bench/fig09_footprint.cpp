// fig09_footprint.cpp — reproduces Figure 9 (memory footprint comparison)
// and the appendix A.5.2 numbers.
//
// Paper's findings, which the multipliers below should mirror in shape:
//   * skip lists consume the least memory (the normalization baseline);
//   * cache-tries and Ctries are roughly equal, ~50% above CHM;
//   * the cache adds typically <10% over the cache-less variant.
//
// Footprints are exact traversal-based byte counts of live structure
// (malloc overhead excluded — it shifts every structure equally).
#include "common.hpp"

int main() {
  bench::print_preamble(
      "Figure 9 + A.5.2: memory footprint",
      "N keys inserted into each structure; footprint in MB and as a\n"
      "multiplier over the skip list (the paper's baseline for this figure).");

  using cachetrie::harness::Table;
  using cachetrie::harness::by_scale;

  const auto sizes = by_scale<std::vector<std::size_t>>(
      {50000, 200000}, {50000, 500000, 1000000, 2000000},
      {50000, 500000, 1000000, 1500000, 2000000});

  Table table{{"size", "skiplist", "chm", "ctrie", "cachetrie w/o cache",
               "cachetrie"}};
  const auto reclaim0 = bench::ReclaimSnapshot::take();
  for (const std::size_t n : sizes) {
    const auto keys = cachetrie::harness::random_keys(n);
    auto fill = [&](auto& map) {
      for (auto k : keys) map.insert(k, k);
      return static_cast<double>(map.footprint_bytes());
    };

    bench::SkipListMap slist;
    bench::ChmMap chm;
    bench::CtrieMap ctrie;
    auto trie_nc = bench::make_cachetrie_nocache();
    auto trie = bench::make_cachetrie();
    const double sl = fill(slist);
    const double hm = fill(chm);
    const double ct = fill(ctrie);
    const double tnc = fill(trie_nc);
    double tc = fill(trie);
    // Footprint includes the cache only once lookups created it; warm it.
    for (std::size_t i = 0; i < keys.size(); ++i) (void)trie.lookup(keys[i]);
    tc = static_cast<double>(trie.footprint_bytes());

    auto cell = [&](double bytes) {
      return Table::fmt(bytes / 1e6) + " MB (" + Table::fmt_ratio(bytes, sl) +
             ")";
    };
    table.add_row({std::to_string(n), cell(sl), cell(hm), cell(ct),
                   cell(tnc), cell(tc)});
  }
  table.print();

  // Footprints above count live structure only; this line makes the EBR
  // limbo overhead visible (the high-water mark bounds how far retired
  // bytes ever outran the frees during the fills).
  bench::ReclaimSnapshot::take().print_delta(reclaim0, "fig09 fills");

  std::printf(
      "\nexpected shape (paper): skiplist lowest; ctrie ~= cachetrie;\n"
      "tries ~1.3-1.5x CHM; cache adds <10%% over w/o-cache.\n");
  return 0;
}
