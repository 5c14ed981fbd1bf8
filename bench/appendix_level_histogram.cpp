// appendix_level_histogram.cpp — reproduces appendix A.5.1 ("level
// occupancy histograms" / the artifact's BirthdaySimulations): grows
// cache-tries of increasing sizes and prints, for each, the distribution of
// keys across trie levels, the share of the two most populated adjacent
// levels (Theorem 4.2 claims >= ~87%), and the closed-form prediction of
// Theorem 4.1 next to the measured fraction.
#include <cmath>

#include "common.hpp"

namespace {

double p_of_depth(int d, double n) {
  const double a = 1.0 - std::pow(16.0, -(d + 1));
  const double b = 1.0 - std::pow(16.0, -d);
  return std::pow(a, n) - std::pow(b, n);
}

}  // namespace

int main() {
  bench::print_preamble(
      "Appendix A.5.1: level occupancy histograms",
      "Distribution of keys across cache-trie levels (levels advance by 4\n"
      "bits); Theorem 4.2 predicts >=87% of keys on two adjacent levels.");

  const auto sizes = cachetrie::harness::by_scale<std::vector<std::size_t>>(
      {100000}, {100000, 200000, 400000, 800000},
      {100000, 200000, 400000, 800000, 1600000});

  for (const std::size_t n : sizes) {
    bench::CacheTrieMap trie;
    for (auto k : cachetrie::harness::random_keys(n)) trie.insert(k, k);
    const auto hist = trie.level_histogram();

    std::printf(":: size %zu ::\n", n);
    for (std::size_t d = 0; d < hist.counts.size(); ++d) {
      if (d > 2 && hist.counts[d] == 0 &&
          (d + 1 >= hist.counts.size() || hist.counts[d + 1] == 0) &&
          d * 4 > 28) {
        break;  // trailing empty levels
      }
      const double frac = static_cast<double>(hist.counts[d]) /
                          static_cast<double>(hist.total);
      const double predicted =
          d == 0 ? 0.0
                 : p_of_depth(static_cast<int>(d) - 1,
                              static_cast<double>(n - 1));
      std::printf("  %2zu: %9llu (%5.1f%%, thm4.1 predicts %5.1f%%) ",
                  d * 4, static_cast<unsigned long long>(hist.counts[d]),
                  100.0 * frac, 100.0 * predicted);
      const int stars = static_cast<int>(frac * 40.0 + 0.5);
      for (int s = 0; s < stars; ++s) std::printf("*");
      std::printf("\n");
    }
    std::printf("  two-adjacent-level share: %.2f%% (Theorem 4.2: >=87.45%% "
                "as n grows)\n\n",
                100.0 * hist.top_pair_share());
  }
  return 0;
}
