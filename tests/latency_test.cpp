// latency_test.cpp — unit tests of the HdrHistogram-lite latency histogram:
// bucket geometry, bounded relative error, interpolated quantiles, merge.
#include "obs/latency.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace obs = cachetrie::obs;
using obs::LatencyHistogram;

namespace {

// --- bucket geometry -------------------------------------------------------

TEST(LatencyBuckets, BucketsPartitionTheRange) {
  // Every bucket's first and last value map back into it, and bucket b+1
  // starts exactly after bucket b ends — no gaps, no overlaps.
  for (std::size_t b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t lo = LatencyHistogram::lower_of(b);
    const std::uint64_t w = LatencyHistogram::width_of(b);
    EXPECT_EQ(LatencyHistogram::index_of(lo), b);
    EXPECT_EQ(LatencyHistogram::index_of(lo + w - 1), b);
    EXPECT_EQ(LatencyHistogram::lower_of(b + 1), lo + w);
  }
  EXPECT_EQ(LatencyHistogram::index_of(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyBuckets, RelativeErrorIsBoundedBySixteenth) {
  // The whole point of 16 sub-buckets per power of two: a value's bucket
  // lower bound is within v/16 of v at every magnitude.
  for (std::uint64_t v = 1; v < (1ull << 40); v = v * 3 + 7) {
    const std::size_t b = LatencyHistogram::index_of(v);
    const std::uint64_t lo = LatencyHistogram::lower_of(b);
    ASSERT_LE(lo, v);
    ASSERT_LE(v - lo, v / 16 + 1) << "v=" << v;
  }
}

// --- recording and quantiles -----------------------------------------------

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) h.record(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.max_value(), 31u);
  EXPECT_DOUBLE_EQ(h.mean(), 15.5);
  // Unit buckets: the quantile of the k-th value is the value itself.
  EXPECT_DOUBLE_EQ(h.quantile(1.0 / 32.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 31.0);
}

TEST(LatencyHistogramTest, QuantilesOfUniformRangeAreWithinBucketError) {
  LatencyHistogram h;
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t v = 1; v <= kN; ++v) h.record(v);
  EXPECT_EQ(h.count(), kN);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const double q = h.quantile(p);
    const double exact = p * static_cast<double>(kN);
    EXPECT_NEAR(q, exact, exact / 16.0 + 1.0) << "p=" << p;
  }
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
}

TEST(LatencyHistogramTest, MergeIsLossless) {
  LatencyHistogram a, b, both;
  for (std::uint64_t v = 1; v <= 5000; ++v) {
    (v % 2 ? a : b).record(v * 7);
    both.record(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max_value(), both.max_value());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  for (double p : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(p), both.quantile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, ResetZeroes) {
  LatencyHistogram h;
  h.record(12345);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

}  // namespace
