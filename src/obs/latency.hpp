// latency.hpp — the one histogram value type of obs/.
//
// Exact unit buckets below 32, then 16 linear sub-buckets per power of two
// (the classic HdrHistogram-lite layout): relative error at most 1/16
// (~6%) at every magnitude up to 2^64, and small discrete values (trie
// depths, level counts) stay exact. Quantiles interpolate linearly within
// the landing bucket.
//
// Plain (non-atomic) counters: one recorder per instance; merge() combines
// per-pass or per-thread instances losslessly (bucket-wise addition). The
// registry's concurrent obs::Histogram (metrics.hpp) records into the same
// buckets and snapshots into this type.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace cachetrie::obs {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: top 4 value bits after the leading one.
  static constexpr std::size_t kSubBuckets = 16;
  /// Indices 0..31 are exact units; (e-3)*16 + sub for 2^e <= v < 2^(e+1),
  /// e in [5, 63] — 976 buckets, ~8 KB per instance.
  static constexpr std::size_t kBuckets = 976;

  static constexpr std::size_t index_of(std::uint64_t v) noexcept {
    if (v < 32) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;
    return static_cast<std::size_t>((e - 3) * 16 +
                                    static_cast<int>((v >> (e - 4)) & 15));
  }

  /// Smallest value mapping to bucket b.
  static constexpr std::uint64_t lower_of(std::size_t b) noexcept {
    if (b < 32) return b;
    const int e = static_cast<int>(b / 16) + 3;
    return (std::uint64_t{16} + b % 16) << (e - 4);
  }

  /// Number of distinct values in bucket b.
  static constexpr std::uint64_t width_of(std::size_t b) noexcept {
    return b < 32 ? 1 : (std::uint64_t{1} << (b / 16 - 1));
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[index_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  /// Folds in n values known only by their bucket — how the registry
  /// merges a striped obs::Histogram into a snapshot. max_value() rises to
  /// bucket b's top value; the values' total goes in through add_sum().
  void add_bucket(std::size_t b, std::uint64_t n) noexcept {
    if (n == 0) return;
    buckets_[b] += n;
    count_ += n;
    const std::uint64_t top = lower_of(b) + (width_of(b) - 1);
    if (top > max_) max_ = top;
  }
  void add_sum(std::uint64_t v) noexcept { sum_ += v; }

  std::uint64_t bucket(std::size_t b) const noexcept { return buckets_[b]; }
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t max_value() const noexcept { return max_; }

  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// p-quantile (p in [0,1]) with linear interpolation inside the landing
  /// bucket — exact for values < 32, within bucket-width/count above.
  double quantile(double p) const noexcept {
    if (count_ == 0) return 0.0;
    double target = p * static_cast<double>(count_);
    if (target > static_cast<double>(count_)) {
      target = static_cast<double>(count_);
    }
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      if (static_cast<double>(cum + buckets_[b]) >= target) {
        double frac =
            (target - static_cast<double>(cum)) /
            static_cast<double>(buckets_[b]);
        if (frac < 0.0) frac = 0.0;
        return static_cast<double>(lower_of(b)) +
               static_cast<double>(width_of(b) - 1) * frac;
      }
      cum += buckets_[b];
    }
    return static_cast<double>(max_);
  }

  /// Fraction of recorded values <= v: exact for v < 32, else counting all
  /// of v's bucket.
  double fraction_at_most(std::uint64_t v) const noexcept {
    if (count_ == 0) return 0.0;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b <= index_of(v); ++b) cum += buckets_[b];
    return static_cast<double>(cum) / static_cast<double>(count_);
  }

  /// What was recorded after `before`, an earlier copy of this histogram:
  /// bucket-wise subtraction, each bucket clamped at zero so a source
  /// reset in between never underflows.
  /// count() is the sum of the differences; max_value() stays this one's.
  LatencyHistogram since(const LatencyHistogram& before) const noexcept {
    LatencyHistogram d;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] > before.buckets_[b]) {
        d.buckets_[b] = buckets_[b] - before.buckets_[b];
        d.count_ += d.buckets_[b];
      }
    }
    d.sum_ = sum_ > before.sum_ ? sum_ - before.sum_ : 0;
    d.max_ = max_;
    return d;
  }

  /// Bucket-wise addition (per-pass / per-thread instances combine
  /// losslessly).
  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept { *this = LatencyHistogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// The geometry is a smooth continuation of the unit range: 16..31 are both
// "units" and the e=4 sub-bucket row, so index_of(v) == v for all v < 32.
static_assert(LatencyHistogram::index_of(31) == 31);
static_assert(LatencyHistogram::index_of(32) == 32);
static_assert(LatencyHistogram::index_of(63) == 47);
static_assert(LatencyHistogram::lower_of(32) == 32);
static_assert(LatencyHistogram::width_of(32) == 2);
static_assert(LatencyHistogram::index_of(~std::uint64_t{0}) ==
              LatencyHistogram::kBuckets - 1);

}  // namespace cachetrie::obs
