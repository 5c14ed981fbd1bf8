// stats.hpp — summary statistics for benchmark measurements.
//
// Implements the aggregation side of the paper's methodology (§5): repeated
// measurements, mean and standard deviation, and the coefficient of
// variation that drives warmup detection ("we detect the warmup when the
// coefficient of variance drops below a threshold").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace cachetrie::harness {

/// Streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  /// *Sample* variance (Bessel-corrected, n-1 denominator) — the reps are a
  /// sample of the benchmark's run distribution, matching the ScalaMeter
  /// protocol EXPERIMENTS.md specifies. Locked in by
  /// Stats.StddevIsSampleNotPopulation; do not "simplify" to m2_/n.
  double variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }

  /// Coefficient of variation: stddev / mean (0 when undefined).
  double cov() const noexcept {
    return (n_ < 2 || mean_ == 0.0) ? 0.0 : stddev() / mean_;
  }

  void reset() noexcept { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// CoV over the most recent `window` samples — warmup detection looks at a
/// sliding window so early cold-cache iterations age out.
class SlidingCov {
 public:
  explicit SlidingCov(std::size_t window) : window_(window) {}

  void add(double x) {
    samples_.push_back(x);
    if (samples_.size() > window_) {
      samples_.erase(samples_.begin());
    }
  }

  bool full() const noexcept { return samples_.size() >= window_; }

  double cov() const noexcept {
    if (samples_.size() < 2) return std::numeric_limits<double>::infinity();
    RunningStats rs;
    for (double s : samples_) rs.add(s);
    return rs.cov();
  }

 private:
  std::size_t window_;
  std::vector<double> samples_;
};

/// Final report for one benchmark cell.
struct Summary {
  double mean_ms = 0.0;
  double stddev_ms = 0.0;
  std::size_t reps = 0;
  std::size_t warmup_iters = 0;
};

}  // namespace cachetrie::harness
