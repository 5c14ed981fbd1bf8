// runner.hpp — the measurement protocol of the paper's evaluation (§5),
// transplanted from ScalaMeter to native code:
//
//   1. run the benchmark body repeatedly until the coefficient of variation
//      over a sliding window drops below a threshold (warmup detected), or
//      a warmup budget is exhausted;
//   2. run `reps` measured repetitions;
//   3. report mean and standard deviation.
//
// The JVM original also forks fresh VM processes; a native binary has no
// JIT or GC to isolate, so process forking is intentionally dropped
// (documented in EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdlib>
#include <string>

#include "harness/stats.hpp"

namespace cachetrie::harness {

struct MeasureOptions {
  std::size_t min_warmup = 2;
  std::size_t max_warmup = 12;
  double cov_threshold = 0.10;
  std::size_t cov_window = 3;
  std::size_t reps = 5;
};

/// Scale profile: container-friendly sizes by default; REPRO_SCALE=paper
/// selects the paper's exact sizes (needs a real multicore and ~8 GB), and
/// REPRO_SCALE=smoke shrinks everything for CI-style runs.
enum class Scale { kSmoke, kDefault, kPaper };

inline Scale scale_from_env() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return Scale::kDefault;
  const std::string s{env};
  if (s == "paper") return Scale::kPaper;
  if (s == "smoke") return Scale::kSmoke;
  return Scale::kDefault;
}

/// Picks one of three values by the active scale profile.
template <typename T>
T by_scale(T smoke, T dflt, T paper) {
  switch (scale_from_env()) {
    case Scale::kSmoke:
      return smoke;
    case Scale::kPaper:
      return paper;
    default:
      return dflt;
  }
}

/// Milliseconds consumed by fn().
template <typename F>
double time_ms(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Full protocol: `body()` must execute one complete benchmark iteration
/// and return its duration in milliseconds (so it can exclude setup).
template <typename Body>
Summary measure(Body&& body, const MeasureOptions& opts = {}) {
  Summary summary;
  SlidingCov warm{opts.cov_window};
  std::size_t iters = 0;
  while (iters < opts.max_warmup) {
    warm.add(body());
    ++iters;
    if (iters >= opts.min_warmup && warm.full() &&
        warm.cov() < opts.cov_threshold) {
      break;
    }
  }
  summary.warmup_iters = iters;

  RunningStats rs;
  for (std::size_t r = 0; r < opts.reps; ++r) {
    rs.add(body());
  }
  summary.mean_ms = rs.mean();
  summary.stddev_ms = rs.stddev();
  summary.reps = rs.count();
  return summary;
}

}  // namespace cachetrie::harness
