// stats.hpp — the benchmark's own statistics, kept free of measurement code
// so selftest.cpp can pin every rule on hand-built inputs.
//
//   * percentile():       exact nearest-rank order statistic plus the count
//                         it was taken over;
//   * supported_tail():   the highest "nines" percentile that still has at
//                         least ten samples beyond it;
//   * ladder rules:       one rate step passes when its backlog did not grow
//                         and in most of its time windows the p99 meets the
//                         limit and failures stay under the cap; the
//                         ladder's result is the highest passing step below
//                         the lowest failing one;
//   * self_time():        a span's duration minus the part of it that its
//                         children cover (overlapping children count once).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank p-quantile (p in [0,1]) of `v`: the smallest sample such
/// that at least p·n samples are <= it. Reorders `v`. An empty input gives
/// {0, 0}.
inline Quantile percentile(std::vector<double>& v, double p) {
  Quantile q;
  q.samples = v.size();
  if (v.empty()) return q;
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  q.value = *nth;
  return q;
}

/// Samples strictly beyond the nearest-rank p-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// The highest of p50, p90, p99, p99.9, ... that leaves at least ten
/// samples beyond it; 0 when not even the median does (n < 20).
inline double supported_tail(std::size_t n) {
  double best = 0.0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

/// One time window of a ladder step.
struct StepWindow {
  double p99_us = 0.0;  // failures count as beyond any limit
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One probed step of the served rate ladder.
struct LadderStep {
  double rate_rps = 0.0;
  std::vector<StepWindow> windows;
  std::size_t backlog_mid = 0;  // outstanding requests around half-way
  std::size_t backlog_end = 0;  // outstanding as the last one fell due
};

struct LadderLimits {
  double p99_limit_us = 0.0;
  double fail_cap = 0.0;        // failed / attempted must not exceed this
  std::size_t backlog_slack = 0;
};

/// Backlog grows when more requests are outstanding at the end of the step
/// than half-way through, by more than the slack a healthy step shows.
inline bool backlog_grew(const LadderStep& s, const LadderLimits& lim) {
  return s.backlog_end > s.backlog_mid + lim.backlog_slack;
}

inline bool window_passes(const StepWindow& w, const LadderLimits& lim) {
  if (w.attempted == 0) return false;
  const double fail_ratio =
      static_cast<double>(w.failed) / static_cast<double>(w.attempted);
  return w.p99_us <= lim.p99_limit_us && fail_ratio <= lim.fail_cap;
}

/// A step passes when its backlog did not grow and most of its windows
/// meet the limits: a host stall spoils a window, an overloaded server
/// spoils them all.
inline bool step_passes(const LadderStep& s, const LadderLimits& lim) {
  if (s.windows.empty() || backlog_grew(s, lim)) return false;
  std::size_t pass = 0;
  for (const StepWindow& w : s.windows) pass += window_passes(w, lim) ? 1 : 0;
  return 2 * pass > s.windows.size();
}

/// Highest passing rate strictly below the lowest failing rate among the
/// probed steps (in any order); 0 when no step passes. A noisy pass above
/// a failure is not believed.
inline double max_passing_rate(const std::vector<LadderStep>& steps,
                               const LadderLimits& lim) {
  double lowest_fail = std::numeric_limits<double>::infinity();
  for (const auto& s : steps) {
    if (!step_passes(s, lim)) lowest_fail = std::min(lowest_fail, s.rate_rps);
  }
  double best = 0.0;
  for (const auto& s : steps) {
    if (s.rate_rps < lowest_fail && step_passes(s, lim)) {
      best = std::max(best, s.rate_rps);
    }
  }
  return best;
}

/// Self time of the interval [start, end): its length minus the measure of
/// the union of `children` clipped to it.
inline std::uint64_t self_time(
    std::uint64_t start, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, start);
    hi = std::min(hi, end);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return (end - start) - covered;
}

}  // namespace perfbench
