// selftest.cpp — checks the benchmark's own statistics on inputs whose
// answers are known by hand. Exits 1 if any expectation fails.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::LadderLimits;
using perfbench::LadderStep;

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  auto p50 = perfbench::percentile(v, 0.5);
  expect(near(p50.value, 50) && p50.samples == 100, "p50 of 1..100 is 50, n=100");
  expect(near(perfbench::percentile(v, 0.99).value, 99), "p99 of 1..100 is 99");
  expect(near(perfbench::percentile(v, 1.0).value, 100), "p100 is the maximum");
  expect(near(perfbench::percentile(v, 0.0).value, 1), "p0 is the minimum");
  std::vector<double> one = {7.5};
  expect(near(perfbench::percentile(one, 0.99).value, 7.5), "one sample is every percentile");
  std::vector<double> none;
  const auto e = perfbench::percentile(none, 0.5);
  expect(e.samples == 0 && e.value == 0.0, "no samples: value 0, count 0");
  // A failed request is +inf and must land beyond the p99 once it is >1%.
  std::vector<double> f(98, 10.0);
  f.push_back(std::numeric_limits<double>::infinity());
  f.push_back(std::numeric_limits<double>::infinity());
  expect(std::isinf(perfbench::percentile(f, 0.99).value),
         "2% failures push p99 past any limit");
}

void tail_rule() {
  expect(perfbench::samples_beyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  expect(perfbench::supported_tail(19) == 0.0, "19 samples support no percentile");
  expect(near(perfbench::supported_tail(20), 0.5), "20 samples support p50");
  expect(near(perfbench::supported_tail(100), 0.9), "100 samples support p90");
  expect(near(perfbench::supported_tail(999), 0.9), "999 samples: p99 has only 9 beyond");
  expect(near(perfbench::supported_tail(1000), 0.99), "1000 samples: p99 (p99.9 has 1 beyond)");
  expect(near(perfbench::supported_tail(10000), 0.999), "10000 samples support p99.9");
  expect(near(perfbench::supported_tail(1000000), 0.99999), "1e6 samples support p99.999");
}

void ladder() {
  using perfbench::StepWindow;
  LadderLimits lim;
  lim.p99_limit_us = 1000;
  lim.fail_cap = 0.001;
  lim.backlog_slack = 64;
  const StepWindow good{500, 10000, 0};
  auto step = [&](double rate, std::vector<StepWindow> w, std::size_t mid = 3,
                  std::size_t end = 4) {
    LadderStep s;
    s.rate_rps = rate;
    s.windows = std::move(w);
    s.backlog_mid = mid;
    s.backlog_end = end;
    return s;
  };
  auto same = [&](const StepWindow& w) { return std::vector<StepWindow>(5, w); };
  expect(perfbench::step_passes(step(1, same(good)), lim), "healthy step passes");
  expect(!perfbench::step_passes(step(1, same({1500, 10000, 0})), lim),
         "p99 over the limit fails");
  expect(perfbench::step_passes(step(1, same({500, 10000, 10})), lim),
         "fail ratio at the cap passes");
  expect(!perfbench::step_passes(step(1, same({500, 10000, 11})), lim),
         "fail ratio over the cap fails");
  expect(!perfbench::step_passes(step(1, same({500, 0, 0})), lim),
         "windows with no requests fail");
  const StepWindow stalled{9000, 10000, 200};
  expect(perfbench::step_passes(step(1, {good, stalled, good, stalled, good}), lim),
         "two stalled windows of five still pass");
  expect(!perfbench::step_passes(step(1, {stalled, good, stalled, good, stalled}), lim),
         "three stalled windows of five fail");
  expect(!perfbench::step_passes(step(1, same(good), 100, 400), lim),
         "growing backlog fails even with good windows");
  expect(perfbench::step_passes(step(1, same(good), 100, 150), lim),
         "backlog within the slack passes");
  expect(!perfbench::step_passes(step(1, {}), lim), "a step with no windows fails");

  const StepWindow slow{5000, 10000, 0};
  std::vector<LadderStep> probes = {step(10, same(good)), step(20, same(good)),
                                    step(40, same(good), 1, 900), step(30, same(good)),
                                    step(35, same(slow))};
  expect(near(perfbench::max_passing_rate(probes, lim), 30),
         "result is the highest pass below the lowest failure");
  probes.push_back(step(50, same(good)));  // a lucky pass above failures
  expect(near(perfbench::max_passing_rate(probes, lim), 30),
         "a pass above a failing step is not believed");
  std::vector<LadderStep> all_fail = {step(10, same(slow))};
  expect(perfbench::max_passing_rate(all_fail, lim) == 0.0, "no passing step gives 0");
}

void self_times() {
  using perfbench::self_time;
  expect(self_time(0, 100, {}) == 100, "no children: self time is the duration");
  expect(self_time(0, 100, {{10, 20}, {30, 50}}) == 70, "disjoint children subtract");
  expect(self_time(0, 100, {{10, 40}, {30, 50}}) == 60, "overlapping children count once");
  expect(self_time(0, 100, {{30, 50}, {10, 40}}) == 60, "child order does not matter");
  expect(self_time(10, 100, {{90, 150}, {0, 15}}) == 75, "children are clipped to the parent");
  expect(self_time(0, 100, {{0, 100}, {20, 30}}) == 0, "a covering child leaves nothing");
  expect(self_time(50, 40, {}) == 0, "an inverted span has no self time");
  expect(self_time(0, 100, {{20, 30}, {20, 30}}) == 90, "duplicate children count once");
}

}  // namespace

int main() {
  percentiles();
  tail_rule();
  ladder();
  self_times();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
