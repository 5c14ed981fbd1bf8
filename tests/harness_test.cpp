// harness_test.cpp — tests for the benchmark substrate: statistics,
// warmup detection, workload generators, thread teams and table output.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/thread_team.hpp"
#include "harness/workload.hpp"

namespace {

using namespace cachetrie::harness;

TEST(Stats, RunningStatsBasics) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_EQ(rs.count(), 8u);
}

TEST(Stats, StddevIsSampleNotPopulation) {
  // Regression lock: variance() must divide by n-1 (Bessel-corrected
  // sample variance), not n. Bench reps are a sample of the run-time
  // distribution, so the stddev the figure artifacts report is the
  // sample estimator. {1, 5}: sample variance 8 (stddev 2*sqrt(2)),
  // population variance would be 4 (stddev 2).
  RunningStats rs;
  rs.add(1.0);
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 8.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0 * std::sqrt(2.0));
  // A single observation has no spread estimate; by convention 0, not NaN.
  RunningStats one;
  one.add(3.0);
  EXPECT_DOUBLE_EQ(one.variance(), 0.0);
}

TEST(Stats, CovOfConstantSeriesIsZero) {
  RunningStats rs;
  for (int i = 0; i < 10; ++i) rs.add(3.5);
  EXPECT_DOUBLE_EQ(rs.cov(), 0.0);
}

TEST(Stats, SlidingCovConverges) {
  SlidingCov sc{3};
  sc.add(100.0);
  sc.add(10.0);
  EXPECT_FALSE(sc.full());
  sc.add(10.0);
  EXPECT_TRUE(sc.full());
  EXPECT_GT(sc.cov(), 0.5);  // still noisy
  sc.add(10.0);
  sc.add(10.0);
  sc.add(10.0);
  EXPECT_DOUBLE_EQ(sc.cov(), 0.0);  // old outlier aged out
}

TEST(Runner, WarmupStopsWhenStable) {
  int calls = 0;
  MeasureOptions opts;
  opts.min_warmup = 2;
  opts.max_warmup = 50;
  opts.cov_threshold = 0.05;
  opts.cov_window = 3;
  opts.reps = 4;
  auto body = [&]() -> double {
    ++calls;
    return calls < 3 ? 100.0 : 10.0;  // stabilizes after 2 noisy iterations
  };
  const Summary s = measure(body, opts);
  EXPECT_EQ(s.reps, 4u);
  EXPECT_LT(s.warmup_iters, 50u);  // converged before the budget
  EXPECT_DOUBLE_EQ(s.mean_ms, 10.0);
  EXPECT_DOUBLE_EQ(s.stddev_ms, 0.0);
}

TEST(Runner, WarmupBudgetBoundsNoisyBodies) {
  int calls = 0;
  MeasureOptions opts;
  opts.max_warmup = 6;
  opts.reps = 2;
  auto body = [&]() -> double {
    ++calls;
    return (calls % 2 == 0) ? 100.0 : 1.0;  // never stabilizes
  };
  const Summary s = measure(body, opts);
  EXPECT_EQ(s.warmup_iters, 6u);
  EXPECT_EQ(s.reps, 2u);
}

TEST(Runner, TimeMsMeasuresSomething) {
  volatile std::uint64_t sink = 0;
  const double ms = time_ms([&] {
    for (int i = 0; i < 1000000; ++i) sink = sink + 1;
  });
  EXPECT_GE(ms, 0.0);
}

TEST(Workload, RandomKeysDistinct) {
  auto keys = random_keys(10000, 7);
  std::set<std::uint64_t> uniq(keys.begin(), keys.end());
  EXPECT_EQ(uniq.size(), keys.size());
  // Deterministic per seed.
  auto again = random_keys(10000, 7);
  EXPECT_EQ(keys, again);
  EXPECT_NE(keys, random_keys(10000, 8));
}

TEST(Workload, ShuffledSequentialIsAPermutation) {
  auto keys = shuffled_sequential_keys(5000, 3);
  std::set<std::uint64_t> uniq(keys.begin(), keys.end());
  EXPECT_EQ(uniq.size(), 5000u);
  EXPECT_EQ(*uniq.begin(), 0u);
  EXPECT_EQ(*uniq.rbegin(), 4999u);
  // Actually shuffled.
  bool any_moved = false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] != i) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(Workload, SharedKeysIdenticalAcrossThreads) {
  SharedKeys w{1000};
  EXPECT_EQ(&w.for_thread(0), &w.for_thread(5));
  EXPECT_EQ(w.total_distinct(), 1000u);
}

TEST(Workload, DisjointKeysAreDisjointAndComplete) {
  DisjointKeys w{4, 1000};
  std::set<std::uint64_t> all;
  for (int t = 0; t < 4; ++t) {
    for (auto k : w.for_thread(t)) all.insert(k);
  }
  EXPECT_EQ(all.size(), 4000u);
  EXPECT_EQ(*all.rbegin(), 3999u);
}

TEST(ThreadTeam, AllBodiesRunAndMakespanPositive) {
  std::atomic<int> ran{0};
  const double ms = run_team_ms(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(ms, 0.0);
}

TEST(TablePrinter, AlignsAndNormalizes) {
  Table t{{"size", "skiplist", "chm"}};
  t.add_row({"100k", Table::fmt(1.5), Table::fmt_ratio(3.0, 1.5)});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("size"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("2.00x"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Scale, DefaultsWhenUnset) {
  // REPRO_SCALE is not set in the test environment.
  if (std::getenv("REPRO_SCALE") == nullptr) {
    EXPECT_EQ(by_scale(1, 2, 3), 2);
  }
}

}  // namespace
