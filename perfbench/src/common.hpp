// common.hpp — pieces every workload shares: seeded keys whose values
// encode them, the result record run.py reads, and the process
// measurements (peak RSS, wall clock) that do not belong to any layer.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cachetrie/stats.hpp"
#include "mr/epoch.hpp"
#include "obs/tsc.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace perfbench {

using u64 = std::uint64_t;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans
};

/// Distinct keys from a seed: fmix64 is a bijection, so key(i) differs for
/// every i below 2^32 (the base keeps seeds apart).
class KeySpace {
 public:
  explicit KeySpace(u64 seed)
      : base_(cachetrie::util::SplitMix64(seed).next() & ~0xffffffffULL) {}
  u64 key(u64 i) const { return cachetrie::util::fmix64(base_ + i); }

 private:
  u64 base_;
};

/// Values carry their key's tag in the high word, so every read checks the
/// key it came from; the low word is free for a version.
inline u64 key_tag(u64 key) {
  return cachetrie::util::mix64(key ^ 0x6a09e667f3bcc909ULL) >> 32;
}
inline u64 value_for(u64 key, std::uint32_t version) {
  return (key_tag(key) << 32) | version;
}
inline bool value_matches(u64 key, u64 value) {
  return (value >> 32) == key_tag(key);
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ticks_to_us(u64 ticks) {
  return cachetrie::obs::tsc::to_ns(ticks) / 1000.0;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// What one run reports. `metrics` holds the contract metrics (end-to-end
/// in an untraced run, per-layer in a traced one); `info` holds everything
/// else a reader needs to trust them (sample counts, tail percentiles,
/// the rate ladder), printed and written to the artifact but not compared.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> info;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
};

/// The trie's operation counters (set by Config::collect_stats) and the
/// epoch domain's, read at both edges of a traced window.
struct Counters {
  u64 expansions = 0, compressions = 0, root_restarts = 0;
  u64 sampling_passes = 0, cache_fast_hits = 0;
  u64 retired = 0, freed = 0, fallback_scans = 0;

  static Counters read(const cachetrie::Stats& st) {
    auto rd = [](const std::atomic<u64>& a) {
      return a.load(std::memory_order_relaxed);
    };
    const auto& d = cachetrie::mr::EpochDomain::instance();
    return {rd(st.expansions),      rd(st.compressions),
            rd(st.root_restarts),   rd(st.sampling_passes),
            rd(st.cache_fast_hits), d.retired_count(),
            d.freed_count(),        d.fallback_scans()};
  }
};

/// The per-layer metrics of how the counters moved from `a` to `b` over
/// `ops` map operations, `lookups` of them lookups.
inline void report_counters(Result& r, const Counters& a, const Counters& b,
                            double ops, double lookups) {
  const double kops = std::max(ops, 1.0) / 1000.0;
  auto per_kop = [&](u64 from, u64 to) {
    return static_cast<double>(to - from) / kops;
  };
  r.metric("cachetrie.cache_fast_hit_ratio",
           lookups > 0 ? static_cast<double>(b.cache_fast_hits - a.cache_fast_hits) /
                             lookups
                       : 0.0,
           "ratio");
  r.metric("cachetrie.expansions_per_kop", per_kop(a.expansions, b.expansions), "1/kop");
  r.metric("cachetrie.compressions_per_kop",
           per_kop(a.compressions, b.compressions), "1/kop");
  r.metric("cachetrie.root_restarts_per_kop",
           per_kop(a.root_restarts, b.root_restarts), "1/kop");
  r.metric("cachetrie.sampling_passes",
           static_cast<double>(b.sampling_passes - a.sampling_passes), "count");
  r.metric("mr.retired_per_kop", per_kop(a.retired, b.retired), "1/kop");
  r.metric("mr.freed_per_kop", per_kop(a.freed, b.freed), "1/kop");
  r.metric("mr.fallback_scans",
           static_cast<double>(b.fallback_scans - a.fallback_scans), "count");
}

}  // namespace perfbench
