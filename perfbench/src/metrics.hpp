// metrics.hpp — the names and units every run reports. An untraced run
// reports each end-to-end metric, a traced run each per-layer metric; a
// per-layer metric whose layer a workload never calls reads 0 (net.* on the
// embedded workloads, evict.* outside served_cache). run.py checks these
// lists against BENCHMARK.json before it prints a result.
#pragma once

#include <array>

#include "common.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr std::array<MetricDef, 9> kEndToEnd = {{
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"max_rate_rps", "req/s"},
    {"ok_ratio", "ratio"},
    {"hit_ratio", "ratio"},
    {"bytes_per_key", "B"},
    {"peak_rss_mb", "MB"},
}};

inline constexpr std::array<MetricDef, 40> kPerLayer = {{
    {"util.hash_ns", "ns"},
    {"cachetrie.lookup_ns_p50", "ns"},
    {"cachetrie.lookup_ns_p99", "ns"},
    {"cachetrie.insert_ns_p50", "ns"},
    {"cachetrie.insert_ns_p99", "ns"},
    {"cachetrie.remove_ns_p50", "ns"},
    {"cachetrie.remove_ns_p99", "ns"},
    {"cachetrie.cache_level", "level"},
    {"cachetrie.top_pair_share", "ratio"},
    {"cachetrie.cache_fast_hit_ratio", "ratio"},
    {"cachetrie.expansions_per_kop", "1/kop"},
    {"cachetrie.compressions_per_kop", "1/kop"},
    {"cachetrie.root_restarts_per_kop", "1/kop"},
    {"cachetrie.sampling_passes", "count"},
    {"evict.lru_evictions_per_kput", "1/kput"},
    {"evict.backpressure_scans_per_kput", "1/kput"},
    {"evict.resident_ratio", "ratio"},
    {"mr.pin_ns", "ns"},
    {"mr.retired_per_kop", "1/kop"},
    {"mr.freed_per_kop", "1/kop"},
    {"mr.limbo_peak_mb", "MB"},
    {"mr.fallback_scans", "count"},
    {"net.encode_ns", "ns"},
    {"net.parse_ns", "ns"},
    {"net.send_us_p50", "us"},
    {"net.recv_us_p50", "us"},
    {"net.gen_lag_us_p99", "us"},
    {"net.queue_us_p50", "us"},
    {"net.queue_us_p99", "us"},
    {"net.flush_us_p50", "us"},
    {"net.flush_us_p99", "us"},
    {"net.server_total_us_p99", "us"},
    {"net.shed_ratio", "ratio"},
    {"net.queue_hwm", "count"},
    {"net.backpressure_kills", "count"},
    {"net.execute_ns_p50", "ns"},
    {"net.execute_ns_p99", "ns"},
    {"net.unattributed_us_p50", "us"},
    {"net.unattributed_us_p99", "us"},
    {"obs.trace_overhead_ratio", "ratio"},
}};

/// Adds every metric of `defs` the workload did not set, at 0.
template <std::size_t N>
void fill_unset(Result& r, const std::array<MetricDef, N>& defs) {
  for (const MetricDef& d : defs) {
    if (r.metrics.find(d.name) == r.metrics.end()) r.metric(d.name, 0.0, d.unit);
  }
}

}  // namespace perfbench
