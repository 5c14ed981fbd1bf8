// report.hpp — structured benchmark artifacts.
//
// Every bench binary prints its human tables as before, and *additionally*
// serializes the same cells into a JSON artifact ("cachetrie-bench-v1")
// so tables in EXPERIMENTS.md can be regenerated instead of
// hand-transcribed. These figure artifacts are not gated; performance is
// gated by the same-host A/B of perfbench/ (scripts/check.sh perf).
//
// Schema (one object per file):
//   {
//     "schema": "cachetrie-bench-v1",
//     "bench": "<binary name>",
//     "env": { "repro_scale", "hardware_threads", "metrics_compiled",
//              "testkit_compiled", "assertions", "compiler", "pointer_bits" },
//     "results": [ { "structure", "params": {k:v strings},
//                    "mean_ms", "stddev_ms", "min_ms", "max_ms",
//                    "reps", "warmup_iters", "ops_per_rep"? } ... ],
//     "metrics": { obs::Snapshot JSON }   // registry state at write()
//   }
//
// The artifact lands in `BENCH_<bench>.json` in the working directory, or
// in $CACHETRIE_BENCH_OUT if that names a directory.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "obs/metrics.hpp"

namespace cachetrie::harness {

/// Ordered key/value parameters identifying one benchmark cell (sizes,
/// thread counts, operation mix, ...). Values are strings so the schema
/// stays uniform; a cell is identified by (structure, params).
using BenchParams = std::vector<std::pair<std::string, std::string>>;

class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  /// Adds one measured cell. `ops_per_rep` (0 = unknown) lets consumers
  /// derive throughput without re-parsing params.
  void add(std::string structure, BenchParams params, const Summary& s,
           std::uint64_t ops_per_rep = 0) {
    cells_.push_back(Cell{std::move(structure), std::move(params), s,
                          ops_per_rep});
  }

  /// Adds four percentile cells (p50/p90/p99/p999) for one latency-measured
  /// cell. Values are *nanoseconds* carried in the schema's mean_ms/
  /// stddev_ms/min_ms/max_ms fields; the params gain {"stat":"pXX"} and
  /// {"unit":"ns"} so consumers (table generators) can tell them from
  /// wall-clock timing cells.
  void add_latency(const std::string& structure, const BenchParams& params,
                   const LatencySummary& ls) {
    const std::pair<const char*, const LatencyQuantile*> quantiles[] = {
        {"p50", &ls.p50}, {"p90", &ls.p90},
        {"p99", &ls.p99}, {"p999", &ls.p999}};
    for (const auto& [stat, q] : quantiles) {
      BenchParams p = params;
      p.emplace_back("stat", stat);
      p.emplace_back("unit", "ns");
      Summary s;
      s.mean_ms = q->mean_ns;
      s.stddev_ms = q->stddev_ns;
      s.min_ms = q->min_ns;
      s.max_ms = q->max_ns;
      s.reps = ls.passes;
      add(structure, std::move(p), s, ls.ops_per_pass);
    }
  }

  /// `BENCH_<bench>.json`, under $CACHETRIE_BENCH_OUT when set.
  std::string path() const {
    std::string p;
    if (const char* dir = std::getenv("CACHETRIE_BENCH_OUT")) {
      p = dir;
      if (!p.empty() && p.back() != '/') p += '/';
    }
    p += "BENCH_" + bench_ + ".json";
    return p;
  }

  /// Writes the artifact (including a registry snapshot taken now) and
  /// prints where it went. Returns false on I/O failure — benches treat
  /// that as fatal so CI never silently drops an artifact.
  bool write() const {
    const std::string file = path();
    std::ofstream os{file};
    if (!os) {
      std::fprintf(stderr, "bench report: cannot open %s\n", file.c_str());
      return false;
    }
    write_json(os);
    os.flush();
    if (!os) {
      std::fprintf(stderr, "bench report: write to %s failed\n", file.c_str());
      return false;
    }
    std::printf("\nwrote %s (%zu result cells)\n", file.c_str(),
                cells_.size());
    return true;
  }

  void write_json(std::ostream& os) const {
    os << "{\"schema\":\"cachetrie-bench-v1\",\"bench\":\"";
    obs::detail_emit::json_escape(os, bench_);
    os << "\",\"env\":{\"repro_scale\":\"" << scale_name()
       << "\",\"hardware_threads\":" << std::thread::hardware_concurrency()
       << ",\"metrics_compiled\":"
       << (obs::kMetricsCompiled ? "true" : "false")
       << ",\"testkit_compiled\":" << (kTestkitCompiled ? "true" : "false")
       << ",\"assertions\":" << (kAssertionsEnabled ? "true" : "false")
       << ",\"compiler\":\"";
    obs::detail_emit::json_escape(os, compiler_id());
    os << "\",\"pointer_bits\":" << (8 * sizeof(void*))
       << "},\"results\":[";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (i != 0) os << ",";
      const Cell& c = cells_[i];
      os << "{\"structure\":\"";
      obs::detail_emit::json_escape(os, c.structure);
      os << "\",\"params\":{";
      for (std::size_t p = 0; p < c.params.size(); ++p) {
        if (p != 0) os << ",";
        os << "\"";
        obs::detail_emit::json_escape(os, c.params[p].first);
        os << "\":\"";
        obs::detail_emit::json_escape(os, c.params[p].second);
        os << "\"";
      }
      os << "},\"mean_ms\":" << json_double(c.summary.mean_ms)
         << ",\"stddev_ms\":" << json_double(c.summary.stddev_ms)
         << ",\"min_ms\":" << json_double(c.summary.min_ms)
         << ",\"max_ms\":" << json_double(c.summary.max_ms)
         << ",\"reps\":" << c.summary.reps
         << ",\"warmup_iters\":" << c.summary.warmup_iters;
      if (c.ops_per_rep != 0) {
        os << ",\"ops_per_rep\":" << c.ops_per_rep;
      }
      os << "}";
    }
    os << "],\"metrics\":";
    obs::registry().snapshot().write_json(os);
    os << "}";
  }

 private:
  struct Cell {
    std::string structure;
    BenchParams params;
    Summary summary;
    std::uint64_t ops_per_rep;
  };

#if defined(CACHETRIE_TESTKIT) && CACHETRIE_TESTKIT
  static constexpr bool kTestkitCompiled = true;
#else
  static constexpr bool kTestkitCompiled = false;
#endif
#if defined(NDEBUG)
  static constexpr bool kAssertionsEnabled = false;
#else
  static constexpr bool kAssertionsEnabled = true;
#endif

  static const char* compiler_id() {
#if defined(__VERSION__)
    return __VERSION__;
#else
    return "unknown";
#endif
  }

  /// JSON has no inf/nan literals; clamp pathological values to 0.
  static std::string json_double(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::string bench_;
  std::vector<Cell> cells_;
};

}  // namespace cachetrie::harness
