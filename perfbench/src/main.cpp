// main.cpp — perfbench entry point: one workload, one run.
//
//   perfbench --workload <embedded_read|embedded_churn|served_cache>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints a human-readable report, then as its last line
// "PERFBENCH_RESULT <json>" carrying the metrics, the checks' outcome and
// the build half of the host fingerprint (run.py adds the host half).
// Exits 1 when any correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
void run_embedded(const Options& opt, bool churn, Result& r);
void run_served(const Options& opt, Result& r);
}  // namespace perfbench

namespace {

using perfbench::Result;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// JSON has no infinity: a latency that only failed requests reached
/// prints as null (and run.py rejects a null metric).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void print_result(const Result& r) {
  std::string j = "{\"correct\": ";
  j += r.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(r.attempted);
  j += ", \"failed\": " + std::to_string(r.failed);
  j += ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    j += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  }
  j += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    j += first ? "" : ", ";
    first = false;
    j += "\"" + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  j += "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : r.info) {
    j += first ? "" : ", ";
    first = false;
    j += "\"" + name + "\": " + num(v);
  }
#ifdef __clang__
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  j += "}, \"build\": {\"compiler\": \"" + json_escape(compiler) +
       "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  j += ", \"CACHETRIE_METRICS\": " + std::to_string(CACHETRIE_METRICS);
  j += ", \"CACHETRIE_TRACE\": " + std::to_string(CACHETRIE_TRACE);
  j += "}}";
  std::printf("PERFBENCH_RESULT %s\n", j.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (flag == "--spans-out") {
      opt.spans_out = val;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Result r;
  if (opt.workload == "embedded_read") {
    perfbench::run_embedded(opt, /*churn=*/false, r);
  } else if (opt.workload == "embedded_churn") {
    perfbench::run_embedded(opt, /*churn=*/true, r);
  } else if (opt.workload == "served_cache") {
    perfbench::run_served(opt, r);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.trace) {
    perfbench::fill_unset(r, perfbench::kPerLayer);
  } else {
    perfbench::fill_unset(r, perfbench::kEndToEnd);
  }
  print_result(r);
  return r.correct ? 0 : 1;
}
