#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
C++ benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench; later
calls only rebuild what changed. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: every
end-to-end metric of BENCHMARK.json for --trace 0, every per-layer metric
for --trace 1. The full result, with the host fingerprint that
perfbench/compare.py keys on, is written under .bench_build/perfbench/results.
Exits nonzero without a result line when the build fails, a check inside
the run fails, or the output does not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("embedded_read", "embedded_churn", "served_cache")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cachetrie", "cache_trie.hpp")):
        die("library sources not found under %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0)))])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                die("build failed: " + " ".join(cmd), 3)


def host_fingerprint(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": build_info.get("compiler", "?"),
        "build_type": build_info.get("build_type", "?"),
        "CACHETRIE_METRICS": build_info.get("CACHETRIE_METRICS"),
        "CACHETRIE_TRACE": build_info.get("CACHETRIE_TRACE"),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    want = expected_metrics(trace)
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra), 1)
    for name, m in metrics.items():
        v = m["value"]
        if m["unit"] != want[name]:
            die("metric %s has unit %s, BENCHMARK.json says %s" % (name, m["unit"], want[name]), 1)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die("metric %s has no finite value" % name, 1)
        if not trace and v <= 0:
            die("end-to-end metric %s read %r; it must never be 0" % (name, v), 1)


def run(args):
    build()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(BUILD, "spans-%s.bin" % args.workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        die("%s printed no result (exit %d)" % (args.workload, done.returncode), 1)
    if done.returncode != 0 or not result["correct"]:
        die("%s failed its checks: %s" % (args.workload, "; ".join(result["errors"])), 1)
    check_metrics(result["metrics"], args.trace)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": host_fingerprint(result["build"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "info": result["info"],
    }
    outdir = os.path.join(BUILD, "results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    for name in sorted(result["info"]):
        print("info %s = %s" % (name, result["info"][name]))
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        print("metric %-36s %16.8g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        # Reported in the result line as ok_ratio (an end-to-end metric may not
        # read 0); failed/attempted of the line below.
        print("metric %-36s %16.8g %s" % (
            "fail_ratio", result["failed"] / max(result["attempted"], 1), "ratio"))
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def selftest():
    build()
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    rc |= subprocess.run([sys.executable, "-B", "-m", "unittest", "-q", "test_compare"],
                         cwd=HERE).returncode
    sys.exit(1 if rc else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the benchmark's own statistics and comparison")
    args = p.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    run(args)


if __name__ == "__main__":
    main()
