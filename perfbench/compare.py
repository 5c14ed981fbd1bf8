#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as run.py writes
under .bench_build/perfbench/results (copy them aside between the two
builds). For each metric the table gives both medians, the change, the
spread of each side (interquartile range over median) and the verdict
against the metric's bound in BENCHMARK.json:

    worse     the new median is worse than the base by more than the bound
    unresolved one side spreads wider than the bound, so a change within it
               cannot be told from noise (unless every new run beats every
               base run)
    ok        within the bound

Results taken on different hosts or builds are not compared: if any two
results disagree on their fingerprint (nproc, CPU model, compiler, build
type, metrics/trace flags), the script says which fields differ and exits
with status 3 instead of reporting a regression. Exit status 1 means some
metric got worse; 0 means none did.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FingerprintMismatch(Exception):
    pass


def load(paths):
    out = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "*.json"))) if os.path.isdir(p) else [p]
        for f in files:
            with open(f) as fh:
                out.append(json.load(fh))
    return out


def check_fingerprints(results):
    """Raises FingerprintMismatch unless every result has one fingerprint."""
    if not results:
        return
    first = results[0]["fingerprint"]
    for r in results[1:]:
        fp = r["fingerprint"]
        diff = sorted(k for k in set(first) | set(fp) if first.get(k) != fp.get(k))
        if diff:
            raise FingerprintMismatch(
                "refusing to compare results from different hosts or builds: " +
                ", ".join("%s %r vs %r" % (k, first.get(k), fp.get(k)) for k in diff))


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["better"], m.get("bound"))
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def compare(base, new, spec):
    """Returns rows (workload, trace, metric, base_med, new_med, change,
    base_spread, new_spread, verdict)."""
    check_fingerprints(base + new)
    rows = []
    keys = sorted({(r["workload"], r["trace"]) for r in base} &
                  {(r["workload"], r["trace"]) for r in new})
    for wl, tr in keys:
        b = [r for r in base if (r["workload"], r["trace"]) == (wl, tr)]
        n = [r for r in new if (r["workload"], r["trace"]) == (wl, tr)]
        for name in sorted(b[0]["metrics"]):
            if name not in spec:
                continue
            better, bound = spec[name]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse_by = -change if better == "higher" else change
            verdict = "ok"
            if bound is None:
                verdict = "-"
            elif max(spread(bv), spread(nv)) > bound:
                all_better = (min(nv) > max(bv)) if better == "higher" else (max(nv) < min(bv))
                verdict = "ok" if all_better else "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            rows.append((wl, tr, name, bm, nm, change, spread(bv), spread(nv), verdict))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows = compare(load([argv[1]]), load([argv[2]]), bounds())
    except FingerprintMismatch as e:
        print(e, file=sys.stderr)
        return 3
    print("%-15s %-5s %-36s %12s %12s %8s %7s %7s  %s" % (
        "workload", "trace", "metric", "base", "new", "change", "b.sprd", "n.sprd", "verdict"))
    for wl, tr, name, bm, nm, ch, bs, ns, v in rows:
        print("%-15s %-5d %-36s %12.5g %12.5g %+7.1f%% %7.3f %7.3f  %s" % (
            wl, tr, name, bm, nm, 100 * ch, bs, ns, v))
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
