"""Self-tests of compare.py: fingerprint refusal and the per-metric verdicts.

    python3 perfbench/run.py --selftest   (runs these and the C++ self-test)
"""

import unittest

import compare

FP = {"nproc": 4, "cpu_model": "X", "machine": "x86_64", "compiler": "gcc 12",
      "build_type": "RelWithDebInfo", "CACHETRIE_METRICS": 1, "CACHETRIE_TRACE": 1}
SPEC = {"ops_per_s": ("higher", 0.1), "latency_p50_us": ("lower", 0.1),
        "util.hash_ns": ("lower", None)}


def result(ops, lat, fp=None, workload="embedded_read"):
    return {"workload": workload, "trace": 0, "fingerprint": dict(fp or FP),
            "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                        "latency_p50_us": {"value": lat, "unit": "us"}}}


def verdicts(base, new):
    return {row[2]: row[-1] for row in compare.compare(base, new, SPEC)}


class FingerprintTest(unittest.TestCase):
    def test_refuses_other_host(self):
        other = dict(FP, nproc=1)
        with self.assertRaises(compare.FingerprintMismatch) as ctx:
            compare.compare([result(100, 1)], [result(50, 2, fp=other)], SPEC)
        self.assertIn("nproc", str(ctx.exception))

    def test_refuses_other_build(self):
        for field, value in (("compiler", "clang 17"), ("build_type", "Release"),
                             ("CACHETRIE_METRICS", 0), ("CACHETRIE_TRACE", 0),
                             ("cpu_model", "Y")):
            other = dict(FP, **{field: value})
            with self.assertRaises(compare.FingerprintMismatch, msg=field):
                compare.compare([result(100, 1)], [result(100, 1, fp=other)], SPEC)

    def test_refuses_mixed_base(self):
        base = [result(100, 1), result(100, 1, fp=dict(FP, nproc=8))]
        with self.assertRaises(compare.FingerprintMismatch):
            compare.compare(base, [result(100, 1)], SPEC)

    def test_same_host_compares(self):
        self.assertEqual(verdicts([result(100, 1)], [result(100, 1)]),
                         {"ops_per_s": "ok", "latency_p50_us": "ok"})


class VerdictTest(unittest.TestCase):
    def test_worse_beyond_bound(self):
        base = [result(100, 1.0)] * 4
        new = [result(85, 1.2)] * 4
        self.assertEqual(verdicts(base, new),
                         {"ops_per_s": "worse", "latency_p50_us": "worse"})

    def test_better_is_ok(self):
        self.assertEqual(verdicts([result(100, 1.0)] * 4, [result(130, 0.8)] * 4),
                         {"ops_per_s": "ok", "latency_p50_us": "ok"})

    def test_noisy_side_is_unresolved(self):
        base = [result(v, 1.0) for v in (60, 100, 140, 100)]
        new = [result(v, 1.0) for v in (85, 86, 85, 86)]
        self.assertEqual(verdicts(base, new)["ops_per_s"], "unresolved")

    def test_noisy_but_every_run_better_is_ok(self):
        base = [result(v, 1.0) for v in (60, 100, 140, 100)]
        new = [result(v, 1.0) for v in (150, 151, 152, 153)]
        self.assertEqual(verdicts(base, new)["ops_per_s"], "ok")


if __name__ == "__main__":
    unittest.main()
