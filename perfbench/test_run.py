#!/usr/bin/env python3
"""Tests of the benchmark's own reduction logic (no build needed).

Run from anywhere:  python3 perfbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def raw_run(workload="plonky2-factorial", seed=7, trace=0, failures=(),
            attempted=4, fingerprint="00000000000000aa"):
    """A synthetic perfbench_bin document holding every raw key."""
    spec = load_spec()
    samples = {
        "prove_s": [1.0, 2.0, 3.0],
        "traced_prove_s": [2.2, 2.2],
        "verify_s": [0.1, 0.3, 0.2],
        "request_ms": [float(i) for i in range(1, 101)],
        "setup_s": [0.5, 0.4, 0.6],
    }
    values = {m["name"]: 1.5 for m in spec["per_layer"]}
    values.update({"throughput_rps": 2.0, "proof_bytes": 100.0,
                   "sim_cycles": 1000.0})
    values.pop("obs.trace_overhead_ratio")
    return {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "attempted": attempted, "failed": len(failures),
        "failures": list(failures), "fingerprint": fingerprint,
        "peak_rss_mb": 42.0, "samples": samples, "values": values,
    }


EXPECTED = {"default_seed": 1, "simd": "avx2",
            "fingerprints": {"plonky2-factorial": "00000000000000aa"}}


class QuantileTest(unittest.TestCase):
    def test_exact_order_statistics(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.quantile(xs, 0.0), 1.0)
        self.assertEqual(run.quantile(xs, 0.5), 3.0)
        self.assertEqual(run.quantile(xs, 1.0), 5.0)

    def test_interpolates_between_samples(self):
        self.assertAlmostEqual(run.median([1.0, 2.0, 3.0, 10.0]), 2.5)
        xs = [float(i) for i in range(1, 101)]
        self.assertAlmostEqual(run.quantile(xs, 0.95), 95.05)
        self.assertAlmostEqual(run.quantile(xs, 0.99), 99.01)

    def test_single_sample_and_bad_input(self):
        self.assertEqual(run.quantile([7.0], 0.95), 7.0)
        with self.assertRaises(ValueError):
            run.quantile([], 0.5)
        with self.assertRaises(ValueError):
            run.quantile([1.0], 1.5)

    def test_not_a_log2_bucket_estimate(self):
        # A histogram with power-of-two buckets would put 100..127 in
        # one bucket; the exact p50 of these samples is 110.
        xs = [100.0, 105.0, 110.0, 115.0, 127.0]
        self.assertEqual(run.quantile(xs, 0.5), 110.0)


class FailureAccountingTest(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result, _ = run.reduce_run(raw_run(), load_spec(), EXPECTED, 1)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))

    def test_failed_operation_makes_run_incorrect(self):
        result, lines = run.reduce_run(
            raw_run(failures=["proof did not verify"]), load_spec(),
            EXPECTED, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("error_rate" in l and "1 of 4" in l
                            for l in lines))
        self.assertTrue(any("proof did not verify" in l for l in lines))

    def test_fingerprint_pinned_only_at_default_seed(self):
        bad = "00000000000000bb"
        result, _ = run.reduce_run(raw_run(seed=1, fingerprint=bad),
                                   load_spec(), EXPECTED, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        result, _ = run.reduce_run(raw_run(seed=2, fingerprint=bad),
                                   load_spec(), EXPECTED, 1)
        self.assertTrue(result["correct"])

    def test_nothing_attempted_is_a_failure(self):
        result, _ = run.reduce_run(raw_run(attempted=0), load_spec(),
                                   EXPECTED, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_missing_metric_is_an_error_unless_not_exercised(self):
        raw = raw_run(trace=1)
        del raw["values"]["service.queued_ms"]  # not exercised: 0
        result, _ = run.reduce_run(raw, load_spec(), EXPECTED, 1)
        self.assertEqual(result["metrics"]["service.queued_ms"]["value"],
                         0.0)
        del raw["values"]["fri.pow_s"]
        with self.assertRaises(KeyError):
            run.reduce_run(raw, load_spec(), EXPECTED, 1)


class MetricNameTest(unittest.TestCase):
    def test_spec_names_and_units(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in spec[section]:
                self.assertRegex(m["name"], run.NAME_RE)
                self.assertRegex(m["unit"], run.UNIT_RE)
                self.assertIn(m["better"], ("lower", "higher"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for w in spec["workloads"]:
            self.assertRegex(w["name"], run.NAME_RE)
            self.assertIn(w["name"], run.NOT_EXERCISED)

    def test_end_to_end_bounds(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_reported_names_match_the_spec(self):
        spec = load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.reduce_run(raw_run(trace=trace), spec,
                                       EXPECTED, 1)
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in spec[section]))
            json.dumps(result)  # serializable as the last output line

    def test_binary_keys_use_the_charset(self):
        with open(os.path.join(run.HERE, "perfbench.cpp")) as fh:
            source = fh.read()
        keys = re.findall(r'raw\.(?:add|set)\(\s*"([^"]+)"', source)
        keys += re.findall(r'\{"([a-z_.]+_s)",', source)
        self.assertTrue(keys)
        for key in keys:
            self.assertRegex(key, run.NAME_RE)


if __name__ == "__main__":
    unittest.main()
