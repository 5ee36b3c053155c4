#!/usr/bin/env python3
"""Verdict logic of scripts/e2e_ab.py on hand-written run results.

    python3 scripts/e2e_ab_test.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_ab  # noqa: E402

METRICS = [
    {"name": "audit_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "audit_rps", "better": "higher", "bound": 0.25},
]


def run(p50=1.0, rps=100.0, correct=True, failed=0, attempted=1000):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"audit_p50_ms": {"value": p50, "unit": "ms"},
                        "audit_rps": {"value": rps, "unit": "1/s"}}}


def verdict(base_runs, head_runs):
    return e2e_ab.compare(METRICS, base_runs, head_runs)[1]


class CompareTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        runs = [run(p50=1.0 + i / 10, rps=100.0 + i) for i in range(5)]
        self.assertEqual(verdict(runs, runs), [])

    def test_lower_is_better_bound(self):
        base = [run(p50=1.0)] * 5
        failures = verdict(base, [run(p50=1.3)] * 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("audit_p50_ms", failures[0])
        self.assertEqual(verdict(base, [run(p50=1.2)] * 5), [])
        self.assertEqual(verdict(base, [run(p50=0.5)] * 5), [])

    def test_higher_is_better_bound(self):
        base = [run(rps=100.0)] * 5
        failures = verdict(base, [run(rps=70.0)] * 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("audit_rps", failures[0])
        self.assertEqual(verdict(base, [run(rps=80.0)] * 5), [])
        self.assertEqual(verdict(base, [run(rps=200.0)] * 5), [])

    def test_median_not_mean(self):
        base = [run(p50=1.0)] * 5
        head = [run(p50=1.0)] * 3 + [run(p50=9.0)] * 2
        self.assertEqual(verdict(base, head), [])

    def test_incorrect_run_fails_on_either_side(self):
        good = [run()] * 5
        bad = [run()] * 4 + [run(correct=False)]
        self.assertNotEqual(verdict(bad, good), [])
        self.assertNotEqual(verdict(good, bad), [])

    def test_run_without_result_fails(self):
        crashed = {"correct": False, "error": "exit code 1"}
        failures = verdict([run()] * 5, [run()] * 4 + [crashed])
        self.assertTrue(any("exit code 1" in f for f in failures))

    def test_failed_share(self):
        base = [run(failed=203, attempted=49111)] * 5
        larger = [run(failed=204, attempted=49111)] * 5
        smaller = [run(failed=0, attempted=49111)] * 5
        self.assertNotEqual(verdict(base, larger), [])
        self.assertEqual(verdict(base, smaller), [])
        # The same share over more rounds is not larger.
        self.assertEqual(
            verdict(base, [run(failed=406, attempted=98222)] * 5), [])


if __name__ == "__main__":
    unittest.main()
