"""Tests of run.py's result-schema check and compare.py's labelling.

    python3 -m unittest discover -s perfbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = {
    "workloads": [{"name": "small", "why": "x"}],
    "end_to_end": [
        {"name": "max_qps_at_slo", "unit": "req/s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "serve.shed", "unit": "count", "better": "lower"}],
}


def result(**metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


class ValidateTest(unittest.TestCase):
    def test_accepts_exact_end_to_end_set(self):
        r = result(max_qps_at_slo=(100.0, "req/s"), setup_s=(0.5, "s"))
        self.assertEqual(run.validate(r, SPEC, trace=0), [])

    def test_traced_run_reports_per_layer_metrics(self):
        self.assertEqual(run.validate(result(**{"serve.shed": (0, "count")}), SPEC, trace=1), [])
        self.assertTrue(run.validate(result(setup_s=(0.5, "s")), SPEC, trace=1))

    def test_rejects_missing_metric_wrong_unit_and_null(self):
        self.assertTrue(run.validate(result(setup_s=(0.5, "s")), SPEC, trace=0))
        r = result(max_qps_at_slo=(100.0, "1/s"), setup_s=(0.5, "s"))
        self.assertTrue(run.validate(r, SPEC, trace=0))
        r = result(max_qps_at_slo=(None, "req/s"), setup_s=(0.5, "s"))
        self.assertTrue(run.validate(r, SPEC, trace=0))

    def test_rejects_extra_keys_and_bad_counts(self):
        r = result(max_qps_at_slo=(1.0, "req/s"), setup_s=(0.5, "s"))
        r["host"] = "x"
        self.assertTrue(run.validate(r, SPEC, trace=0))
        r = result(max_qps_at_slo=(1.0, "req/s"), setup_s=(0.5, "s"))
        r["attempted"] = 0
        self.assertTrue(run.validate(r, SPEC, trace=0))


def record(host, qps, setup):
    return {"workload": "small", "trace": 0, "provenance": {"host": host},
            "result": result(max_qps_at_slo=(qps, "req/s"), setup_s=(setup, "s"))}


class CompareTest(unittest.TestCase):
    def labels(self, base, new):
        return {name: label for _, name, label, _, _ in compare.compare(base, new, SPEC)}

    def test_foreign_host_is_not_compared(self):
        base = [record("a x4", 1000, 1.0)] * 3
        new = [record("b x8", 500, 3.0)] * 3
        self.assertEqual(self.labels(base, new), {"max_qps_at_slo": "foreign", "setup_s": "foreign"})

    def test_noise_regression_and_better(self):
        base = [record("h", q, s) for q, s in ((900, 1.0), (1000, 1.0), (1100, 1.0), (1000, 1.0))]
        self.assertEqual(self.labels(base, [record("h", 1050, 1.0)])["max_qps_at_slo"], "noise")
        labels = self.labels(base, [record("h", 700, 0.5)])
        self.assertEqual(labels["max_qps_at_slo"], "regression")
        self.assertEqual(labels["setup_s"], "better")


if __name__ == "__main__":
    unittest.main()
