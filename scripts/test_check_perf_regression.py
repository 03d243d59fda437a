"""Tests of the perf regression gate, scripts/check_perf_regression.py.

    python3 scripts/test_check_perf_regression.py

Each case feeds the gate a small document shaped like hostbench/run.py's
stdout, measured against the committed baseline (ctest runs this).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "check_perf_regression.py")
METRIC = "arabic-filter.runtime.ns_per_idx"
RSS_METRIC = "stokes-cache.rss_peak_mb"
with open(os.path.join(HERE, "..", "bench", "perf_baseline.json")) as f:
    _baseline = json.load(f)
BASELINE = _baseline["idxs_per_cpu_s"]
RSS_BASELINE = _baseline["rss_peak_mb"]


class PerfGateTest(unittest.TestCase):
    def gate(self, idxs_per_cpu_s=BASELINE, correct=True, metric=METRIC,
             rss_peak_mb=RSS_BASELINE, rss_metric=RSS_METRIC):
        """Run the gate on a run at @p idxs_per_cpu_s and @p rss_peak_mb;
        return its exit code, its stderr and the summary it wrote (None
        if none)."""
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "hostbench.out")
            delta = os.path.join(tmp, "perf_gate.json")
            metrics = {metric: {"value": 1e9 / idxs_per_cpu_s, "unit": "ns"},
                       rss_metric: {"value": rss_peak_mb, "unit": "MB"},
                       "arabic-filter.run_wall_s": {"value": 2.0, "unit": "s"}}
            with open(out, "w") as f:
                f.write("arabic-filter.run_wall_s 2 s\n")
                f.write(json.dumps({"correct": correct, "attempted": 36,
                                    "failed": 0 if correct else 1,
                                    "metrics": metrics}) + "\n")
            proc = subprocess.run(
                [sys.executable, GATE, out, "--delta-out", delta],
                capture_output=True, text=True)
            summary = None
            if os.path.exists(delta):
                with open(delta) as f:
                    summary = json.load(f)
        return proc.returncode, proc.stderr, summary

    def test_at_the_baseline_passes(self):
        code, err, summary = self.gate()
        self.assertEqual(code, 0, err)
        self.assertTrue(summary["pass"])

    def test_21_percent_under_the_baseline_fails(self):
        code, err, summary = self.gate(BASELINE * 0.79)
        self.assertEqual(code, 1, err)
        self.assertFalse(summary["pass"])

    def test_an_incorrect_run_fails_at_full_speed(self):
        code, err, summary = self.gate(correct=False)
        self.assertEqual(code, 1, err)
        self.assertFalse(summary["pass"])

    def test_a_missing_metric_is_bad_input(self):
        code, err, summary = self.gate(metric="stokes-cache.runtime.ns_per_idx")
        self.assertEqual(code, 2, err)
        self.assertIn(METRIC, err)
        self.assertIsNone(summary)

    def test_rss_9_percent_over_the_baseline_passes(self):
        code, err, summary = self.gate(rss_peak_mb=RSS_BASELINE * 1.09)
        self.assertEqual(code, 0, err)
        self.assertTrue(summary["pass"])

    def test_rss_11_percent_over_the_baseline_fails(self):
        code, err, summary = self.gate(rss_peak_mb=RSS_BASELINE * 1.11)
        self.assertEqual(code, 1, err)
        self.assertIn("peak RSS", err)
        self.assertFalse(summary["pass"])

    def test_a_missing_rss_metric_is_bad_input(self):
        code, err, summary = self.gate(rss_metric="arabic-filter.rss_peak_mb")
        self.assertEqual(code, 2, err)
        self.assertIn(RSS_METRIC, err)
        self.assertIsNone(summary)


if __name__ == "__main__":
    unittest.main()
