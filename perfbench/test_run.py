#!/usr/bin/env python3
"""Self-tests for the benchmark's own code.

    python3 perfbench/test_run.py

Covers run.py's percentile rule, error_rate accounting and output format,
and, once ssno_perf is built (any run.py invocation builds it), the
workload program's own failure accounting: an injected over-budget trial
and malformed server lines (ssno_perf selftest).
"""

import contextlib
import io
import json
import os
import subprocess
import unittest
from unittest import mock

import run

E2E, LAYERS = run.load_spec()[1:3]


def raw_record(**overrides):
    """A well-formed raw record, as ssno_perf prints it."""
    raw = {"attempted": 20, "failed": 0, "errors": [],
           "setup_s": [0.002, 0.001, 0.003], "latency_s": [0.4] * 20,
           "rate_samples": [45000.0] * 20, "moves": 18000.0,
           "rounds": 6000.0, "peak_rss_mb": 41.5,
           "samples": {"exp.graph_build_s": [1e-5, 2e-5, 3e-5]},
           "layers": {"pred.s": 3.5, "pred.share": 0.96,
                      "trace.overhead": 0.1}}
    raw.update(overrides)
    return raw


class PercentileRule(unittest.TestCase):
    def test_median_always_reported_with_count(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50), (2.0, 3))
        self.assertEqual(run.percentile([4.0, 1.0], 50), (2.5, 2))

    def test_no_samples(self):
        self.assertEqual(run.percentile([], 50), (None, 0))
        self.assertEqual(run.percentile([], 99), (None, 0))

    def test_tail_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 1001)]
        self.assertEqual(run.percentile(samples, 99), (990.0, 1000))
        self.assertEqual(run.percentile(samples[:999], 99), (None, 999))
        self.assertEqual(run.percentile(samples[:100], 90), (90.0, 100))
        self.assertEqual(run.percentile(samples[:99], 90), (None, 99))

    def test_unreportable_tail_is_zero_in_output(self):
        m = run.summarize(raw_record(), True, E2E, LAYERS)
        self.assertEqual(m["latency_s.p99"]["value"], 0.0)
        self.assertEqual(m["latency_s.n"]["value"], 20.0)


class ErrorAccounting(unittest.TestCase):
    def test_injected_failing_trial(self):
        raw = raw_record(attempted=10, failed=1,
                         errors=["trial seed 7 did not converge"])
        m = run.summarize(raw, True, E2E, LAYERS)
        self.assertAlmostEqual(m["error_rate"]["value"], 0.1)
        correct, line = run.result_line(raw, run.summarize(raw, False, E2E,
                                                           LAYERS))
        self.assertFalse(correct)
        out = json.loads(line)
        self.assertEqual((out["correct"], out["attempted"], out["failed"]),
                         (False, 10, 1))

    def test_clean_run_is_correct(self):
        correct, line = run.result_line(
            raw_record(), run.summarize(raw_record(), False, E2E, LAYERS))
        self.assertTrue(correct)
        self.assertTrue(json.loads(line)["correct"])

    @unittest.skipUnless(os.path.exists(run.BINARY), "ssno_perf not built")
    def test_program_counts_failed_trials_and_malformed_lines(self):
        proc = subprocess.run([run.BINARY, "selftest"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class OutputFormat(unittest.TestCase):
    def test_every_metric_named_and_with_unit(self):
        for trace, units in ((False, E2E), (True, LAYERS)):
            m = run.summarize(raw_record(), trace, E2E, LAYERS)
            self.assertEqual(set(m), set(units))
            for name, metric in m.items():
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertEqual(metric["unit"], units[name])
                self.assertTrue(metric["unit"])

    def test_result_line_keys(self):
        _, line = run.result_line(
            raw_record(), run.summarize(raw_record(), False, E2E, LAYERS))
        self.assertEqual(set(json.loads(line)),
                         {"correct", "attempted", "failed", "metrics"})

    def test_unknown_metric_rejected(self):
        raw = raw_record(layers={"not.in.spec": 1.0})
        with self.assertRaises(ValueError):
            run.summarize(raw, True, E2E, LAYERS)

    def test_bad_name_or_unit_rejected(self):
        with self.assertRaises(ValueError):
            run.check_format({"bad name": {"value": 1.0, "unit": "s"}})
        with self.assertRaises(ValueError):
            run.check_format({"ok.name": {"value": 1.0, "unit": ""}})
        with self.assertRaises(ValueError):
            run.check_format({"ok.name": {"value": float("nan"),
                                          "unit": "s"}})

    def test_run_length_defaults_to_spec(self):
        seconds = []

        def fake_run(workload, seed, secs, trace):
            seconds.append(secs)
            return raw_record()

        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_workload", fake_run), \
                contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.main(["--workload", "verify"]), 0)
            self.assertEqual(run.main(["--workload", "verify",
                                       "--seconds", "3"]), 0)
        self.assertEqual(seconds, [run.load_spec()[3], 3])

    def test_spec_names_are_valid(self):
        for name, unit in list(E2E.items()) + list(LAYERS.items()):
            self.assertRegex(name, run.NAME_RE)
            self.assertRegex(unit, run.UNIT_RE)


if __name__ == "__main__":
    unittest.main()
