#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke sizes (about a minute).

    python3 e2ebench/test_e2ebench.py

Builds the benchmark through run.py if needed, then checks that
  * every metric BENCHMARK.json names is printed, with its unit, by every
    workload (end-to-end metrics untraced, per-layer metrics traced);
  * an injected output mismatch is counted as a failed op, never passed;
  * the traced run's spans cover each traced op, leaving at most 10% of the
    traced ops' wall time unattributed;
  * a variable that changes the measured program makes the run refuse.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["outsource_cold", "append_stream", "restart_resume"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result(run(workload, trace))
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, expected)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_human_table_has_units_and_counts(self):
        out = run("append_stream", 0).stdout
        for name in ["setup_s", "op_ms_p50", "op_ms_mean", "peak_rss_mb",
                     "ops_failed_frac", "batch_ms_p50", "disk_bytes_per_cell",
                     "op_ms_tail"]:
            self.assertRegex(out, r"\n  %s +\S+ +\S+ +n=\d+" % re.escape(name))


class InjectedMismatch(unittest.TestCase):
    def test_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--inject-mismatch")
                r = result(proc)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("MISMATCH", proc.stdout)
                frac = re.search(r"ops_failed_frac +(\S+)", proc.stdout)
                self.assertGreater(float(frac.group(1)), 0.0)


class TracedSpans(unittest.TestCase):
    def test_spans_cover_each_op(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 1)
                r = result(proc)
                path = re.search(r"written to (\S+)", proc.stdout).group(1)
                with open(os.path.join(ROOT, path)) as f:
                    events = json.load(f)["traceEvents"]
                roots = [e for e in events if e["args"]["parent"] < 0]
                # A traced run traces ops 0, 3, 4, 7, 8, ...: half of them.
                traced = [i for i in range(r["attempted"]) if (i + i // 2) % 2 == 0]
                self.assertEqual(sorted(e["args"]["op"] for e in roots), traced)
                op_us = 0.0
                unattributed_us = 0.0
                for root in roots:
                    children = [e for e in events
                                if e["args"]["parent"] == root["args"]["span"]]
                    self.assertTrue(children, root)
                    op_us += root["dur"]
                    unattributed_us += root["dur"] - sum(e["dur"] for e in children)
                self.assertLessEqual(unattributed_us, 0.10 * op_us)
                self.assertIn("obs.trace_overhead_frac", r["metrics"])


class Refusals(unittest.TestCase):
    def test_environment_that_changes_the_program(self):
        for var in ["DPE_TRACE", "DPE_FAULT", "DPE_KERNEL_BACKEND",
                    "DPE_TELEMETRY_PORT"]:
            with self.subTest(var=var):
                env = dict(os.environ, **{var: "1"})
                proc = run("restart_resume", 0, env=env)
                self.assertNotEqual(proc.returncode, 0)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
