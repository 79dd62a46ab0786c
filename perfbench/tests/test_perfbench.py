"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. Covers the metric-list check, the digest check,
the steadiness statistics, BENCHMARK.json's limits, and (after building) the
C++ self-test: quartiles, the percentile rule and a tiny campaign's digest.
"""

import json
import re
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import steadiness  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((run.HERE / "expected.json").read_text())


class MetricListCheck(unittest.TestCase):
    expected = ["runs_per_s", "setup_s", "peak_rss_mb"]

    def test_exact_list_passes_in_any_order(self):
        printed = ["setup_s", "peak_rss_mb", "runs_per_s"]
        self.assertIsNone(run.check_metric_names(printed, self.expected))

    def test_missing_metric_fails(self):
        problem = run.check_metric_names(["runs_per_s", "setup_s"],
                                         self.expected)
        self.assertIn("missing peak_rss_mb", problem)

    def test_extra_metric_fails(self):
        problem = run.check_metric_names(self.expected + ["hits"],
                                         self.expected)
        self.assertIn("unexpected hits", problem)

    def test_duplicate_metric_fails(self):
        problem = run.check_metric_names(self.expected + ["setup_s"],
                                         self.expected)
        self.assertIn("duplicated setup_s", problem)

    def test_lists_come_from_benchmark_json(self):
        self.assertEqual(run.expected_metric_names(SPEC, 0),
                         [m["name"] for m in SPEC["end_to_end"]])
        self.assertEqual(run.expected_metric_names(SPEC, 1),
                         [m["name"] for m in SPEC["per_layer"]])


class DigestCheck(unittest.TestCase):
    def test_match_and_mismatch(self):
        recorded = {"a": "00000001/10"}
        self.assertEqual(run.check_digests({"a": "00000001/10"}, recorded),
                         [])
        self.assertEqual(len(run.check_digests({"a": "00000002/10"},
                                               recorded)), 1)
        self.assertEqual(len(run.check_digests({}, recorded)), 1)
        self.assertEqual(len(run.check_digests({"a": "00000001/10",
                                                "b": "x"}, recorded)), 1)

    def test_every_workload_has_recorded_digests(self):
        for workload in SPEC["workloads"]:
            self.assertTrue(EXPECTED[workload["name"]], workload["name"])


class SteadinessStatistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5, 1, 9, 3, 7, 2]
        self.assertEqual(statistics.quantiles(values, n=4), [1.75, 4.0, 7.5])
        self.assertAlmostEqual(steadiness.spread(values), (7.5 - 1.75) / 4.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(steadiness.worse_by(10, 8, "higher"), 0.2)
        self.assertAlmostEqual(steadiness.worse_by(10, 8, "lower"), -0.2)


class BenchmarkJson(unittest.TestCase):
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, self.name)
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class CppSelfTest(unittest.TestCase):
    def test_selftest_and_tiny_digest(self):
        run.build()
        done = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, "C++ self-test failed")
        name, digest = done.stdout.split()
        self.assertEqual(run.check_digests({name: digest}, EXPECTED["tiny"]),
                         [])


if __name__ == "__main__":
    unittest.main()
