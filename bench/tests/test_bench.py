"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench/tests -v

The traced-workload tests run each workload once traced (about a minute on a
2-CPU machine, most of it the qr48 sweeps).
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import sys
import tempfile
import time
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = run.ROOT / ".bench_out" / "tests"


def scratch_dir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


class CompareRuleTest(unittest.TestCase):
    parent = [10.0, 10.2, 10.1, 9.9, 10.3, 10.0, 9.8, 10.1, 10.2, 10.0]

    def test_clear_gain(self):
        change = [v - 1.0 for v in self.parent]
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], stats.GAIN)

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [v - 1.0 for v in self.parent[:8]] + [v + 0.5 for v in self.parent[8:]]
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], stats.WITHIN)

    def test_every_pair_won_but_inside_parent_iqr_is_no_gain(self):
        change = [v - 0.01 for v in self.parent]
        row = stats.compare(self.parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], stats.WITHIN)

    def test_regression_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.compare(self.parent, change, "lower", 0.1)["verdict"],
                         stats.REGRESSION)
        self.assertEqual(stats.compare(self.parent, change, "lower", 0.25)["verdict"],
                         stats.WITHIN)

    def test_wide_parent_spread_is_unresolved(self):
        parent = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        change = [v * 1.05 for v in reversed(parent)]
        self.assertEqual(stats.compare(parent, change, "lower", 0.1)["verdict"],
                         stats.UNRESOLVED)

    def test_wide_spread_but_every_run_better_is_resolved(self):
        parent = [10.0] * 5 + [14.0] * 5
        change = [9.9] * 10
        row = stats.compare(parent, change, "lower", 0.1)
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], stats.WITHIN)

    def test_higher_is_better(self):
        change = [v + 1.0 for v in self.parent]
        self.assertEqual(stats.compare(self.parent, change, "higher", 0.1)["verdict"],
                         stats.GAIN)
        self.assertEqual(stats.compare(change, self.parent, "higher", 0.05)["verdict"],
                         stats.REGRESSION)

    def test_change_failing_every_run_is_a_regression(self):
        change = [math.nan] * 10
        row = stats.compare(self.parent, change, "lower", 0.25)
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["verdict"], stats.REGRESSION)
        self.assertEqual(stats.compare(self.parent, change, "higher", 0.25)["verdict"],
                         stats.REGRESSION)

    def test_one_failed_change_run_is_a_regression_despite_wins(self):
        change = [v - 1.0 for v in self.parent[:9]] + [math.nan]
        self.assertEqual(stats.compare(self.parent, change, "lower", 0.1)["verdict"],
                         stats.REGRESSION)

    def test_failed_parent_run_leaves_the_metric_unresolved(self):
        parent = self.parent[:9] + [math.nan]
        change = [v - 1.0 for v in self.parent]
        row = stats.compare(parent, change, "lower", 0.1)
        self.assertEqual(row["verdict"], stats.UNRESOLVED)
        self.assertEqual(row["parent"]["median"], statistics.median(self.parent[:9]))

    def test_unpaired_input_is_refused(self):
        with self.assertRaises(ValueError):
            stats.compare([1.0], [1.0, 2.0], "lower", 0.1)


class CompareWorkloadTest(unittest.TestCase):
    """compare_workload on stubbed runs: a change that fails every run."""

    def test_change_failing_every_run_is_reported_as_regression(self):
        spec = run.load_spec()

        def fake_measure(src, workload, seed, seconds, trace):
            self.assertEqual(seconds, spec["run_seconds"])
            if src.parent.name == "change":
                return {"failed": 1, "metrics": {"success_rate": 0.0}}
            metrics = {"wall_s": 2.0 + seed / 100, "cpu_s": 2.0, "setup_s": 0.1,
                       "peak_rss_mb": 24.0, "success_rate": 1.0}
            return {"failed": 0, "metrics": metrics}

        with scratch_dir() as tmp, \
                mock.patch.object(compare.run, "measure", fake_measure):
            res = compare.compare_workload(Path(tmp, "parent"), Path(tmp, "change"),
                                           "paper", 1, spec)
        self.assertEqual(res["failed"], {"parent": 0, "change": compare.PAIRS})
        for m in spec["end_to_end"]:
            self.assertEqual(res["rows"][m["name"]]["pairs"], compare.PAIRS)
            self.assertEqual(res["rows"][m["name"]]["verdict"], stats.REGRESSION,
                             m["name"])


class MeasureTest(unittest.TestCase):
    """measure on a stand-in package whose output is always wrong."""

    def test_every_sample_failing_still_reports_success_rate(self):
        with scratch_dir() as tmp:
            pkg = Path(tmp, "typeii")
            pkg.mkdir()
            (pkg / "__init__.py").write_text("")
            (pkg / "cli.py").write_text("def main(argv):\n    print('wrong')\n"
                                        "    return 0\n")
            record = run.measure(Path(tmp), "paper", 1, 0.1, trace=0)
        self.assertGreaterEqual(record["attempted"], 1)
        self.assertEqual(record["failed"], record["attempted"])
        self.assertEqual(record["metrics"], {"success_rate": 0.0})
        self.assertNotIn("timings", record)
        self.assertIn("output differs from the reference", record["failures"])


class StatsTest(unittest.TestCase):
    def test_high_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.high_percentile([float(i) for i in range(19)]))
        self.assertEqual(stats.high_percentile([float(i) for i in range(20)]), (50, 9.0))
        self.assertEqual(stats.high_percentile([float(i) for i in range(200)])[0], 95)

    def test_single_sample_quartiles(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.spread([2.0]), 0.0)


class SpeedTest(unittest.TestCase):
    def test_scale_is_the_mean_speed_over_the_ticks(self):
        probe = speed.Probe()
        probe.ticks = [speed.REFERENCE_S, 2 * speed.REFERENCE_S]
        self.assertAlmostEqual(probe.scale(), 0.75)
        self.assertAlmostEqual(probe.spent(), 3 * speed.REFERENCE_S)

    def test_ticks_fire_inside_the_block_only(self):
        with speed.Probe() as probe:
            end = time.perf_counter() + 3.5 * speed.TICK_S
            while time.perf_counter() < end:
                pass
        fired = len(probe.ticks)
        self.assertGreaterEqual(fired, 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        time.sleep(2 * speed.TICK_S)
        self.assertEqual(len(probe.ticks), fired)

    def test_launch_scale_is_positive(self):
        self.assertGreater(speed.launch_scale(run.child_env(), 60), 0)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_per_layer_names_match_the_tracer(self):
        self.assertEqual([m["name"] for m in self.spec["per_layer"]],
                         tracer.layer_metric_names())

    def test_workload_names(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         workloads.NAMES)

    def test_zonal_grid_counts_and_seed_only_permutes(self):
        grid = workloads.zonal_grid(1)
        kinds = Counter(task[0] for task in grid)
        self.assertEqual(kinds["numeric"], workloads.ZONAL_NUMERIC_SUMS)
        self.assertEqual(kinds["symbolic"], workloads.ZONAL_SYMBOLIC_SUMS)
        other = workloads.zonal_grid(2)
        self.assertNotEqual(grid, other)
        self.assertEqual(sorted(grid, key=repr), sorted(other, key=repr))


class TracedWorkloadTest(unittest.TestCase):
    """One traced sample per workload, checked against the reference."""

    @classmethod
    def setUpClass(cls):
        cls.spans_dir = SCRATCH
        cls.spans_dir.mkdir(parents=True, exist_ok=True)
        src = run.ROOT / "src"
        cls.traced = {}
        for name in workloads.NAMES:
            cls.traced[name] = run.launch(
                src, name, 7, trace=1, spans=cls.spans_dir / f"{name}.jsonl",
                timeout=run.RUN_LIMIT_S)
        cls.untraced_paper = run.launch(src, "paper", 7, timeout=run.RUN_LIMIT_S)

    def test_traced_output_matches_the_untraced_reference(self):
        for name, rec in self.traced.items():
            self.assertTrue(rec["ok"], f"{name}: {rec.get('reason')}")
            self.assertEqual(rec["sha256"], workloads.REFERENCE_SHA256[name])
        self.assertTrue(self.untraced_paper["ok"])
        self.assertEqual(self.untraced_paper["sha256"], self.traced["paper"]["sha256"])

    def test_times_are_scaled_to_reference_speed(self):
        for rec in list(self.traced.values()) + [self.untraced_paper]:
            self.assertGreater(rec["ticks"], 0)
            self.assertAlmostEqual(
                rec["wall_s"], (rec["wall_raw_s"] - rec["tick_s"]) * rec["scale"])
            self.assertAlmostEqual(
                rec["cpu_s"], (rec["cpu_raw_s"] - rec["tick_s"]) * rec["scale"])
            self.assertAlmostEqual(rec["setup_s"],
                                   rec["setup_raw_s"] * rec["launch_scale"])

    def test_every_wrapped_function_is_hit(self):
        for span, _, _ in tracer.TARGETS:
            hits = {name: rec["layers"][f"{span}.calls"]
                    for name, rec in self.traced.items()}
            self.assertTrue(any(hits.values()), f"{span} never called: {hits}")

    def test_layers_predicted_absent_record_zero_calls(self):
        absent = {
            "zonal-gate": [s for s, _, _ in tracer.TARGETS
                           if s.startswith("gf2.") or s == "catalog.resolve"],
            "qr48": ["harmonic.sphere_sum", "harmonic.sphere_sum_symbolic"],
            "paper": ["harmonic.sphere_sum", "harmonic.sphere_sum_symbolic"],
        }
        for name, spans in absent.items():
            for span in spans:
                self.assertEqual(self.traced[name]["layers"][f"{span}.calls"], 0,
                                 f"{span} on {name}")

    def test_spans_file_has_parent_links(self):
        with open(self.spans_dir / "paper.jsonl", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        ids = {s["id"]: s for s in spans}
        self.assertEqual(spans[0]["name"], "cli.main")
        for s in spans[1:]:
            parent = ids[s["parent"]]
            self.assertLessEqual(parent["start_ns"], s["start_ns"])
            self.assertLessEqual(s["end_ns"], parent["end_ns"])
        calls = Counter(s["name"] for s in spans)
        layers = self.traced["paper"]["layers"]
        for span, _, _ in tracer.TARGETS:
            self.assertEqual(calls[span], layers[f"{span}.calls"])


if __name__ == "__main__":
    unittest.main()
