"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The accounting tests need nothing built. The driver tests build the
driver on first use (as run.py does) and run each workload at its tiny
smoke size.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics as M  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def deterministic_view(trial):
    """The part of a trial that depends only on its sub-seed: every
    simulated-time output, none of the wall-clock ones."""
    keys = ("input_digest", "ops", "lat_us", "sink_mean_us", "traffic",
            "counts", "violations", "stores", "clients", "objects")
    return json.dumps({k: trial[k] for k in keys}, sort_keys=True)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_definitions(self):
        spec = load_benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(M.WORKLOADS))
        for key, table in (("end_to_end", M.END_TO_END),
                           ("per_layer", M.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.assertEqual(listed, table, key)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertLessEqual(len(spec["per_layer"]), 128)

    def test_bounds(self):
        spec = load_benchmark_json()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class AccountingTest(unittest.TestCase):
    def test_nearest_rank_with_beyond_count(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(M.percentile(samples, 50), (50, 50))
        self.assertEqual(M.percentile(samples, 99), (99, 1))

    def test_failed_ops_sort_as_infinity(self):
        samples = [1.0] * 95 + [None] * 5
        value, beyond = M.percentile(samples, 99)
        self.assertTrue(math.isinf(value))
        self.assertEqual(beyond, 1)
        self.assertEqual(M.percentile(samples, 50)[0], 1.0)

    def test_percentile_needs_ten_samples_beyond(self):
        trial = {"lat_us": {"read": [1000] * 500, "write": [2000] * 2000,
                            "visible": [3000] * 2000},
                 "ops": {"attempted": 4500, "failed": 0},
                 "wall": {"drive_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
                 "traffic": {"net_msgs": 1, "net_bytes": 1}}
        _, notes = M.end_to_end([trial], [trial])
        self.assertEqual([n.split(":")[0] for n in notes], ["read_p99_ms"])

    def test_failure_above_one_percent_flags_p99(self):
        lat = [1000] * 1960 + [-1] * 40
        trial = {"lat_us": {"read": lat, "write": lat, "visible": lat},
                 "ops": {"attempted": 6000, "failed": 120},
                 "wall": {"drive_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
                 "traffic": {"net_msgs": 1, "net_bytes": 1}}
        values, notes = M.end_to_end([trial], [trial])
        self.assertIn("read_p99_ms", " ".join(notes))
        self.assertEqual(values["read_p50_ms"], 1.0)
        self.assertAlmostEqual(values["ops_per_s"], 5880.0)

    def test_self_time_subtracts_direct_children(self):
        events = [
            {"name": "root", "dur": 100.0, "args": {"id": 1, "parent": 0}},
            {"name": "a", "dur": 30.0, "args": {"id": 2, "parent": 1}},
            {"name": "b", "dur": 10.0, "args": {"id": 3, "parent": 2}},
            {"name": "a", "dur": 20.0, "args": {"id": 4, "parent": 1}},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"traceEvents": events}, f)
        try:
            st = M.self_times(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(st["root"], [50.0, 1])
        self.assertEqual(st["a"], [40.0, 2])
        self.assertEqual(st["b"], [10.0, 1])


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir(ROOT)
        cls.binary = run.build(ROOT, cls.out)

    def trial(self, workload, seed):
        return run.run_trial(self.binary, workload, seed, "tiny")

    def test_same_seed_reproduces_deterministic_outputs(self):
        for w in M.WORKLOADS:
            a, b = self.trial(w, 5), self.trial(w, 5)
            self.assertEqual(deterministic_view(a), deterministic_view(b), w)
            self.assertEqual(a["violations"], [], w)

    def test_different_seeds_give_different_inputs(self):
        for w in M.WORKLOADS:
            self.assertNotEqual(self.trial(w, 5)["input_digest"],
                                self.trial(w, 6)["input_digest"], w)

    def test_reports_unchecked_build(self):
        build = self.trial("hot_object", 1)["build"]
        self.assertFalse(build["globe_checked"])
        self.assertEqual(build["build_type"], "Release")

    def smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--size", "tiny"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        expected = M.PER_LAYER if trace else M.END_TO_END
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], expected[name][0])
            self.assertTrue(math.isfinite(m["value"]), name)
        return result

    def test_smoke_every_workload_untraced(self):
        for w in M.WORKLOADS:
            with self.subTest(workload=w):
                r = self.smoke(w, 0)
                for name in M.END_TO_END:
                    self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_smoke_every_workload_traced(self):
        for w in M.WORKLOADS:
            with self.subTest(workload=w):
                r = self.smoke(w, 1)
                self.assertGreater(r["metrics"]["sim.drive_s"]["value"], 0)
                self.assertGreater(
                    r["metrics"]["replication.client.issue_us"]["value"], 0)

    def test_churn_faults_bite(self):
        c = self.trial("churn", 5)["counts"]
        for key in ("crashes", "evictions", "rebinds", "delta_transfers"):
            self.assertGreater(c[key], 0, key)


if __name__ == "__main__":
    unittest.main()
