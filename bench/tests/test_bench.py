"""Tests of the benchmark itself (not of the engine).

Run from the root of a checkout:

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in SPEC["workloads"]]


def inputs(workload) -> dict:
    """Everything a workload drew from its seed, in comparable form."""
    out = {}
    for attr in ("checks", "solves"):
        if hasattr(workload, attr):
            out[attr] = getattr(workload, attr)
    if hasattr(workload, "entries"):
        out["algebras"] = [(key, alg.universe, alg.tables) for key, alg, _, _ in workload.entries]
    if hasattr(workload, "instances"):
        out["instances"] = {
            name: [(str(rule), q) for rule, q in items]
            for name, items in workload.instances.items()
        }
    return out


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TestGenerators(unittest.TestCase):
    def setUp(self):
        self.m = run.fresh_import()

    def test_deterministic_per_seed(self):
        for name in NAMES:
            with self.subTest(workload=name):
                cls = w.WORKLOADS[name]
                first = inputs(cls(self.m, 7, tiny=False))
                self.assertEqual(first, inputs(cls(self.m, 7, tiny=False)))
                self.assertNotEqual(first, inputs(cls(self.m, 8, tiny=False)))

    def test_shape_counts_match_across_seeds(self):
        for name in NAMES:
            with self.subTest(workload=name):
                shapes = []
                for seed in (1, 2):
                    rec = w.Recorder()
                    workload = w.WORKLOADS[name](self.m, seed, tiny=True)
                    result = workload.run_round(rec)
                    self.assertEqual(rec.failures, [])
                    shapes.append((result.shape, result.rule_checks, getattr(workload, "rules", 0)))
                self.assertEqual(shapes[0], shapes[1])

    def test_wrong_verdict_is_a_failure(self):
        workload = w.BundledSweeps(self.m, 1, tiny=True)
        ref = workload.ref["algebras"]["EAABB"]
        ref["verdicts"] = "".join("m" if c != "m" else "c" for c in ref["verdicts"])
        rec = w.Recorder()
        workload.run_round(rec)
        self.assertGreater(rec.failed, 0)
        self.assertLess(rec.failed, rec.attempted)

    def test_stress_references_cover_every_size(self):
        keys = set(w.load_reference("stress"))
        for sizes in (w.UNARY_WIDE, w.BINARY_DEEP):
            self.assertLessEqual(set(sizes["full"] + sizes["tiny"]), keys)


class TestSmokeRuns(unittest.TestCase):
    """Tiny runs of every workload, untraced and traced."""

    def test_metric_names_and_failed_share(self):
        for name in NAMES:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                                 "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in listed})
                    if trace == 0:
                        self.assertIn("metric failed_share 0 ratio", proc.stdout)
                        for metric in listed:
                            self.assertIn(f"metric {metric['name']} ", proc.stdout)

    def test_refuses_to_run_without_the_engine(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
