"""Smoke tests of the benchmark itself.

Run from the checkout root with

    python3 -m unittest discover -s perfbench/tests

They use the ``--smoke`` sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class MetricsPrinted(unittest.TestCase):
    def check_result(self, trace: int, metrics: list):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                res = bench(workload["name"], trace)
                self.assertEqual(res.returncode, 0, res.stderr)
                result = json.loads(res.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], res.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(
                    result["metrics"],
                    {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                     for m in metrics},
                )
                self.assertIn("# fail_frac: 0/", res.stdout)
                for m in metrics:
                    self.assertRegex(res.stdout, rf"# {m['name']} +\S+ {m['unit']}\n")

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self.check_result(0, SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_result(1, SPEC["per_layer"])


class FailuresCounted(unittest.TestCase):
    def setUp(self):
        (BENCH / ".work").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
        self.addCleanup(shutil.rmtree, self.tmp)
        self.ledger = run.Ledger()
        self.invocations = workloads.SMOKE_WORKLOADS["fpp-growth"]
        rep = run.run_rep(self.invocations, 5, self.tmp / "rep", run.child_env(ROOT / "src"),
                          self.ledger, "rep 0")
        self.assertTrue(rep["ok"], self.ledger.problems)
        self.assertEqual((self.ledger.attempted, self.ledger.failed), (3, 0))

    def record_again(self, index: int, code: int = 0) -> bool:
        kind, opts = self.invocations[index]
        return self.ledger.record(index, kind, opts, self.tmp / "rep" / f"{index}-{kind}",
                                  code, "rep 1")

    def test_unchanged_output_passes_again(self):
        self.assertTrue(self.record_again(1))
        self.assertEqual((self.ledger.attempted, self.ledger.failed), (4, 0))

    def test_nonzero_exit_counts(self):
        self.assertFalse(self.record_again(2, code=3))
        self.assertEqual(self.ledger.failed, 1)

    def test_failed_check_counts(self):
        path = self.tmp / "rep" / "1-idla" / "idla_roundness.csv"
        lines = path.read_text().splitlines()
        n, rin, rout = lines[-1].split(",")
        lines[-1] = f"{n},{rin},{float(rin) * 1.2}"
        path.write_text("\n".join(lines) + "\n")
        self.assertFalse(self.record_again(1))
        self.assertIn("roundness ratio", self.ledger.problems[-1])

    def test_changed_bytes_count(self):
        path = self.tmp / "rep" / "2-eden" / "eden_trace.csv"
        path.write_text(path.read_text() + "\n")  # still a valid trace
        self.assertFalse(self.record_again(2))
        self.assertIn("eden_trace.csv differs", self.ledger.problems[-1])

    def test_missing_file_counts(self):
        (self.tmp / "rep" / "2-eden" / "eden_trace.csv").unlink()
        self.assertFalse(self.record_again(2))
        self.assertIn("missing eden_trace.csv", self.ledger.problems[-1])


class ReferenceLoop(unittest.TestCase):
    def test_loop_does_the_same_work(self):
        # a changed loop would rescale every timed metric of every workload
        self.assertAlmostEqual(reference._unit(), 9062.49442271476, places=6)

    def test_sample_is_a_positive_time(self):
        self.assertGreater(reference.unit_seconds(units=1), 0.0)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        (BENCH / ".work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, tmp / BENCH.name, ignore=shutil.ignore_patterns(".work"))
            res = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload", "fpp-growth", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()
