"""The benchmark's own tests: its counts and checks must be trustworthy.

    python3 perfbench/check_bench.py

Runs in a few seconds. Not collected by the package's pytest suite, whose
testpaths is tests/.
"""

from __future__ import annotations

import os
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from run import tail  # noqa: E402
from tracer import span_stats  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORK = worker.ROOT / ".perfbench_work" / f"check-{os.getpid()}"

COUNT_METRICS = (
    "numeric.matmul.calls",
    "numeric.matmul.gflop",
    "numeric.softmax_rows.calls",
    "numeric.matrix_new.count",
    "sica.project_q.calls",
    "sica.siamese_attend.calls",
    "adablending.asi_layer.calls",
    "adablending.adain.calls",
    "adablending.adain.useful_ratio",
    "ddim.ddim_step.calls",
    "harness.render_mask_pgm.calls",
    "tensorio.save_tensor.calls",
    "tensorio.bytes_written",
)


def session(name: str, seed: int = 3) -> worker.Session:
    return worker.Session(WORKLOADS[name], seed, WORK / name)


def traced_layers(name: str) -> dict:
    _, layers = worker.traced_phase(session(name), 0.0, None)
    return layers


class BenchmarkChecks(unittest.TestCase):
    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORK, ignore_errors=True)

    def test_counts_repeat_across_traced_runs(self):
        for name in ("small_sweep", "mid_bypass"):
            first, second = traced_layers(name), traced_layers(name)
            for key in COUNT_METRICS:
                self.assertEqual(first[key], second[key], f"{name} {key}")
            self.assertGreater(first["numeric.matmul.calls"], 0)

    def test_traced_and_untraced_artifacts_are_identical(self):
        s = session("small_sweep")
        s.phase(0.0)
        untraced = dict(s.check.seen)
        self.assertEqual(len(untraced), len(WORKLOADS["small_sweep"].sweep))
        digests = {}
        original_check = s.check

        def record(label, report, out_dir):
            digests[label] = worker.manifest(out_dir)
            return original_check(label, report, out_dir)

        s.check = record
        worker.traced_phase(s, 0.0, None)
        self.assertEqual(digests, untraced)
        self.assertEqual(s.failed, 0)

    def test_bypass_does_no_blend_work(self):
        layers = traced_layers("mid_bypass")
        self.assertEqual(layers["adablending.adain.calls"], 0)
        self.assertEqual(layers["adablending.blend.self_s"], 0)
        self.assertEqual(layers["adablending.asi_layer.calls"], 0)
        self.assertGreater(layers["adablending.head_distances.self_s"], 0)

    def test_tracer_restores_every_attribute(self):
        modules = (worker.cli, worker.harness, worker.adablending, worker.sica)
        before = [dict(vars(m)) for m in modules]
        init = worker.numeric.Matrix.__init__
        traced_layers("small_sweep")
        self.assertEqual([dict(vars(m)) for m in modules], before)
        self.assertIs(worker.numeric.Matrix.__init__, init)

    def test_self_time_excludes_children(self):
        spans = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)]
        stats = span_stats(spans)
        self.assertEqual(stats["outer"], {"calls": 1, "total_s": 10.0, "self_s": 6.0})
        self.assertEqual(stats["inner"]["calls"], 2)
        self.assertEqual(stats["inner"]["self_s"], 4.0)

    def test_check_catches_changed_artifacts(self):
        s = session("small_sweep", DEFAULT_SEED)
        s.plan = [entry for entry in s.plan if entry[0] == "n=6"]
        self.assertIsNotNone(s.run_once())
        self.assertEqual(s.failed, 0)
        report_csv = s.out_dir / "report.csv"
        report_csv.write_bytes(report_csv.read_bytes().replace(b"0.0\r\n", b"0.1\r\n", 1))
        problems = s.check("n=6", _Report(), s.out_dir)
        self.assertTrue(any("golden" in p for p in problems), problems)
        self.assertTrue(any("refs.json" in p for p in problems), problems)
        self.assertTrue(any("earlier run" in p for p in problems), problems)

    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(100)]
        value, pct = tail(samples)
        self.assertEqual(value, 89.0)
        self.assertEqual(sum(x > value for x in samples), 10)
        self.assertEqual(pct, 90.0)
        # Too few samples for a tail: the upper median stands in.
        self.assertEqual(tail([3.0, 1.0, 2.0, 4.0]), (3.0, 75.0))


class _Report:
    preserved_mse = 0.0


if __name__ == "__main__":
    unittest.main()
