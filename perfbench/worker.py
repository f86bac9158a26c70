"""Measure one workload in this process and print the raw samples as JSON.

run.py starts this file in a fresh interpreter per workload, so peak memory
is the workload's own. Each run is one ``asi.harness.run_pipeline`` call on
a config built by ``asi.cli.parse_config``, exactly as ``asi run`` does, and
every run's artifacts are checked before the next one starts.

    python3 perfbench/worker.py --workload sd_block --seed 0 --seconds 30 \
        --trace 0 --out .perfbench_work/sd_block
    python3 perfbench/worker.py --record-refs    # rewrite refs.json at seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import asi  # noqa: E402
from asi import adablending, cli, harness, numeric, sica  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

if not Path(asi.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"asi was imported from {asi.__file__}, not from {ROOT / 'src'}")

REFS_PATH = HERE / "refs.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
perf_counter = time.perf_counter


def manifest(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in `out_dir`, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def manifest_digest(files: dict[str, str]) -> str:
    """One digest for a whole manifest, over its sha256sum-format lines."""
    text = "".join(f"{digest}  {name}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def read_sha256sum(path: Path) -> dict[str, str]:
    digests = {}
    for line in path.read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


class OutputCheck:
    """Checks one run's report and artifacts; returns a list of problems.

    Every run: preserved coordinates keep their content value exactly
    (preserved_mse == 0.0), and a config seen before in this process
    reproduces byte-identical artifacts. At the default workload seed the
    artifacts also match refs.json, recorded from the seed commit, and the
    small_sweep n=6 run (the default config) matches tests/golden/.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.seen: dict[str, dict[str, str]] = {}
        self.refs = None
        self.golden = None
        if seed == DEFAULT_SEED:
            self.refs = json.loads(REFS_PATH.read_text())[workload.name]
            if workload.name == "small_sweep":
                self.golden = (
                    read_sha256sum(GOLDEN_DIR / "run_manifest.sha256"),
                    (GOLDEN_DIR / "report.csv").read_bytes(),
                )

    def __call__(self, label: str, report, out_dir: Path) -> list[str]:
        problems = []
        if report.preserved_mse != 0.0:
            problems.append(f"preserved_mse = {report.preserved_mse!r}, expected 0.0")
        files = manifest(out_dir)
        first = self.seen.setdefault(label, files)
        if files != first:
            problems.append("artifacts differ from an earlier run of the same config")
        if self.refs is not None and manifest_digest(files) != self.refs[label]:
            problems.append("artifacts differ from refs.json")
        if self.golden is not None and label == "n=6":
            golden_files, golden_report = self.golden
            if files != golden_files:
                problems.append("artifacts differ from tests/golden/run_manifest.sha256")
            if (out_dir / "report.csv").read_bytes() != golden_report:
                problems.append("report.csv differs from tests/golden/report.csv")
        return [f"{label}: {p}" for p in problems]


class Session:
    """Cycles through a workload's configs, timing and checking each run."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.calibration = workload.calibration
        self.plan = [
            (label, [*overrides, f"dump_dir={out_dir}"])
            for label, overrides in workload.configs(seed)
        ]
        self.check = OutputCheck(workload, seed)
        self.position = 0
        self.attempted = 0
        self.failed = 0

    def run_once(self) -> tuple[float, int] | None:
        """One checked run: (wall seconds of run_pipeline, blending-layer applications).

        Returns None when the run raised; a run that completes but fails
        its check still returns its time, and both count in `failed`.
        """
        label, overrides = self.plan[self.position % len(self.plan)]
        self.position += 1
        self.attempted += 1
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            cfg = cli.parse_config(None, overrides)
            start = perf_counter()
            report = harness.run_pipeline(cfg)
            elapsed = perf_counter() - start
            problems = self.check(label, report, self.out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print("\n".join(problems), file=sys.stderr)
            self.failed += 1
        return elapsed, cfg.timesteps * cfg.layers_per_step

    def phase(self, seconds: float, after_run=None) -> list[tuple[float, float, int]]:
        """Run whole cycles of configs until `seconds` have passed (one cycle at least).

        Returns (wall s, reference s, layer applications) per completed run.
        The reference time scales the wall time by the workload's reference
        kernels, timed just before and just after the run (see calibrate.py).
        """
        samples = []
        kernel_before = calibrate.kernel_seconds(self.calibration)
        start = perf_counter()
        while True:
            for _ in self.plan:
                result = self.run_once()
                kernel_after = calibrate.kernel_seconds(self.calibration)
                if result is not None:
                    wall, apps = result
                    kernel = (kernel_before + kernel_after) / 2
                    factor = calibrate.speed_factor(self.calibration, kernel)
                    samples.append((wall, wall * factor, apps))
                kernel_before = kernel_after
                if after_run is not None:
                    after_run()
            if perf_counter() - start >= seconds:
                return samples


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the pipeline looks them up."""
    counts = tracer.counts

    def on_matmul(a, b):
        counts["matmul_flop"] += 2 * a.rows * a.cols * b.cols

    def on_blend(f_c, f_s, mask, cfg):
        counts["blended_coords"] += int(mask.data.sum())

    def on_adain(f_c_head, f_s_head, eps):
        counts["normalized_coords"] += f_c_head.rows * f_c_head.cols

    wraps = [
        (cli, "parse_config", "cli.parse_config", None),
        (harness, "run_pipeline", "harness.run_pipeline", None),
        (harness, "synth_inputs", "harness.synth_inputs", None),
        (harness, "render_mask_pgm", "harness.render_mask_pgm", None),
        (harness, "save_tensor", "tensorio.save_tensor", None),
        (harness, "ddim_invert", "ddim.ddim_invert", None),
        (harness, "ddim_step", "ddim.ddim_step", None),
        (harness, "project_q", "sica.project_q", None),
        (harness, "project_kv", "sica.project_kv", None),
        (harness, "siamese_attend", "sica.siamese_attend", None),
        (adablending, "siamese_attend", "sica.siamese_attend", None),
        (harness, "asi_layer", "adablending.asi_layer", None),
        (harness, "head_distances", "adablending.head_distances", None),
        (adablending, "head_distances", "adablending.head_distances", None),
        (adablending, "extract_spatial_mask", "adablending.extract_spatial_mask", None),
        (adablending, "fuse_masks", "adablending.fuse_masks", None),
        (adablending, "blend", "adablending.blend", on_blend),
        (adablending, "adain", "adablending.adain", on_adain),
        (sica, "matmul", "numeric.matmul", on_matmul),
        (sica, "softmax_rows", "numeric.softmax_rows", None),
    ]
    for owner, attr, name, on_call in wraps:
        tracer.wrap(owner, attr, name, on_call)
    tracer.count_calls(numeric.Matrix, "__init__", "matrix_new")


def layer_metrics(stats: dict, counts, runs: int, bytes_written: int) -> dict[str, float]:
    """Per-run per-layer figures, named <module>.<function>.<stat>."""

    def per_run(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0) / runs

    matmul_self = stats.get("numeric.matmul", {}).get("self_s", 0.0)
    normalized = counts["normalized_coords"]
    metrics = {
        "numeric.matmul.calls": per_run("numeric.matmul", "calls"),
        "numeric.matmul.self_s": per_run("numeric.matmul", "self_s"),
        "numeric.matmul.gflop": counts["matmul_flop"] / 1e9 / runs,
        "numeric.matmul.gflop_per_s": counts["matmul_flop"] / 1e9 / matmul_self if matmul_self else 0.0,
        "numeric.softmax_rows.calls": per_run("numeric.softmax_rows", "calls"),
        "numeric.softmax_rows.self_s": per_run("numeric.softmax_rows", "self_s"),
        "numeric.matrix_new.count": counts["matrix_new"] / runs,
        "sica.project_q.calls": per_run("sica.project_q", "calls"),
        "sica.project_q.total_s": per_run("sica.project_q", "total_s"),
        "sica.project_kv.total_s": per_run("sica.project_kv", "total_s"),
        "sica.siamese_attend.calls": per_run("sica.siamese_attend", "calls"),
        "sica.siamese_attend.total_s": per_run("sica.siamese_attend", "total_s"),
        "sica.siamese_attend.self_s": per_run("sica.siamese_attend", "self_s"),
        "adablending.asi_layer.calls": per_run("adablending.asi_layer", "calls"),
        "adablending.asi_layer.total_s": per_run("adablending.asi_layer", "total_s"),
        "adablending.asi_layer.self_s": per_run("adablending.asi_layer", "self_s"),
        "adablending.head_distances.self_s": per_run("adablending.head_distances", "self_s"),
        "adablending.extract_spatial_mask.self_s": per_run("adablending.extract_spatial_mask", "self_s"),
        "adablending.fuse_masks.self_s": per_run("adablending.fuse_masks", "self_s"),
        "adablending.blend.self_s": per_run("adablending.blend", "self_s"),
        "adablending.adain.calls": per_run("adablending.adain", "calls"),
        "adablending.adain.self_s": per_run("adablending.adain", "self_s"),
        "adablending.adain.useful_ratio": counts["blended_coords"] / normalized if normalized else 0.0,
        "ddim.ddim_invert.total_s": per_run("ddim.ddim_invert", "total_s"),
        "ddim.ddim_step.calls": per_run("ddim.ddim_step", "calls"),
        "ddim.ddim_step.total_s": per_run("ddim.ddim_step", "total_s"),
        "harness.synth_inputs.total_s": per_run("harness.synth_inputs", "total_s"),
        "harness.run_pipeline.self_s": per_run("harness.run_pipeline", "self_s"),
        "harness.render_mask_pgm.calls": per_run("harness.render_mask_pgm", "calls"),
        "harness.render_mask_pgm.total_s": per_run("harness.render_mask_pgm", "total_s"),
        "tensorio.save_tensor.calls": per_run("tensorio.save_tensor", "calls"),
        "tensorio.save_tensor.total_s": per_run("tensorio.save_tensor", "total_s"),
        "tensorio.bytes_written": bytes_written / runs,
        "cli.parse_config.total_s": per_run("cli.parse_config", "total_s"),
    }
    return metrics


def traced_phase(session: Session, seconds: float, spans_path: Path | None):
    """Run with every layer wrapped; returns (phase samples, per-layer metrics)."""
    tracer = Tracer()
    totals: dict[str, dict[str, float]] = {}
    bytes_written = 0
    runs = 0
    last_spans: list = []

    def after_run() -> None:
        # Fold each run's spans into the totals so memory stays flat; the
        # last run's spans are kept whole and written out at the end.
        nonlocal bytes_written, runs, last_spans
        runs += 1
        last_spans = tracer.take_spans()
        for name, entry in span_stats(last_spans).items():
            total = totals.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
        if session.out_dir.is_dir():
            bytes_written += sum(p.stat().st_size for p in session.out_dir.iterdir())

    install_tracer(tracer)
    try:
        samples = session.phase(seconds, after_run)
    finally:
        tracer.restore()
    if spans_path is not None:
        write_spans(spans_path, last_spans)
    return samples, layer_metrics(totals, tracer.counts, runs, bytes_written)


def write_spans(path: Path, spans: list) -> None:
    """One CSV row per span: index, name, start and end (s, from the run's start), parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s[1] for s in spans), default=0.0)
    lines = ["index,name,start_s,end_s,parent"]
    lines += [
        f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}"
        for i, (name, start, end, parent) in enumerate(spans)
    ]
    path.write_text("\n".join(lines) + "\n")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            spans_path: Path | None = None) -> dict:
    """Warm up with one cycle, then measure; the result is raw samples plus counts."""
    session = Session(workload, seed, out_dir)
    session.phase(0.0)
    result: dict = {}
    if trace:
        result["untraced"] = session.phase(seconds / 2)
        result["traced"], result["layers"] = traced_phase(session, seconds / 2, spans_path)
    else:
        result["samples"] = session.phase(seconds)
    result.update(
        attempted=session.attempted,
        failed=session.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(),
    )
    return result


def record_refs(out_root: Path) -> None:
    """Rewrite refs.json from one run of every config at the default seed."""
    refs = {}
    for workload in WORKLOADS.values():
        refs[workload.name] = {}
        out_dir = out_root / workload.name
        for label, overrides in workload.configs(DEFAULT_SEED):
            shutil.rmtree(out_dir, ignore_errors=True)
            harness.run_pipeline(cli.parse_config(None, [*overrides, f"dump_dir={out_dir}"]))
            refs[workload.name][label] = manifest_digest(manifest(out_dir))
    REFS_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_work" / "worker")
    parser.add_argument("--spans", type=Path, default=None, help="CSV for the last traced run's spans")
    parser.add_argument("--record-refs", action="store_true", help="rewrite refs.json and exit")
    args = parser.parse_args()
    if args.record_refs:
        record_refs(args.out)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out, args.spans
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
