"""Benchmark entry point for the asi pipeline.

    python3 perfbench/run.py --workload small_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each workload runs in its own fresh interpreter (worker.py), after a few
more fresh interpreters have timed ``import asi`` plus ``cli.parse_config``
(setup_s). With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics from a traced run. Every run's
artifacts are checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import speed_factor  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Interpreter start-up is dispatch-like work: it is scaled by that kernel.
SETUP_CALIBRATION = ("dispatch",)
# Fresh interpreters timed for setup_s, half before the worker and half
# after it, so the median spans the same stretch of machine time as the run.
SETUP_PROBES = 16
# A single worker must finish well inside the 180 s a benchmark run may take.
WORKER_TIMEOUT_S = 170
# Tail percentile: the highest one that still has this many samples beyond it.
TAIL_BEYOND = 10

PER_LAYER_UNITS = {
    "calls": "count",
    "count": "count",
    "self_s": "s",
    "total_s": "s",
    "gflop": "GFLOP",
    "gflop_per_s": "GFLOP/s",
    "useful_ratio": "ratio",
    "bytes_written": "B",
}


def child_env() -> dict[str, str]:
    """The workload's environment: the checkout's src first, one BLAS/OpenMP thread.

    einsum contractions never use BLAS threads; capping them at one (at or
    below nproc) keeps a 2-CPU box from oversubscribing if a later change
    routes work through BLAS.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(overrides: list[str], probes: int) -> list[tuple[float, float]]:
    """Time `import asi` plus `cli.parse_config` in fresh interpreters.

    Returns (wall s, reference s) per interpreter; each one times the
    dispatch kernel after its setup (the first pass warms it up).
    """
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import asi.cli\n"
        f"asi.cli.parse_config(None, {overrides!r})\n"
        "setup = time.perf_counter() - start\n"
        f"import sys; sys.path.insert(0, {str(HERE)!r})\n"
        "import calibrate\n"
        f"calibrate.kernel_seconds({SETUP_CALIBRATION!r})\n"
        f"print(setup, calibrate.kernel_seconds({SETUP_CALIBRATION!r}))\n"
    )
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        setup, kernel = (float(x) for x in done.stdout.split())
        samples.append((setup, setup * speed_factor(SETUP_CALIBRATION, kernel)))
    return samples


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    TAIL_BEYOND samples above it, never below the upper median."""
    xs = sorted(samples)
    k = max(len(xs) - 1 - TAIL_BEYOND, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    spans = ROOT / ".perfbench_out" / f"{name}-seed{seed}-spans.csv"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(work),
    ]
    if trace:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        _remove_tree(work)
    if done.returncode != 0:
        raise SystemExit(f"worker for {name} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def end_to_end(name: str, raw: dict, setup: list[tuple[float, float]]) -> dict:
    """Time metrics are in reference seconds; each note gives the wall-clock median too."""
    samples = raw["samples"]
    if not samples:
        raise SystemExit(f"{name}: no run completed")
    wall = [s[0] for s in samples]
    ref = [s[1] for s in samples]
    apps = sum(s[2] for s in samples)
    tail_value, tail_pct = tail(ref)
    wall_p50 = statistics.median(wall)
    setup_wall = statistics.median(s[0] for s in setup)
    return {
        "run_s.p50": (
            statistics.median(ref), "s", f"median of {len(ref)} runs (wall {wall_p50:.6f} s)"
        ),
        "run_s.tail": (tail_value, "s", f"p{tail_pct:.1f} of {len(ref)} runs"),
        "layer_apps_per_s": (apps / sum(ref), "1/s", f"{apps} layer applications"),
        "setup_s": (
            statistics.median(s[1] for s in setup), "s",
            f"median of {len(setup)} fresh interpreters (wall {setup_wall:.6f} s)",
        ),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "worker process ru_maxrss"),
    }


def per_layer(raw: dict) -> dict:
    untraced = statistics.median(s[1] for s in raw["untraced"])
    traced = statistics.median(s[1] for s in raw["traced"])
    metrics = {
        key: (value, PER_LAYER_UNITS[key.rsplit(".", 1)[1]], "per run (wall)")
        for key, value in raw["layers"].items()
    }
    metrics["trace.overhead_ratio"] = (
        traced / untraced, "ratio",
        f"traced p50 {traced:.6f} s ({len(raw['traced'])} runs) / "
        f"untraced p50 {untraced:.6f} s ({len(raw['untraced'])} runs), reference seconds",
    )
    return metrics


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Metrics (name -> (value, unit, note)) and the worker's raw result."""
    if trace:
        raw = run_worker(name, seed, seconds, trace)
        return per_layer(raw), raw
    overrides = WORKLOADS[name].configs(seed)[0][1]
    setup = setup_seconds(overrides, SETUP_PROBES // 2)
    raw = run_worker(name, seed, seconds, trace)
    setup += setup_seconds(overrides, SETUP_PROBES - SETUP_PROBES // 2)
    return end_to_end(name, raw, setup), raw


def main() -> int:
    parser = argparse.ArgumentParser(description="asi pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "asi" / "__init__.py").is_file():
        print(f"error: no asi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        metrics, raw = measure(name, args.seed, args.seconds, args.trace)
        attempted += raw["attempted"]
        failed += raw["failed"]
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): "
              f"{raw['attempted']} runs, failed_ops {raw['failed']}/{raw['attempted']}")
        for key, (value, unit, note) in metrics.items():
            print(f"   {key:<40} {value:>14.6g} {unit:<8} {note}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit, _) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
        env = dict(raw["env"], nproc=os.cpu_count(), threads=child_env()["OPENBLAS_NUM_THREADS"],
                   git=git_revision())
        print(f"   env {json.dumps(env)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
