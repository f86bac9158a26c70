import collections
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from asi import numeric
from asi.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_checks_pass():
    # The benchmark traces the package by wrapping module attributes by name
    # (e.g. asi.sica.matmul), so a rename must fail here, not only in the bench.
    proc = subprocess.run(
        [sys.executable, "perfbench/check_bench.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]


# (config, the kernels whose halves the helper runs, traced names the run must reach)
# of each shape: small_sweep's and sd_block's, with blending on, whose query projection
# splits by heads and whose layer splits by heads twice (once at small_sweep's size), and
# mid_bypass's, whose layer stack splits by rows in one hand-off.
HELPER_RUNS = {
    "small_sweep": (
        dict(timesteps=50),
        {"project_q", "asi_layer"},
        {"harness.run_pipeline", "adablending.asi_layer", "sica.project_q", "ddim.ddim_invert",
         "harness.render_mask_pgm", "tensorio.save_tensor", "numeric.matmul", "matrix_new"},
    ),
    "sd_block": (
        dict(heads=8, head_dim=40, positions=1024, tokens=77, timesteps=1),
        {"Rng.normals", "_walk", "matmul", "project_q", "asi_layer"},
        {"harness.run_pipeline", "adablending.asi_layer", "sica.project_q", "ddim.ddim_invert",
         "harness.synth_inputs", "numeric.matmul", "matrix_new"},
    ),
    "mid_bypass": (
        dict(heads=16, head_dim=16, positions=256, tokens=16, timesteps=1, layers_per_step=4,
             apply_asi=False),
        {"Rng.normals", "matmul", "_bypass_layers", "head_distances"},
        {"harness.run_pipeline", "adablending.head_distances", "ddim.ddim_invert",
         "harness.synth_inputs", "sica.project_kv", "numeric.matmul", "matrix_new"},
    ),
}


@pytest.mark.parametrize("shape", sorted(HELPER_RUNS))
def test_no_traced_name_runs_off_the_main_thread(tmp_path, monkeypatch, shape):
    # The tracer keeps one span stack, which is not thread-safe: a kernel split over
    # the helper thread must call none of the names it wraps from there. Each name
    # install_tracer wraps records the threads it runs on, through a run split as on
    # a 2-CPU host.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import worker

    threads = collections.defaultdict(set)

    class Recorder:
        counts = None  # read by the tracer's on_call hooks, which never run here

        def wrap(self, owner, attr, name, on_call=None):
            original = getattr(owner, attr)

            def recorded(*args, **kwargs):
                threads[name].add(threading.current_thread())
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, recorded)

        count_calls = wrap

    worker.install_tracer(Recorder())
    helper_ran = set()
    run_half = numeric._run_half

    def recorded_half(body, lo, hi):
        if threading.current_thread() is not threading.main_thread():
            helper_ran.add(body.__qualname__.split(".<locals>")[0])
        run_half(body, lo, hi)

    monkeypatch.setattr(numeric, "_run_half", recorded_half)
    monkeypatch.setattr(numeric, "_CPUS", 2)
    config, helper_kernels, reached = HELPER_RUNS[shape]
    worker.harness.run_pipeline(ExperimentConfig(**config, dump_dir=tmp_path))
    assert helper_ran == helper_kernels
    assert reached <= set(threads)
    off_main = {name: seen for name, seen in threads.items() if seen != {threading.main_thread()}}
    assert not off_main


def test_peak_traced_prints_one_json_line_and_cleans_up(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    run = [sys.executable, "tools/peak_traced.py"]
    proc = subprocess.run([*run, "small_sweep"], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    (line,) = proc.stdout.splitlines()
    peak = json.loads(line)["run_peak_traced_mb"]["small_sweep"]
    assert 0 < peak < 16
    assert list(tmp_path.iterdir()) == []
    proc = subprocess.run([*run, "no_such_workload"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr.startswith("error: unknown workload")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy needs glibc")
def test_peak_traced_counts_a_warm_runs_page_faults(tmp_path):
    # mid_bypass's warm run remakes blocks of 0.5 MiB; none faults in afresh.
    proc = subprocess.run([sys.executable, "tools/peak_traced.py", "mid_bypass"], cwd=ROOT,
                          env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    faults = json.loads(proc.stdout)["run_minor_faults"]["mid_bypass"]
    assert isinstance(faults, int) and 0 <= faults < 128  # one mid_bypass latent is 128 pages
