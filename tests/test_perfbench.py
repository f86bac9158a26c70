import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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
