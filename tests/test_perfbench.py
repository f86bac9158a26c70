import subprocess
import sys
from pathlib import Path

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
