"""Print the tracemalloc peak of one in-process run per benchmark workload.

    python3 tools/peak_traced.py [WORKLOAD ...]     # every workload by default

Each workload's first config, as perfbench/workloads.py lists it at the
default seed, is parsed as ``asi run`` would parse it and run once by
``asi.harness.run_pipeline`` under ``tracemalloc``. One JSON line goes to
stdout: ``{"run_peak_traced_mb": {"<workload>": <MiB>, ...}}``. The figure
counts only the Python and NumPy allocations the run makes, so it repeats to
within a few KiB; the benchmark's ``peak_rss_mb`` (``ru_maxrss``) also moves
with the interpreter, its imports and the allocator. Artifacts go to a
temporary directory (``$TMPDIR``) that is removed afterwards, and no bytecode
is cached, so the tree is left as it was.
"""

from __future__ import annotations

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from asi import cli, harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_peak_traced_mb(name: str) -> float:
    """The tracemalloc peak, in MiB, of one run of workload `name`'s first config."""
    _, overrides = WORKLOADS[name].configs(DEFAULT_SEED)[0]
    with tempfile.TemporaryDirectory() as out:
        cfg = cli.parse_config(None, [*overrides, f"dump_dir={out}"])
        tracemalloc.start()
        try:
            harness.run_pipeline(cfg)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    peaks = {name: round(run_peak_traced_mb(name), 3) for name in names}
    print(json.dumps({"run_peak_traced_mb": peaks}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
