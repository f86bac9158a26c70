"""Print the traced peak and the warm-run page faults of each benchmark workload.

    python3 tools/peak_traced.py [WORKLOAD ...]     # every workload by default

Each workload's first config, as perfbench/workloads.py lists it at the
default seed, is parsed as ``asi run`` would parse it and run three times by
``asi.harness.run_pipeline``: once untraced, to warm up, then once under
``tracemalloc``, then once untraced again. The warm-up pays the process's
one-time allocations (the helper thread's pool and the modules it imports),
so a workload's figure does not depend on which workloads ran before it in
the process. One JSON line goes to stdout::

    {"run_peak_traced_mb": {"<workload>": <MiB>, ...},
     "run_minor_faults": {"<workload>": <count>, ...}}

``run_peak_traced_mb`` counts only the Python and NumPy allocations of the
traced run, so it repeats to within a few KiB, alone or after other
workloads; the benchmark's
``peak_rss_mb`` (``ru_maxrss``) also moves with the interpreter, its imports
and the allocator. ``run_minor_faults`` is the ``ru_minflt`` delta of the
untraced last run: the pages it had to map afresh, which a run that reuses
the memory it freed keeps near 0. It is a Linux figure; other systems may
count faults otherwise or not at all. Artifacts go to a temporary directory
(``$TMPDIR``) that is removed afterwards, and no bytecode is cached, so the
tree is left as it was.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from asi import cli, harness  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def measure(name: str) -> tuple[float, int]:
    """Workload `name`'s first config: the tracemalloc peak, in MiB, of one
    run after an untraced warm-up run, and the minor page faults of a third,
    untraced run."""
    _, overrides = WORKLOADS[name].configs(DEFAULT_SEED)[0]
    with tempfile.TemporaryDirectory() as out:
        cfg = cli.parse_config(None, [*overrides, f"dump_dir={out}"])
        harness.run_pipeline(cfg)
        tracemalloc.start()
        try:
            harness.run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        harness.run_pipeline(cfg)
        return peak, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    figures = {name: measure(name) for name in names}
    print(json.dumps({
        "run_peak_traced_mb": {name: round(peak, 3) for name, (peak, _) in figures.items()},
        "run_minor_faults": {name: faults for name, (_, faults) in figures.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
