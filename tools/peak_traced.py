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
     "run_minor_faults": {"<workload>": <count>, ...},
     "run_handoffs": {"<workload>": <count>, ...},
     "run_files": {"<workload>": <count>, ...},
     "run_bytes": {"<workload>": <bytes>, ...}}

``run_peak_traced_mb`` counts only the Python and NumPy allocations of the
traced run, so it reads about the same alone or after other workloads (CI
allows 0.1 MiB between the two). Runs of one tree still spread: ``mid_bypass``
alone read 4.737 to 4.771 MiB, 34 KiB apart, so a change of a few tens of KiB
is noise. The benchmark's
``peak_rss_mb`` (``ru_maxrss``) also moves with the interpreter, its imports
and the allocator. ``run_minor_faults`` is the ``ru_minflt`` delta of the
untraced last run: the pages it had to map afresh, which a run that reuses
the memory it freed keeps near 0. It is a Linux figure; other systems may
count faults otherwise or not at all.

The last three are counts that do not depend on the box. ``run_handoffs``
is the number of halves the warm-up run hands to the helper thread's pool,
counted at ``ThreadPoolExecutor.submit`` with the kernels splitting as on a
2-CPU host, whatever this one has. ``run_files`` and ``run_bytes`` are the
files in the dump directory after the last run, and their bytes.

Artifacts go to a temporary directory (``$TMPDIR``) that is removed
afterwards, and no bytecode is cached, so the tree is left as it was.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from asi import cli, harness, numeric  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


@contextlib.contextmanager
def counting_handoffs():
    """A list that gains one entry per half handed to the helper's pool, while
    the kernels split as on a 2-CPU host."""
    handed: list[int] = []
    submit, cpus = ThreadPoolExecutor.submit, numeric._CPUS

    def counted(self, fn, *args, **kwargs):
        if args and args[0] is numeric._run_half:  # run in a copy of the caller's context
            handed.append(1)
        return submit(self, fn, *args, **kwargs)

    ThreadPoolExecutor.submit, numeric._CPUS = counted, 2
    try:
        yield handed
    finally:
        ThreadPoolExecutor.submit, numeric._CPUS = submit, cpus


def measure(name: str) -> dict[str, float]:
    """Workload `name`'s first config: the tracemalloc peak, in MiB, of one
    run after an untraced warm-up run, the minor page faults of a third,
    untraced run, the warm-up's hand-offs and the dump directory's files and
    bytes."""
    _, overrides = WORKLOADS[name].configs(DEFAULT_SEED)[0]
    with tempfile.TemporaryDirectory() as out:
        cfg = cli.parse_config(None, [*overrides, f"dump_dir={out}"])
        with counting_handoffs() as handed:
            harness.run_pipeline(cfg)
        tracemalloc.start()
        try:
            harness.run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        harness.run_pipeline(cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        files = [p for p in Path(out).iterdir() if p.is_file()]
        return {"run_peak_traced_mb": round(peak, 3), "run_minor_faults": faults,
                "run_handoffs": len(handed), "run_files": len(files),
                "run_bytes": sum(p.stat().st_size for p in files)}


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    figures = {name: measure(name) for name in names}
    print(json.dumps({key: {name: figures[name][key] for name in names}
                      for key in figures[names[0]]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
