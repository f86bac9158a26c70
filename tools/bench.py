"""Write one BENCH file: the benchmark's metrics of this tree, with its size and memory.

    python3 tools/bench.py [--seconds 30] [--seed 0]        # measure, write BENCH_<rev>.json
    python3 tools/bench.py --compare BENCH_<old>.json        # ... then compare with an older file
    python3 tools/bench.py --compare BENCH_<old>.json --to BENCH_<new>.json   # compare two files

A measurement runs ``perfbench/run.py --workload all`` twice, in
subprocesses, with ``--trace 0`` (end-to-end metrics) and ``--trace 1``
(per-layer metrics), then ``tools/peak_traced.py`` (``run_peak_traced_mb``
and ``run_minor_faults``). It writes ``BENCH_<rev>.json`` at the repository
root. ``<rev>`` is the short git id of the ``src`` tree measured, which
names the program's code whether or not it is committed yet: the file of a
commit is ``BENCH_$(git rev-parse --short=7 <commit>:src).json``. The file
also holds the HEAD it was measured on and whether ``src``, ``perfbench`` or
``tools`` differed from it, the ``env`` line, ``correct``/``attempted``/
``failed`` of both runs, the ``src/asi`` line count, its code-line count
(lines that are not blank, not a comment and not a docstring), the
``__all__`` name count, and notes on figures known to be wrong.

``--compare`` prints, for each workload and end-to-end metric, the relative
change against the older file next to the bound ``BENCHMARK.json`` allows,
then each workload's box-independent counts from ``tools/peak_traced.py``
(``run_handoffs``, ``run_matrix_new``, ``run_files``, ``run_bytes``, and
``run_handoffs_by_kernel`` one kernel a line) exactly, and the change in line, code-line and name counts.
It exits 1 when a metric is worse than its bound.
Needs Python, NumPy and git; with ``--seconds 30`` a measurement takes
several minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Figures the benchmark's tracer is known to get wrong; see ROADMAP.md.
NOTES = [
    "adablending.adain.* reads 0: blend calls the private _adain, not the traced adain.",
    "numeric.softmax_rows.* reads 0: attention calls the private _softmax, inside split halves.",
    "numeric.matmul.* counts project_kv's products alone on every workload: the query "
    "projection (Q^T = W_q^T X^T) calls no matmul. Its time is in sica.project_q on "
    "small_sweep and sd_block, and in harness.run_pipeline.self_s on mid_bypass.",
    "mid_bypass: the query projection and both attention tracks run in the bypass layer "
    "stack's row split and count in harness.run_pipeline.self_s; sica.project_q.calls reads 0.",
    "small_sweep and sd_block: asi_layer runs both attention tracks, the distances, the masks "
    "and the blend through private kernels in its own two head splits, so sica.siamese_attend.*, "
    "adablending.head_distances, extract_spatial_mask, fuse_masks and blend read 0; their time "
    "counts in adablending.asi_layer.self_s.",
    "ddim.ddim_step.* reads 0: the run's descent calls the private sampler kernel (ddim._walk), "
    "one walk per chunk of steps, and its time counts in harness.run_pipeline.self_s. "
    "ddim.ddim_invert.total_s is the inversion's one walk.",
]


# tools/peak_traced.py's per-workload counts that do not depend on the box; the hand-offs
# by kernel are {kernel: count} per workload.
COUNTS = ("run_handoffs", "run_matrix_new", "run_files", "run_bytes")
BY_KERNEL = "run_handoffs_by_kernel"


def parse_run_output(text: str) -> tuple[dict, dict]:
    """The last-line JSON object of a perfbench/run.py run, and its env line.

    Each workload prints one ``env {...}`` line; they differ in nothing but
    the workload, so the first one stands for the run.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("perfbench/run.py printed nothing")
    summary = json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= summary.keys():
        raise ValueError(f"not a perfbench/run.py result line: {lines[-1][:200]!r}")
    env = next((json.loads(line.strip()[4:]) for line in lines
                if line.strip().startswith("env {")), {})
    return summary, env


def by_workload(metrics: dict, workload: str | None = None) -> dict[str, dict[str, float]]:
    """{workload: {metric: value}} from run.py's flat {"<workload>.<metric>": {"value"}}.

    A run of one workload prints its metrics without the prefix; `workload`
    names it then.
    """
    grouped: dict[str, dict[str, float]] = {}
    for key, entry in metrics.items():
        name, metric = (workload, key) if workload else key.split(".", 1)
        grouped.setdefault(name, {})[metric] = entry["value"]
    return grouped


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> tuple[dict, dict]:
    """One perfbench/run.py run in `tree`: its result line and env line (see parse_run_output)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return parse_run_output(done.stdout)


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True,
                          env=env).stdout.strip()


def src_tree() -> str:
    """The short git id of the working tree's src directory, committed or not."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "-A", "--", "src", env=env)
        tree = _git("write-tree", "--prefix=src/", env=env)
    return _git("rev-parse", "--short=7", tree)


def code_lines(tree: ast.Module, text: str) -> int:
    """The lines of a module that are not blank, not a # comment and not a docstring."""
    docstrings = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def source_size(package: Path) -> dict[str, int]:
    """Lines and code lines of the package's modules, and the names their __all__ lists hold."""
    lines = code = names = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        lines += len(text.splitlines())
        code += code_lines(tree, text)
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names += len(ast.literal_eval(node.value))
    return {"src_asi_lines": lines, "src_asi_code_lines": code, "all_names": names}


def measure(seconds: float, seed: int) -> dict:
    plain, env = run_perfbench(ROOT, "all", seed, seconds, 0)
    traced, _ = run_perfbench(ROOT, "all", seed, seconds, 1)
    peak = json.loads(subprocess.run(
        [sys.executable, "tools/peak_traced.py"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    return {
        "src_tree": src_tree(),
        "head": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench", "tools")),
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "runs": {name: {key: summary[key] for key in ("correct", "attempted", "failed")}
                 for name, summary in (("trace_0", plain), ("trace_1", traced))},
        "end_to_end": by_workload(plain["metrics"]),
        "per_layer": by_workload(traced["metrics"]),
        **peak,
        **source_size(ROOT / "src" / "asi"),
        "notes": [*NOTES, f"Measured with nproc={env.get('nproc')}: the kernels split over at "
                          "most two threads, and no scaling beyond the measuring host's CPUs is "
                          "measured."],
    }


def compare(old: dict, new: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Lines comparing two BENCH files, and whether any metric is worse than its bound.

    A metric's change is (new - old) / old; it is worse by that much when
    lower is better, and by its negation when higher is better.
    """
    lines, worse = [], False
    for workload in sorted(new["end_to_end"]):
        for spec in end_to_end:
            name = spec["name"]
            a = old["end_to_end"].get(workload, {}).get(name)
            b = new["end_to_end"][workload].get(name)
            if a is None or b is None:
                lines.append(f"{workload:<12} {name:<18} missing in the "
                             f"{'older' if a is None else 'newer'} file")
                continue
            change = (b - a) / a if a else 0.0
            loss = change if spec["better"] == "lower" else -change
            verdict = "WORSE than bound" if loss > spec["bound"] else "ok"
            worse |= loss > spec["bound"]
            lines.append(f"{workload:<12} {name:<18} {a:>12.6g} -> {b:<12.6g} {spec['unit']:<4} "
                         f"{100 * change:+7.2f}%  (bound {100 * spec['bound']:.0f}% worse, "
                         f"{spec['better']} is better: {verdict})")
    for key in COUNTS:
        for workload in sorted(new.get(key, {})):
            a, b = old.get(key, {}).get(workload), new[key][workload]
            lines.append(f"{workload:<12} {key:<18} " + (
                "missing in the older file" if a is None else f"{a:>12} -> {b:<12} {b - a:+d}"))
    for workload, kernels in sorted(new.get(BY_KERNEL, {}).items()):
        older = old.get(BY_KERNEL, {}).get(workload)
        if older is None:
            lines.append(f"{workload:<12} {BY_KERNEL} missing in the older file")
            continue
        for kernel in sorted(older.keys() | kernels.keys()):  # a kernel absent hands off 0
            a, b = older.get(kernel, 0), kernels.get(kernel, 0)
            lines.append(f"{workload:<12} {'handoffs ' + kernel:<18} {a:>12} -> {b:<12} {b - a:+d}")
    for key in ("src_asi_lines", "src_asi_code_lines", "all_names"):
        a, b = old.get(key), new[key]
        lines.append(f"{key:<31} " + (
            "missing in the older file" if a is None else f"{a:>12} -> {b:<12} {b - a:+d}"))
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compare", type=Path, help="an older BENCH file to compare with")
    parser.add_argument("--to", type=Path, help="with --compare: the newer file, measured before")
    args = parser.parse_args(argv)
    if args.to is not None and args.compare is None:
        parser.error("--to needs --compare")
    if args.to is not None:
        new = json.loads(args.to.read_text())
    else:
        new = measure(args.seconds, args.seed)
        path = ROOT / f"BENCH_{new['src_tree']}.json"
        path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    if args.compare is None:
        return 0
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    lines, worse = compare(json.loads(args.compare.read_text()), new, bounds)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
