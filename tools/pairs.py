"""Alternating paired benchmark runs of a parent tree and a changed one.

    python3 tools/pairs.py BASE [CHANGE] [--pairs 10] [--seconds 5] [--workload all] [--seed 0]

BASE and CHANGE are git revisions; without CHANGE the working tree is the
change (its tracked files and the untracked ones git does not ignore). Each
is exported to one of two directories whose paths have equal length,
``<work>/parent`` and ``<work>/change``: the benchmark's calibration moves
with the checkout's path. Pair i runs ``perfbench/run.py`` in both trees, one
after the other and never at once (the kernels split over both CPUs): the
parent first in even pairs, the change first in odd ones.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints the
parent's median and interquartile range (IQR), the change's median, the
relative change, "better in k of N" pairs (ties count for neither) and
whether the gap between the medians exceeds the parent's IQR. Beside these,
which a shift in the box's load between runs can pass or fail, it prints
statistics of the pairs themselves: each pair's change/parent ratio, their
median, a distribution-free 90% interval for that median from the ratios'
order statistics (none under 5 pairs), and the two-sided sign-test p value
of the better and worse pairs. Each ratio compares two runs made back to
back, so a ratio interval that excludes 1 points to the trees, not to load
that drifted between pairs. The last line is one JSON object with the same
figures and every run's value. A run that is not ``correct`` stops the
comparison (exit 1). ``--work`` keeps the exports in a directory of one's
choice; by default they go to a temporary directory that is removed at the
end.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import ROOT, by_workload, run_perfbench  # noqa: E402

SIDES = ("parent", "change")


def side_dirs(work: Path) -> tuple[Path, Path]:
    """The parent's and the change's export directories, whose paths have equal length."""
    parent, change = (work.resolve() / side for side in SIDES)
    if len(str(parent)) != len(str(change)):
        raise ValueError(f"export paths differ in length: {parent} and {change}")
    return parent, change


def export(rev: str | None, dest: Path) -> None:
    """Write revision `rev` of the repository, or its working tree for None, into `dest`."""
    dest.mkdir(parents=True)
    if rev is None:
        listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                 "--exclude-standard"], cwd=ROOT, capture_output=True, check=True)
        for name in filter(None, listed.stdout.decode().split("\0")):
            source = ROOT / name
            if source.is_file():  # a deleted file is still listed as cached
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True)
    with tempfile.TemporaryFile() as tar_file:
        tar_file.write(archive.stdout)
        tar_file.seek(0)
        with tarfile.open(fileobj=tar_file) as tar:
            # The "data" filter (Python 3.11.4 and later) refuses links and paths out of dest.
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def median_interval(values: list[float], level: float = 0.90):
    """(lo, hi, coverage): a distribution-free interval for the median of `values`.

    [x_(j), x_(n+1-j)] of the sorted values holds the median with probability
    1 - 2 P(Bin(n, 1/2) < j) whatever their distribution; j is the largest
    whose coverage is at least `level`. None when even [min, max] falls short
    (n < 5 at 90%).
    """
    xs, n = sorted(values), len(values)
    interval, below = None, 0  # below: 2**n P(Bin(n, 1/2) < j)
    for j in range(1, n // 2 + 1):
        below += math.comb(n, j - 1)
        coverage = 1 - 2 * below / 2**n
        if coverage < level:
            break
        interval = (xs[j - 1], xs[n - j], coverage)
    return interval


def sign_test_p(better: int, worse: int) -> float:
    """Two-sided sign-test p value of `better` against `worse` pairs, ties left out."""
    n, k = better + worse, min(better, worse)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric from paired runs.

    `runs` holds, per side, one {workload: {metric: value}} per pair, in pair order.
    """
    rows = []
    for workload in sorted(runs["parent"][0]):
        for spec in end_to_end:
            name = spec["name"]
            parent = [run[workload][name] for run in runs["parent"]]
            change = [run[workload][name] for run in runs["change"]]
            q1, p_median, q3 = quartiles(parent)
            c_median = statistics.median(change)
            lower = spec["better"] == "lower"
            better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            worse = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
            ratios = [c / p for p, c in zip(parent, change) if p]
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "better": spec["better"], "parent_median": p_median, "parent_q1": q1,
                "parent_q3": q3, "change_median": c_median,
                "change_pct": 100 * (c_median - p_median) / p_median if p_median else 0.0,
                "better_pairs": better, "pairs": len(parent),
                "gap_exceeds_iqr": abs(c_median - p_median) > q3 - q1,
                "ratios": ratios,
                "ratio_median": statistics.median(ratios) if ratios else None,
                "ratio_interval": median_interval(ratios),
                "sign_p": sign_test_p(better, worse),
                "parent_runs": parent, "change_runs": change,
            })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = []
    for r in rows:
        interval = r["ratio_interval"]
        ratio = "none" if r["ratio_median"] is None else f"{r['ratio_median']:.4f}"
        ratio += (f" [{interval[0]:.4f}-{interval[1]:.4f}, {100 * interval[2]:.1f}%]"
                  if interval else " [no 90% interval under 5 pairs]")
        lines.append(
            f"{r['workload']:<12} {r['metric']:<17} parent {r['parent_median']:.6g} "
            f"[{r['parent_q1']:.6g}-{r['parent_q3']:.6g}] -> change {r['change_median']:.6g} "
            f"{r['unit']:<4} {r['change_pct']:+6.2f}%  better in {r['better_pairs']} of "
            f"{r['pairs']}  gap {'>' if r['gap_exceeds_iqr'] else '<='} IQR  "
            f"ratio {ratio}  sign p {r['sign_p']:.3g}  ({r['better']} is better)  "
            f"pair ratios {' '.join(f'{x:.4f}' for x in r['ratios'])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("change", nargs="?", help="the changed revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path, help="directory for the two exports (kept)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    work = args.work or Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = dict(zip(SIDES, side_dirs(work)))
        export(args.base, trees["parent"])
        export(args.change, trees["change"])
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        workload = None if args.workload == "all" else args.workload
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                summary, _ = run_perfbench(trees[side], args.workload, args.seed, args.seconds, 0)
                if not summary["correct"]:
                    print(f"error: pair {i}: the {side} run is not correct "
                          f"({summary['failed']} of {summary['attempted']} failed)",
                          file=sys.stderr)
                    return 1
                runs[side].append(by_workload(summary["metrics"], workload))
                print(f"pair {i} {side} done", file=sys.stderr)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = summarize(runs, end_to_end)
    print("\n".join(format_rows(rows)))
    print(json.dumps({"base": args.base, "change": args.change or "working tree",
                      "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                      "workload": args.workload, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
