"""The statistics and parsing of tools/pairs.py and tools/bench.py, on canned run output."""

import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402
import pairs  # noqa: E402
import peak_traced  # noqa: E402

from asi import numeric  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
SPECS = {spec["name"]: spec for spec in END_TO_END}

# The tail of a perfbench/run.py --workload all run, as it prints it.
RUN_OUTPUT = """\
== small_sweep (seed 0, 1 s, trace 0): 90 runs, failed_ops 0/90
   run_s.p50                                     0.0129161 s        median of 81 runs
   env {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "threads": "1", "git": "abc"}
== sd_block (seed 0, 1 s, trace 0): 4 runs, failed_ops 0/4
   env {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "threads": "1", "git": "abc"}
{"correct": true, "attempted": 94, "failed": 0, "metrics": {\
"small_sweep.run_s.p50": {"value": 0.0129, "unit": "s"}, \
"small_sweep.peak_rss_mb": {"value": 41.2, "unit": "MB"}, \
"sd_block.run_s.p50": {"value": 0.45, "unit": "s"}}}
"""


def test_run_output_gives_its_result_line_and_env():
    summary, env = bench.parse_run_output(RUN_OUTPUT)
    assert (summary["correct"], summary["attempted"], summary["failed"]) == (True, 94, 0)
    assert env == {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "threads": "1", "git": "abc"}
    assert bench.by_workload(summary["metrics"]) == {
        "small_sweep": {"run_s.p50": 0.0129, "peak_rss_mb": 41.2}, "sd_block": {"run_s.p50": 0.45}}
    # A run of one workload prints its metrics without the workload's prefix.
    assert bench.by_workload({"run_s.p50": {"value": 0.45}}, "sd_block") == {
        "sd_block": {"run_s.p50": 0.45}}


@pytest.mark.parametrize("text", ["", "== sd_block\n", '{"correct": true}\n'])
def test_output_without_a_result_line_is_an_error(text):
    with pytest.raises(ValueError):
        bench.parse_run_output(text)


def _runs(parent, change, metric="run_s.p50"):
    return {"parent": [{"sd_block": {metric: v}} for v in parent],
            "change": [{"sd_block": {metric: v}} for v in change]}


def test_pair_statistics():
    parent = [0.50, 0.48, 0.49, 0.52, 0.47, 0.51]
    change = [0.46, 0.45, 0.50, 0.44, 0.46, 0.45]
    (row,) = pairs.summarize(_runs(parent, change), [SPECS["run_s.p50"]])
    assert row["parent_median"] == pytest.approx(0.495)
    # Quartiles interpolate between order statistics 0.47 0.48 0.49 0.50 0.51 0.52.
    assert (row["parent_q1"], row["parent_q3"]) == (pytest.approx(0.4825), pytest.approx(0.5075))
    assert row["change_median"] == pytest.approx(0.455)
    assert row["change_pct"] == pytest.approx(100 * (0.455 - 0.495) / 0.495)
    assert (row["better_pairs"], row["pairs"]) == (5, 6)  # 0.50 > 0.49 in the third pair
    assert row["gap_exceeds_iqr"]  # 0.040 against 0.025
    line, = pairs.format_rows([row])
    assert "better in 5 of 6" in line and "gap > IQR" in line


def test_pair_ratios_their_median_interval_and_sign_test():
    parent = [0.50, 0.48, 0.49, 0.52, 0.47, 0.51]
    change = [0.46, 0.45, 0.50, 0.44, 0.46, 0.45]
    (row,) = pairs.summarize(_runs(parent, change), [SPECS["run_s.p50"]])
    assert row["ratios"] == [c / p for p, c in zip(parent, change)]
    ordered = sorted(row["ratios"])
    assert row["ratio_median"] == pytest.approx((ordered[2] + ordered[3]) / 2)
    # Six ratios: [min, max] holds the median with probability 1 - 2/64; the next pair in,
    # 1 - 2 * 7/64 = 0.78125, falls short of 90%.
    assert row["ratio_interval"] == (ordered[0], ordered[5], 1 - 2 / 64)
    assert row["sign_p"] == 2 * (1 + 6) / 64  # 5 better, 1 worse
    line, = pairs.format_rows([row])
    assert f"ratio {row['ratio_median']:.4f} [{ordered[0]:.4f}-{ordered[5]:.4f}, 96.9%]" in line
    assert "sign p 0.219" in line and "better in 5 of 6" in line
    assert line.endswith(" ".join(f"{r:.4f}" for r in row["ratios"]))


@pytest.mark.parametrize("n, j, coverage", [
    (5, 1, 1 - 2 / 32),
    (10, 2, 1 - 2 * (1 + 10) / 1024),  # j = 3 would hold it with 1 - 2 * 56/1024 = 0.89
    (20, 6, 1 - 2 * (1 + 20 + 190 + 1140 + 4845 + 15504) / 2**20),  # j = 7: 0.885
])
def test_median_interval_takes_the_narrowest_order_statistics_at_90_percent(n, j, coverage):
    values = [float(v) for v in reversed(range(n))]  # the order statistics of 0 .. n-1
    assert pairs.median_interval(values) == (j - 1, n - j, coverage)
    assert coverage >= 0.90


def test_median_interval_needs_five_values():
    assert pairs.median_interval([1.0, 2.0, 3.0, 4.0]) is None  # [min, max]: 1 - 2/16 = 0.875
    assert pairs.median_interval([]) is None


@pytest.mark.parametrize("better, worse, p", [
    (9, 1, 2 * (1 + 10) / 1024),
    (1, 9, 2 * (1 + 10) / 1024),  # two-sided
    (10, 0, 2 / 1024),
    (8, 2, 2 * (1 + 10 + 45) / 1024),
    (5, 5, 1.0),
    (0, 0, 1.0),  # every pair a tie
])
def test_sign_test_p_values(better, worse, p):
    assert pairs.sign_test_p(better, worse) == pytest.approx(p)


def test_ties_count_for_neither_side_and_higher_can_be_better():
    (row,) = pairs.summarize(_runs([100.0, 100.0, 90.0], [100.0, 110.0, 80.0], "layer_apps_per_s"),
                             [SPECS["layer_apps_per_s"]])
    assert row["better_pairs"] == 1  # the tie and the drop count for nothing
    assert row["change_median"] == 100.0 and row["change_pct"] == 0.0
    assert not row["gap_exceeds_iqr"]


def test_one_pair_has_no_spread():
    (row,) = pairs.summarize(_runs([0.5], [0.4]), [SPECS["run_s.p50"]])
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (0.5, 0.5, 0.5)
    assert row["gap_exceeds_iqr"] and row["better_pairs"] == 1


def test_export_paths_have_equal_length(tmp_path):
    parent, change = pairs.side_dirs(tmp_path / "work")
    assert len(str(parent)) == len(str(change))
    assert parent.parent == change.parent == (tmp_path / "work").resolve()
    assert parent != change


def test_unequal_export_paths_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(pairs, "SIDES", ("parent", "changed"))
    with pytest.raises(ValueError, match="differ in length"):
        pairs.side_dirs(tmp_path)


def _bench(run_s, rss, lines=1900, names=48, code=1000):
    return {"end_to_end": {"sd_block": {"run_s.p50": run_s, "layer_apps_per_s": 1.0 / run_s,
                                        "peak_rss_mb": rss}},
            "src_asi_lines": lines, "src_asi_code_lines": code, "all_names": names}


def test_comparison_reads_each_change_against_its_bound():
    specs = [SPECS[name] for name in ("run_s.p50", "layer_apps_per_s", "peak_rss_mb")]
    lines, worse = bench.compare(_bench(0.50, 68.0), _bench(0.45, 66.0, 1960, 48, 1100), specs)
    assert not worse
    assert lines[0].startswith("sd_block") and "-10.00%" in lines[0]
    assert "bound 15% worse" in lines[0] and lines[0].endswith(": ok)")
    assert "+11.11%" in lines[1] and "higher is better: ok" in lines[1]
    assert lines[-3].split() == ["src_asi_lines", "1900", "->", "1960", "+60"]
    assert lines[-2].split() == ["src_asi_code_lines", "1000", "->", "1100", "+100"]
    assert lines[-1].split() == ["all_names", "48", "->", "48", "+0"]
    # A BENCH file written before the code-line count has none.
    old = _bench(0.50, 68.0)
    del old["src_asi_code_lines"]
    lines, _ = bench.compare(old, _bench(0.45, 66.0), specs)
    assert lines[-2].split() == ["src_asi_code_lines", "missing", "in", "the", "older", "file"]
    # 68 -> 76 MB is 11.8% worse, beyond peak_rss_mb's 10% bound.
    lines, worse = bench.compare(_bench(0.50, 68.0), _bench(0.50, 76.0), specs)
    assert worse and lines[2].endswith("WORSE than bound)")


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = ('"""A module\ndocstring."""\n\nimport os  # a comment after code counts\n'
            '# a comment\n\n\ndef f():\n    """One line."""\n    return """not a\n'
            'docstring"""\n\n\nclass C:\n    """A\n    class."""\n    x = 1\n')
    assert bench.code_lines(ast.parse(text), text) == 6


def test_comparison_names_a_metric_missing_from_the_older_file():
    old = _bench(0.5, 68.0)
    del old["end_to_end"]["sd_block"]["peak_rss_mb"]
    lines, worse = bench.compare(old, _bench(0.5, 68.0), [SPECS["peak_rss_mb"]])
    assert not worse and "missing in the older file" in lines[0]


def test_comparison_prints_the_box_independent_counts_exactly():
    old, new = _bench(0.5, 68.0), _bench(0.5, 68.0)
    old.update(run_handoffs={"sd_block": 59, "small_sweep": 2}, run_matrix_new={"sd_block": 4},
               run_files={"sd_block": 14})
    new.update(run_handoffs={"sd_block": 57, "small_sweep": 2}, run_matrix_new={"sd_block": 3},
               run_files={"sd_block": 14}, run_bytes={"sd_block": 5573124})
    lines, worse = bench.compare(old, new, [SPECS["run_s.p50"]])
    assert not worse
    assert [line.split() for line in lines[1:6]] == [
        ["sd_block", "run_handoffs", "59", "->", "57", "-2"],
        ["small_sweep", "run_handoffs", "2", "->", "2", "+0"],
        ["sd_block", "run_matrix_new", "4", "->", "3", "-1"],
        ["sd_block", "run_files", "14", "->", "14", "+0"],
        ["sd_block", "run_bytes", "missing", "in", "the", "older", "file"]]
    assert lines[-3].startswith("src_asi_lines")


def test_comparison_prints_the_hand_offs_of_each_kernel_exactly():
    old, new = _bench(0.5, 68.0), _bench(0.5, 68.0)
    old["run_handoffs_by_kernel"] = {"sd_block": {"_jump": 10, "asi_layer": 20}}
    new["run_handoffs_by_kernel"] = {"sd_block": {"_walk": 11, "asi_layer": 20},
                                     "mid_bypass": {"_walk": 1}}
    lines, worse = bench.compare(old, new, [SPECS["run_s.p50"]])
    assert not worse
    # A kernel that one file lacks hands off 0 there.
    assert [line.split() for line in lines[1:5]] == [
        ["mid_bypass", "run_handoffs_by_kernel", "missing", "in", "the", "older", "file"],
        ["sd_block", "handoffs", "_jump", "10", "->", "0", "-10"],
        ["sd_block", "handoffs", "_walk", "0", "->", "11", "+11"],
        ["sd_block", "handoffs", "asi_layer", "20", "->", "20", "+0"]]
    assert lines[5].startswith("src_asi_lines")


def test_matrix_constructions_are_counted_and_the_constructor_restored():
    init = numeric.Matrix.__init__
    with peak_traced.counting_matrix_new() as made:
        a = numeric.Matrix([[1.0, 2.0]])
        b = numeric.randn_matrix(numeric.Rng(0), 2, 3)  # no-copy results: no construction
        numeric.matmul(a, b)
    assert len(made) == 1
    assert numeric.Matrix.__init__ is init


def test_a_run_constructs_four_matrices():
    # The three attention weights and the style prompt; the seeded draws, the products and
    # every latent, query and layer output are no construction.
    assert peak_traced.measure("small_sweep")["run_matrix_new"] == 4
