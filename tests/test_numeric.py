import dataclasses
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asi import adablending, harness, numeric, sica
from asi.adablending import BlendConfig
from asi.errors import ConfigError, NonFiniteError, ShapeError
from asi.harness import ExperimentConfig, run_pipeline
from asi.numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows

from oracles import c_ordered_softmax, k_ordered_contract, naive_matmul, naive_softmax_row

bounded = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, min_rows=1, max_rows=5, min_cols=1, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = draw(st.lists(bounded, min_size=rows * cols, max_size=rows * cols))
    return Matrix(np.array(data).reshape(rows, cols))


class TestMatrix:
    def test_validates_rank(self):
        with pytest.raises(ShapeError):
            Matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            Matrix([[float("inf"), 0.0]])

    @pytest.mark.parametrize("values, dtype", [
        (np.array([[1.0 + 2.0j, 0.0]]), "complex128"),  # would lose its imaginary part
        ("ab", "<U2"),
        ([["1.5"]], "<U3"),  # a number's text is no number
        ([[object()]], "object"),
    ])
    def test_rejects_non_real_input_naming_its_dtype(self, values, dtype):
        with pytest.raises(ShapeError, match=f"real numbers, got dtype {dtype}$"):
            Matrix(values)

    def test_ragged_input_is_shape_error_naming_it(self):
        with pytest.raises(ShapeError, match="ragged input"):
            Matrix([[1.0], [1.0, 2.0]])

    def test_takes_bool_and_integer_input(self):
        assert Matrix([[True, False]]).a.tobytes() == np.array([[1.0, 0.0]]).tobytes()
        ints = Matrix(np.array([[-3, 7]], dtype=np.int8))
        assert ints.a.dtype == np.float64 and ints.a.tolist() == [[-3.0, 7.0]]
        assert Matrix(np.array([[2**40]], dtype=np.uint64)).a[0, 0] == 2.0**40

    def test_immutable(self):
        m = Matrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_repr_truncates_large_matrices(self):
        small = repr(Matrix(np.zeros((8, 8))))
        assert "0." in small
        big = repr(Matrix(np.zeros((9, 9))))
        assert "9x9" in big
        assert "0." not in big
        assert len(repr(Matrix(np.zeros((100, 100))))) < 80


class TestMatmul:
    def test_identity(self):
        out = matmul(Matrix(np.eye(2)), Matrix([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.a, [[5.0, 6.0], [7.0, 8.0]])

    def test_row_times_column(self):
        out = matmul(Matrix([[1.0, 2.0]]), Matrix([[3.0], [4.0]]))
        expected = naive_matmul([[1.0, 2.0]], [[3.0], [4.0]])
        assert out.rows == out.cols == 1
        assert np.array_equal(out.a, expected)
        assert out.a[0, 0] == 11.0

    def test_zero_row_annihilates(self):
        zero = Matrix(np.zeros((1, 3)))
        other = Matrix(np.arange(12, dtype=float).reshape(3, 4))
        assert np.array_equal(matmul(zero, other).a, np.zeros((1, 4)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"2x3.*4x5"):
            matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((4, 5))))

    @pytest.mark.parametrize("a, b, name, kind", [
        (np.eye(2), Matrix(np.eye(2)), "a", "float64 array"),
        (Matrix(np.eye(2)), [[1.0, 0.0], [0.0, 1.0]], "b", "list"),
        (Matrix(np.eye(2)), None, "b", "NoneType"),
    ])
    def test_non_matrix_operand_is_shape_error_naming_it(self, a, b, name, kind):
        with pytest.raises(ShapeError, match=f"operand {name} must be a Matrix, got {kind}$"):
            matmul(a, b)

    def test_overflow_is_an_error_not_inf(self):
        huge = Matrix([[1e300, 1e300]])
        with pytest.raises(ValueError):
            matmul(huge, Matrix([[1e300], [1e300]]))

    @given(matrices(), st.data())
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, a, data):
        b = data.draw(matrices(min_rows=a.cols, max_rows=a.cols))
        out = matmul(a, b).a
        expected = naive_matmul(a.a, b.a)
        scale = max(1.0, abs(a.a).max() * abs(b.a).max() * a.cols)
        assert np.abs(out - expected).max() / scale < 1e-12

    @given(matrices(), st.data())
    @settings(max_examples=40)
    def test_associativity(self, a, data):
        b = data.draw(matrices(min_rows=a.cols, max_rows=a.cols))
        c = data.draw(matrices(min_rows=b.cols, max_rows=b.cols))
        left = matmul(matmul(a, b), c).a
        right = matmul(a, matmul(b, c)).a
        scale = max(
            1.0, abs(a.a).max() * abs(b.a).max() * abs(c.a).max() * a.cols * b.cols
        )
        assert np.abs(left - right).max() / scale < 1e-9


# The benchmark workloads' shapes, a ragged one and the ragged one at head_dim=1
# (where only the Gram F^T F is not k-ordered), as config overrides.
RUN_SHAPES = {
    "small_sweep": dict(),
    "sd_block": dict(heads=8, head_dim=40, positions=1024, tokens=77),
    "mid_bypass": dict(heads=16, head_dim=16, positions=256, tokens=16, layers_per_step=4,
                       apply_asi=False),
    "ragged": dict(heads=3, head_dim=5, positions=17, tokens=7, blend=BlendConfig(n=2)),
    "head_dim_1": dict(heads=3, head_dim=1, positions=17, tokens=7, blend=BlendConfig(n=2)),
}
# At head_dim=1 the reduced axis of the Gram F^T F is innermost in both
# operands, and einsum does not sum it in k order.
UNPINNED_ORDER = pytest.mark.xfail(strict=True, raises=AssertionError,
                                   reason="the head_dim=1 Gram F^T F is not k-ordered")


class TestContractionOrder:
    """Every contraction a run makes sums each entry in k order, bit for bit.

    All the goldens rest on this: NumPy's einsum adds the products of an
    entry in order of the reduction index, multiply then add, from +0.0,
    whenever that index is not innermost in both operands. Stacking more
    query rows or steps into a block must not change that order. Every
    operand is C-contiguous, so einsum runs its contiguous loops, and a
    return to a strided layout fails here even where its bits still hold. At
    head_dim=1 the index is innermost in both operands of the Gram F^T F,
    and the order is not pinned there (an expected failure); no workload or
    golden uses head_dim=1.
    """

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=UNPINNED_ORDER if name == "head_dim_1" else ())
        for name in sorted(RUN_SHAPES)
    ])
    def test_every_contraction_of_one_chunk_is_k_ordered(self, tmp_path, monkeypatch, name):
        contract = numeric._contract
        seen, strided = set(), set()
        handed = _counting_submits(monkeypatch)

        def checked(a, b, out=None):
            result = contract(a, b, out)
            layout = (a.shape, a.strides, b.shape, b.strides)
            assert result.tobytes() == k_ordered_contract(a, b).tobytes(), layout
            seen.add((a.shape, b.shape))
            strided.update((x.shape, x.strides) for x in (a, b, result) if not x.flags.c_contiguous)
            return result

        for module in (numeric, sica, adablending):
            monkeypatch.setattr(module, "_contract", checked)
        monkeypatch.setattr(numeric, "_CPUS", 2)  # split as on a 2-CPU host, whatever this one has
        cfg = ExperimentConfig(**RUN_SHAPES[name], dump_dir=tmp_path)
        steps = harness._chunk_steps(cfg)
        run_pipeline(dataclasses.replace(cfg, timesteps=steps))  # one chunk of `steps` steps
        h, m, d, t, md = cfg.heads, cfg.positions, cfg.head_dim, cfg.tokens, cfg.model_dim
        # Where the kernels split, matmul makes a key or value projection in two halves of
        # its rows, project_q makes Q^T = W_q^T X^T from the rows of W_q^T of each half of
        # the heads, h // 2 and h - h // 2 of them, and the layer's first split makes both
        # tracks' products and both Grams over each half of the heads. With blending off
        # (mid_bypass), the layer stack splits by rows instead: each half projects its half
        # of the stacked rows with all of W_q^T and attends them with all h heads, and the
        # distances split by heads. At small_sweep's 64 steps project_q's 64 x 64 by
        # 64 x 1024 product (4,194,304 multiply-adds) splits, and so does the layer (65,536
        # entries a track x 32 multiply-adds each); at head_dim=1 the layer's Gram has one
        # column, and it runs whole.
        split = name in ("sd_block", "mid_bypass")
        halves = {h // 2, h - h // 2}
        rows = steps * m
        attention, cols, grams = {h}, rows, {h}
        queries = {((n * d, md), (md, rows))
                   for n in (halves if name in ("sd_block", "small_sweep") else {h})}
        if name == "mid_bypass":
            attention, cols, grams = {h}, rows // 2, halves
            queries = {((md, md), (md, r)) for r in {rows // 2, rows - rows // 2}}
        elif name != "head_dim_1":
            attention, grams = halves, halves

        def projection(rows, split):  # the row halves contracted, or all the rows at once
            halves = {rows // 2, rows - rows // 2} if split else {rows}
            return {((r, md), (md, md)) for r in halves}

        assert seen == {
            *projection(t, split),  # project_kv
            *queries,  # Q^T, from the stacked latents
            *{((n, t, d), (n, d, cols)) for n in attention},  # logits as K Q^T, all rows at once
            *{((n, d, t), (n, t, cols)) for n in attention},  # output as V^T P, P as the logits
            *{((n, steps, d, m), (n, steps, m, d)) for n in grams},  # Gram F^T F per step
        }
        assert not strided, strided  # (shape, strides) of each operand not C-contiguous
        assert steps == {"small_sweep": 64, "ragged": 183, "head_dim_1": 183}.get(name, 1)
        kernels = {kernel for kernel, _, _ in handed}
        if name == "sd_block":  # merge_heads's 2 passes over 1024 x 320 entries stay whole
            assert kernels == {"Rng.normals", "_walk", "matmul", "project_q", "asi_layer"}
        if name == "mid_bypass":  # no blending (apply_asi is off); a 256 x 256 jump stays whole
            assert kernels == {"Rng.normals", "matmul", "_bypass_layers", "head_distances"}
        if name == "small_sweep":  # project_q's upper 4 heads, then the layer's first split
            assert handed == [("project_q", 4, 8), ("asi_layer", 4, 8)]
        if name == "ragged":  # 46,665 entries a track x 38 multiply-adds
            assert handed == [("asi_layer", 1, 3)]
        if name == "head_dim_1":
            assert not handed

    def test_negative_zero_products_sum_to_positive_zero(self):
        a = np.array([[-0.0, 2.0]])
        b = np.array([[3.0, 1.0], [-0.0, -0.0]])
        expected = np.zeros((1, 2)).tobytes()
        assert k_ordered_contract(a, b).tobytes() == expected
        assert numeric._contract(a, b).tobytes() == expected


HELPER_NAME = "asi-contract-helper"  # the prefix of the helper thread's name


def _kernel(body) -> str:
    # The function that made a split's body: "matmul", "Rng.normals", ...
    return body.__qualname__.split(".<locals>")[0]


def _counting_submits(monkeypatch):
    """A list of (kernel, lo, hi) for each half handed to the helper's pool: the
    function whose body the half runs, and its range of axis 0."""
    handed = []
    submit = ThreadPoolExecutor.submit

    def counted(self, fn, *args, **kwargs):
        if args and args[0] is numeric._run_half:  # run in a copy of the caller's context
            body, lo, hi = args[1:]
            handed.append((_kernel(body), lo, hi))
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return handed


def _nan_filled_empty(monkeypatch):
    # np.empty fills its block with NaN, so a half that a split left unwritten shows in
    # the result instead of hiding behind a freed block that held the same bytes.
    empty = np.empty

    def nan_filled(*args, **kwargs):
        block = empty(*args, **kwargs)
        block.fill(np.nan)
        return block

    monkeypatch.setattr(np, "empty", nan_filled)


@pytest.fixture(autouse=True)
def _pool_left_drained():
    # A test that fails with a job in flight leaves it queued or running; the next test
    # starts once it is done, so a slow job of one test cannot delay the next one's splits.
    # The pool's one worker takes jobs in order, so a no-op job ends after every earlier one.
    yield
    if numeric._pool is not None:
        numeric._pool.submit(int).result(timeout=10)


def _split_operands():
    """Two matrices whose product splits: 1025 x 33 times 33 x 33, an odd row count."""
    gen = np.random.default_rng(8)
    return Matrix(gen.standard_normal((1025, 33))), Matrix(gen.standard_normal((33, 33)))


def _one_einsum(a, b):
    return np.einsum("...ik,...kj->...ij", a.a, b.a).tobytes()


class TestSplitRule:
    """_split alone decides whether work splits, from the shape of its largest product.

    Work runs whole where that product has one column (at any size), below
    _MIN_SPLIT multiply-adds, over fewer than two entries of axis 0, or on
    one CPU; otherwise the helper thread runs exactly (n // 2, n).
    """

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("cols", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, numeric._MIN_SPLIT // 2 - 1, numeric._MIN_SPLIT // 2,
                                      1 << 40])
    def test_whole_or_the_upper_half_to_the_helper(self, monkeypatch, size, cols, n, cpus):
        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", cpus)
        ran = []
        numeric._split(lambda lo, hi: ran.append((lo, hi)), n, size, cols)
        splits = cols > 1 and size * cols >= numeric._MIN_SPLIT and n >= 2 and cpus == 2
        assert [(lo, hi) for _, lo, hi in handed] == ([(n // 2, n)] if splits else [])
        assert sorted(ran) == ([(0, n // 2), (n // 2, n)] if splits else [(0, n)])

    def test_a_one_column_matmul_stays_whole(self, monkeypatch):
        # 1.5 * 2**20 multiply-adds, the reduced axis innermost in both operands: einsum
        # sums each row of the upper half (1 of 3) in other blocks than it does whole.
        gen = np.random.default_rng(3)
        a, b = Matrix(gen.standard_normal((3, 1 << 19))), Matrix(gen.standard_normal((1 << 19, 1)))
        assert a.a.size * b.cols >= numeric._MIN_SPLIT
        halves = [np.einsum("ik,kj->ij", a.a[lo:hi], b.a) for lo, hi in ((0, 1), (1, 3))]
        assert np.concatenate(halves).tobytes() != _one_einsum(a, b)
        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", 2)
        assert matmul(a, b).a.tobytes() == _one_einsum(a, b)
        assert not handed


class TestSplitContraction:
    """A product split over two threads has the bytes of one unsplit einsum."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_split_bytes_equal_one_unsplit_einsum(self, monkeypatch, cpus):
        a, b = _split_operands()
        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", cpus)
        result = matmul(a, b)
        assert handed == ([("matmul", 512, 1025)] if cpus == 2 else [])
        assert result.a.tobytes() == _one_einsum(a, b)

    def test_a_split_nested_in_a_half_runs_whole(self, monkeypatch):
        # A second hand-off from a half would gain nothing, and from the helper's half it
        # would wait on itself for ever (run from a thread here, so that a hang fails at
        # the join's timeout).
        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", 2)
        inner = {}

        def body(lo, hi):
            ran = inner.setdefault((lo, hi), [])
            numeric._split(lambda lo, hi: ran.append((lo, hi)), 5, numeric._MIN_SPLIT, 2)

        caller = threading.Thread(target=numeric._split, args=(body, 5, numeric._MIN_SPLIT, 2))
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert [(lo, hi) for _, lo, hi in handed] == [(2, 5)]  # the outer split, nothing more
        assert inner == {(0, 2): [(0, 5)], (2, 5): [(0, 5)]}

    def test_helper_thread_error_reaches_the_caller(self, monkeypatch):
        a, b = _split_operands()
        einsum = np.einsum

        def failing_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return einsum(*args, **kwargs)

        monkeypatch.setattr(numeric, "_CPUS", 2)
        monkeypatch.setattr(np, "einsum", failing_off_main)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="helper failed"):
            matmul(a, b)
        new = set(threading.enumerate()) - threads
        assert len(new) <= 1 and all(t.name.startswith(HELPER_NAME) for t in new)  # the helper

    def test_a_failed_caller_half_waits_for_the_helper_half(self, monkeypatch):
        a, b = _split_operands()
        expected = _one_einsum(a, b)
        einsum, log, failing = np.einsum, [], [True]

        def failing_on_main(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                if failing:
                    raise RuntimeError("caller failed")
                return einsum(*args, **kwargs)
            time.sleep(0.1)  # the helper's half ends well after the caller's has failed
            result = einsum(*args, **kwargs)
            log.append("helper done")
            return result

        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", 2)
        monkeypatch.setattr(np, "einsum", failing_on_main)
        with pytest.raises(RuntimeError, match="caller failed"):
            matmul(a, b)
        assert log == ["helper done"]
        failing.clear()
        assert matmul(a, b).a.tobytes() == expected
        assert len(handed) == 2 and log == ["helper done"] * 2

    def test_an_interrupted_wait_leaves_no_completion_behind(self, monkeypatch):
        # SIGALRM ends the caller's wait for the helper; the next splits queue behind its
        # half and still wait for their own.
        if not hasattr(signal, "setitimer"):
            pytest.skip("needs signal.setitimer")
        a, b = _split_operands()
        expected = _one_einsum(a, b)
        einsum, delays = np.einsum, [0.3]

        def slow_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(delays[-1])  # the helper's half ends after the caller's
            return einsum(*args, **kwargs)

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", 2)
        monkeypatch.setattr(np, "einsum", slow_off_main)
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Interrupted):
                matmul(a, b)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # Queued behind the interrupted split's half, which is thus done when this returns.
        assert matmul(a, b).a.tobytes() == expected
        assert len(handed) == 2
        delays.append(0.1)
        _nan_filled_empty(monkeypatch)  # an unwritten half would show
        assert matmul(a, b).a.tobytes() == expected
        assert len(handed) == 3

    def test_threads_splitting_under_contention_get_the_unsplit_bytes(self, monkeypatch):
        # More threads than CPUs, switching often, each splitting again and again.
        a, b = _split_operands()
        expected = _one_einsum(a, b)
        results = []
        monkeypatch.setattr(numeric, "_CPUS", 2)
        _nan_filled_empty(monkeypatch)  # an unwritten half would show

        def split_repeatedly():
            for _ in range(10):
                results.append(matmul(a, b).a.tobytes() == expected)

        threads = [threading.Thread(target=split_repeatedly) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 40

    def test_import_and_default_run_start_no_thread_and_splits_start_one(self, tmp_path):
        # In a fresh interpreter: `import asi` and a default run (nothing splits) leave the
        # main thread alone and import no `concurrent.futures`. Four threads racing their
        # first split make one pool and leave one helper (a slow pool constructor widens the
        # window in which each could make one); a run at the mid_bypass shape leaves still
        # one, and a forked child's first split makes its own (SIGALRM ends a child that
        # hangs).
        script = f"""
import os, signal, sys, threading, time, warnings
import numpy as np
import asi
from asi import numeric
from asi.harness import ExperimentConfig, run_pipeline
numeric._CPUS = 2
def helpers():
    others = [t for t in threading.enumerate() if t is not threading.main_thread()]
    return len(others), all(t.name.startswith({HELPER_NAME!r}) for t in others)
print(threading.active_count(), "concurrent.futures" in sys.modules)
run_pipeline(ExperimentConfig(timesteps=2, dump_dir={str(tmp_path / "default")!r}))
print(threading.active_count(), "concurrent.futures" in sys.modules)
from concurrent.futures import ThreadPoolExecutor
init, made = ThreadPoolExecutor.__init__, []
def slow_init(*args):
    made.append(args)
    time.sleep(0.05)
    init(*args)
ThreadPoolExecutor.__init__ = slow_init
a, b = numeric.Matrix(np.ones((1024, 64))), numeric.Matrix(np.ones((64, 64)))
start = threading.Barrier(4)
racers = [threading.Thread(target=lambda: (start.wait(), numeric.matmul(a, b)))
          for _ in range(4)]
for racer in racers:
    racer.start()
for racer in racers:
    racer.join()
print(len(made), *helpers())
run_pipeline(ExperimentConfig(timesteps=2, dump_dir={str(tmp_path / "mid")!r},
             **{RUN_SHAPES["mid_bypass"]!r}))
print(*helpers())
if hasattr(os, "fork"):
    warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        os._exit(0 if (numeric.matmul(a, b).a == 64.0).all() else 1)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
else:
    print(0)
"""
        src = os.path.dirname(os.path.dirname(numeric.__file__))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False", "1", "False", "1", "1", "True", "1", "True",
                                       "0"]
        assert done.stderr == ""


class TestSplitChecks:
    """A split kernel checks the finiteness of its own rows inside each half."""

    @pytest.mark.parametrize("row", [3, 1000])  # in the caller's half, in the helper's
    def test_overflow_in_either_half_is_the_same_error(self, monkeypatch, row):
        a, _ = _split_operands()
        big = a.a.copy()
        big[row] = 1e308
        handed = _counting_submits(monkeypatch)
        monkeypatch.setattr(numeric, "_CPUS", 2)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^matmul: a @ b must be finite \(no NaN/Inf\)$"):
            matmul(Matrix(big), Matrix(np.ones((33, 33))))
        assert [(lo, hi) for _, lo, hi in handed] == [(512, 1025)]


class TestSoftmaxRows:
    def test_a_logit_beyond_the_float64_range_below_the_max_gets_exactly_zero(self):
        # The max subtraction overflows to -Inf, whose exponential is 0: the correctly
        # rounded softmax, with no NumPy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softmax_rows(np.array([[1e308, -1e308]]))
        assert out.tolist() == [[1.0, 0.0]]

    def test_equal_logits_are_uniform(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_large_equal_logits_are_stable(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_closed_form_quarter(self):
        # e^0 / (e^0 + e^ln3) = 1/4; verified against an arbitrary-precision oracle.
        mpmath = pytest.importorskip("mpmath")
        out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
        hi = mpmath.mpf(1) / (1 + mpmath.exp(mpmath.log(3)))
        assert abs(out[0, 0] - float(hi)) < 1e-12
        assert abs(out[0, 0] - 0.25) < 1e-12
        assert abs(out[0, 1] - 0.75) < 1e-12

    def test_matches_naive_oracle(self):
        rng = Rng(5)
        m = randn_matrix(rng, 6, 7)
        out = softmax_rows(m.a.copy())
        for i in range(m.rows):
            expected = naive_softmax_row(list(m.a[i]))
            assert np.abs(out[i] - expected).max() < 1e-12

    @given(matrices())
    @settings(max_examples=60)
    def test_rows_sum_to_one(self, m):
        scaled = Matrix(m.a * 10.0)  # logit magnitudes up to 1e4
        sums = softmax_rows(scaled.a.copy()).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    @given(matrices(), st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=60)
    def test_shift_invariance(self, m, c):
        shifted = Matrix(m.a + c)
        assert np.abs(softmax_rows(m.a.copy()) - softmax_rows(shifted.a.copy())).max() < 1e-12

    @pytest.mark.parametrize("shape", [(2, 77, 40), (77, 40), (3, 5, 1), (1, 1, 9)])
    def test_transposed_view_gives_the_contiguous_bits_in_its_own_buffer(self, shape):
        # attend passes its (h, t, rows) logits as an (h, rows, t) view.
        block = Rng(11).normals(math.prod(shape)).reshape(shape)
        view = block.swapaxes(-1, -2)
        rows = view.reshape(-1, view.shape[-1])  # a copy: the view's rows in order
        signed_zeros = np.where(np.arange(rows.shape[1]) % 3 == 0, -0.0, 0.0)
        rows[0] = signed_zeros  # all-zero rows: max +0.0 or -0.0 by scan order
        rows[1 % len(rows)] = -signed_zeros
        rows[-1, ::2] = rows[-1].max() + 1.0  # a repeated max
        view[...] = rows.reshape(view.shape)
        expected = softmax_rows(np.ascontiguousarray(view))  # a C-ordered copy, rows contiguous
        oracle = c_ordered_softmax(view)
        out = softmax_rows(view)
        assert out is view
        assert out.tobytes() == expected.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("cols", [*range(1, 18), 77, 127, 128, 129, 136, 255, 256, 257, 1025])
    def test_row_sums_are_numpys_sums_of_contiguous_rows(self, cols):
        # Both signs over six decades of magnitude, so another order of the adds would show.
        gen = np.random.default_rng(cols)
        block = gen.standard_normal((2, cols, 5)) * 10.0 ** gen.integers(-3, 3, (2, cols, 5))
        block[0, :, 0] = -0.0  # an all -0.0 row sums to +0.0
        view = block.swapaxes(-1, -2)  # (2, 5, cols) rows, as attend passes its logits
        expected = np.ascontiguousarray(view).sum(axis=-1).tobytes()
        assert numeric._row_sums(view).tobytes() == expected
        assert numeric._row_sums(np.ascontiguousarray(view)).tobytes() == expected

    @pytest.mark.parametrize("value, kind", [
        ([[0.0, 1.0]], "list"),
        (None, "NoneType"),
        (np.array([[0, 1]]), "int64 array"),
        (np.array([[0.0, 1.0]], dtype=np.float32), "float32 array"),
        (np.array([[0.0, 1.0]], dtype=complex), "complex128 array"),
    ])
    def test_non_float64_input_is_shape_error_naming_its_kind(self, value, kind):
        with pytest.raises(ShapeError, match=f"float64 array, got {kind}"):
            softmax_rows(value)

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3, 0), (), (0, 3)])
    def test_an_empty_axis_or_rank_0_is_shape_error(self, shape):
        with pytest.raises(ShapeError, match=r"^softmax_rows: a needs 1 to 64 non-empty "
                                             r"dimensions, got \(.*\)$"):
            softmax_rows(np.zeros(shape))

    def test_read_only_input_is_shape_error_and_left_as_it_was(self):
        m = randn_matrix(Rng(12), 3, 4)
        before = m.a.tobytes()
        with pytest.raises(ShapeError, match="read-only"):
            softmax_rows(m.a)
        assert m.a.tobytes() == before

    def test_entries_in_unit_interval(self):
        out = softmax_rows(np.array([[5.0, -3.0, 0.0]]))
        assert ((out > 0.0) & (out <= 1.0)).all()


class TestRng:
    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), np.int32(0)])
    def test_a_numpy_integer_seed_draws_the_python_seeds_stream(self, seed):
        rng = Rng(seed)
        assert type(rng.seed) is int and rng.seed == int(seed)
        assert rng.normals(5).tobytes() == Rng(int(seed)).normals(5).tobytes()

    def test_different_seed_different_matrix(self):
        a = randn_matrix(Rng(42), 4, 4)
        b = randn_matrix(Rng(43), 4, 4)
        assert not np.array_equal(a.a, b.a)

    def test_unindexable_draw_count_is_memory_error(self):
        rng = Rng(42)
        with pytest.raises(MemoryError):
            rng.normals(2**62)
        assert rng.normals(1)[0] == Rng(42).normals(1)[0]  # the failed draw consumed nothing

    @pytest.mark.parametrize("draw", ["uniforms", "normals"])
    @pytest.mark.parametrize("count", [-1, 1.5, True])
    def test_bad_draw_count_is_shape_error_and_consumes_nothing(self, draw, count):
        rng = Rng(5)
        with pytest.raises(ShapeError):
            getattr(rng, draw)(count)
        assert getattr(rng, draw)(3).tobytes() == getattr(Rng(5), draw)(3).tobytes()

    def test_zero_draws_are_empty(self):
        rng = Rng(5)
        assert rng.uniforms(0).shape == rng.normals(0).shape == (0,)
        assert rng.uniforms(1)[0] == Rng(5).uniforms(1)[0]

    def test_moments_at_scale(self):
        m = randn_matrix(Rng(7), 256, 256)
        assert abs(m.a.mean()) < 0.02
        assert abs(m.a.var() - 1.0) < 0.05

    def test_stream_reproducible_over_many_draws(self):
        assert np.array_equal(Rng(123).normals(10_000), Rng(123).normals(10_000))
        assert np.array_equal(Rng(123).uniforms(10_000), Rng(123).uniforms(10_000))

    def test_scalar_draws_match_block_draws(self):
        block = Rng(9).normals(5)
        rng = Rng(9)
        singles = [rng.normals(1)[0] for _ in range(5)]
        assert np.array_equal(block, np.array(singles))

    def test_block_boundaries_do_not_show_in_the_draws(self):
        block = numeric._NORMALS_PER_BLOCK
        n = 3 * block + 5
        rng = Rng(17)
        pieces = [rng.normals(size) for size in (1, block - 1, block + 2, n - 2 * block - 2)]
        assert np.concatenate(pieces).tobytes() == Rng(17).normals(n).tobytes()

    # Draws of the sd_block latent, the mid_bypass weights, an odd block count with a short
    # last block, and one block, which never splits.
    @pytest.mark.parametrize("count, split", [(1024 * 320, True), (256 * 256, True),
                                              (6 * numeric._NORMALS_PER_BLOCK + 5, True),
                                              (4096, False)])
    def test_split_draws_equal_whole_draws_and_move_the_counter_alike(self, monkeypatch, count,
                                                                       split):
        draws, counters = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(numeric, "_CPUS", cpus)
            handed = _counting_submits(monkeypatch)
            rng = Rng(21)
            rng.uniforms(3)  # a draw that starts mid-stream
            draws.append((rng.normals(count).tobytes(), rng.uniforms(5).tobytes()))
            counters.append(rng._counter)
        blocks = -(-count // numeric._NORMALS_PER_BLOCK)
        assert handed == ([("Rng.normals", blocks // 2, blocks)] if split else [])
        assert draws[0] == draws[1]
        assert counters[0] == counters[1] == 3 + 2 * count + 5

    def test_uniform_range(self):
        u = Rng(11).uniforms(50_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_draw_order_is_stateful(self):
        rng = Rng(4)
        first = rng.normals(3)
        second = rng.normals(3)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "0", True])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            Rng(seed)

    def test_randn_rejects_zero_dims(self):
        with pytest.raises(ShapeError):
            randn_matrix(Rng(0), 0, 4)
        with pytest.raises(ShapeError):
            randn_matrix(Rng(0), 4, 0)

    @pytest.mark.parametrize("rows, cols", [(True, 2), ("2", 2), (2, 2.0), (2, False)])
    def test_randn_rejects_non_integer_dims_by_value(self, rows, cols):
        with pytest.raises(ShapeError, match=f"got {rows!r}, {cols!r}"):
            randn_matrix(Rng(0), rows, cols)

    def test_randn_takes_numpy_integer_dims(self):
        m = randn_matrix(Rng(0), np.int64(2), np.int32(3))
        assert m.a.tobytes() == randn_matrix(Rng(0), 2, 3).a.tobytes()
