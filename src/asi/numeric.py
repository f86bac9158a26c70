"""Dense float64 kernels: shape-strict matrices, row softmax, and a seeded PRNG.

All arithmetic is 64-bit, and each output entry of a product is summed in a
fixed order (``np.einsum`` rather than BLAS), so identical inputs produce
bit-identical outputs regardless of CPU count, thread count or BLAS
backend. A large product may be split over two threads, which leaves every
entry's order as it is: the caller computes one half, and the one worker of
a process-wide thread pool computes the other. The first split makes the
pool (importing the package starts no thread), and a forked child makes its
own. :class:`Matrix` is the validated 2-D type at the edges (inputs,
weights, latents, projections and merged layer outputs); the layer kernels
work on plain read-only arrays, whole feature blocks at a time.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError

__all__ = ["Matrix", "Rng", "matmul", "softmax_rows", "randn_matrix"]


def _readonly(a: np.ndarray) -> np.ndarray:
    """Flag `a` read-only and return it: no feature block is written after it is built."""
    a.flags.writeable = False
    return a


class Matrix:
    """An immutable 2-D block of finite float64 values, row-major.

    The wrapped array is read-only; operations return new matrices. Entries
    are validated to be finite on construction, so any public operation that
    would produce NaN/Inf fails loudly instead of propagating garbage.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        a = np.array(values, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2:
            raise ShapeError(f"Matrix requires 2-D data, got {a.ndim}-D")
        if min(a.shape) < 1:
            raise ShapeError(f"Matrix dimensions must be >= 1, got {'x'.join(map(str, a.shape))}")
        if not np.isfinite(a).all():
            raise NonFiniteError("Matrix entries must be finite (no NaN/Inf)")
        self._a = _readonly(a)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def a(self) -> np.ndarray:
        """Read-only 2-D view of the entries."""
        return self._a

    def __repr__(self) -> str:
        # Diagnostics stay small: entries are shown only for tiny matrices.
        if self.rows <= 8 and self.cols <= 8:
            body = np.array2string(self._a, separator=", ")
            return f"Matrix({body})"
        return f"Matrix(<{self.rows}x{self.cols}>)"


# CPUs this process may run on, read once: a product is split over two threads
# only when a second one is there to take the other half.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Multiply-adds from which a product is split in two. Submitting a half to the
# helper's pool and waiting for it costs about 60 us (p50, 2-CPU x86 box), and
# einsum does about 2.5 G multiply-adds/s, so a split saves time from about
# 2 * 60e-6 * 2.5e9 = 3e5 multiply-adds on. 2**20 stays, about 3.5x over that
# break-even: two halves run well short of twice as fast, and it leaves the
# default run's largest product (524,288) unsplit, where no gain was measured.
_MIN_SPLIT = 1 << 20

_LAYOUT = "...ik,...kj->...ij"


# The one helper thread per process: the worker of a one-thread pool, made by the
# first split. `import asi` starts no thread and does not import
# `concurrent.futures`, which pulls in `logging` (about 6 ms).
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # A forked child inherits no thread, so its first split makes its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _contract(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one fixed-order product, a @ b over the last two axes of 2-D or stacked blocks.

    Stacked operands share their leading axes. The result goes into `out`
    when given; without it the result is C-ordered, which is einsum's own
    layout for every product here but attend's V^T P^T, whose caller passes
    the layout it needs as `out`. A product of at least `_MIN_SPLIT`
    multiply-adds is split in two along axis 0 of the result (the rows of a
    2-D `a`, else the head axis of both operands) when a second CPU is there:
    the process's one helper thread computes the upper half while the caller
    computes the lower half, each by einsum into its slice of one result
    buffer, and the caller waits for the helper's half before it returns or
    re-raises an error of either half. Splits from several threads queue for
    the helper in turn. Each entry is summed by the same inner loop over the
    same strides as unsplit, so its bits do not depend on the split. That
    fails where the reduced axis is innermost in both operands (V^T P^T and
    F^T F at head_dim=1): einsum then sums it in blocks whose bounds depend on
    the extent of the outer axes, so a half can sum a long reduction in other
    blocks than the whole does. Those products stay unsplit.
    """
    global _pool
    if (a.size * b.shape[-1] < _MIN_SPLIT or a.shape[0] < 2 or _CPUS < 2
            or a.strides[-1] == b.strides[-2] == a.itemsize):
        return np.einsum(_LAYOUT, a, b, out=out)
    if out is None:
        out = np.empty((*a.shape[:-1], b.shape[-1]))
    half = a.shape[0] // 2
    b_lo, b_hi = (b, b) if b.ndim == 2 else (b[:half], b[half:])
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                from concurrent.futures import ThreadPoolExecutor
                _pool = ThreadPoolExecutor(1, "asi-contract-helper")
    # Only einsum runs on the helper, so every traced asi call stays on the caller's thread.
    job = _pool.submit(np.einsum, _LAYOUT, a[half:], b_hi, out=out[half:])
    try:
        np.einsum(_LAYOUT, a[:half], b_lo, out=out[:half])
    finally:
        error = job.exception()  # waits for the helper's half, also when the caller's raised
    if error is not None:
        raise error
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Strict matrix product a @ b.

    Computed with a fixed-order contraction: each entry is summed in k order
    whether or not the rows are split over two threads, so the result is
    reproducible bit-for-bit across runs, CPU counts and BLAS backends.
    """
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ for ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})"
        )
    return Matrix(_contract(a.a, b.a))


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with per-row max subtraction for overflow safety.

    Takes a 2-D matrix of rows or a whole (heads, rows, cols) block, in any
    memory layout (a transposed view included), and returns a new C-ordered
    array of the same shape, built in a single new buffer (the block can be
    large). Any layout of the same values gives the same bits: the row max
    is exact in any order (a -0.0 or +0.0 max leaves every exponential as
    it is), and the row sums run over the C-ordered buffer. Every output row
    sums to 1 (within float64 rounding) and all entries lie in (0, 1] for
    finite input.
    """
    e = np.subtract(a, a.max(axis=-1, keepdims=True), order="C")
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# splitmix64 finalizer constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_MAX_WORDS = np.iinfo(np.intp).max // 8  # uint64 words in the largest indexable array
_NORMALS_PER_BLOCK = 1 << 13  # normals drawn per block of the stream, whatever the count


def _splitmix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _is_int(value) -> bool:
    # A Python or NumPy integer; a bool is no count, dimension or timestep.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_number(value) -> int | float | None:
    # The Python int or float of a Python or NumPy integer or float, else None
    # (a bool is no number). Config fields store it, so a NumPy scalar prints in
    # CSVs and directory names as the Python value does, and range checks run
    # in float64: a float32 Inf is no finite number.
    if _is_int(value):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return None


def _check_count(count: int, words_each: int) -> None:
    # Raised before a draw moves the counter or allocates, so a bad count consumes nothing.
    if not _is_int(count) or count < 0:
        raise ShapeError(f"draw count must be a non-negative integer, got {count!r}")
    words = words_each * int(count)
    if words > _MAX_WORDS:
        raise MemoryError(f"cannot draw {words} words: no array can hold them")


class Rng:
    """Deterministic counter-based PRNG: splitmix64 stream plus Box-Muller.

    The raw stream is ``z_k = splitmix64(seed + (k+1) * 0x9E3779B97F4A7C15)``
    for k = 0, 1, 2, ... (all arithmetic mod 2**64). Draws consume the stream
    in a fixed layout:

    * one uniform consumes one raw word:  ``u = (z >> 11) * 2**-53`` in [0, 1)
    * one normal consumes two raw words (a, b) and keeps only the cosine
      branch of Box-Muller: ``sqrt(-2 ln u1) * cos(2 pi u2)`` with
      ``u1 = ((a >> 11) + 1) * 2**-53`` in (0, 1] and ``u2 = (b >> 11) * 2**-53``.

    Identical seeds therefore give identical draw sequences everywhere the
    splitmix64 constants and IEEE-754 doubles behave identically. An Rng is
    single-owner state: it must not be shared across threads.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {type(seed).__name__}")
        if not 0 <= seed <= _U64_MASK:
            raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = seed
        self._counter = 0

    def _raw(self, count: int) -> np.ndarray:
        _check_count(count, 1)
        start = self._counter
        self._counter += count
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = np.uint64(self.seed) + idx * _GAMMA
        return _splitmix64(state)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform draws in [0, 1)."""
        return (self._raw(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, count: int) -> np.ndarray:
        """`count` standard-normal draws (two raw words each).

        The output is filled a fixed-size block of the stream at a time, so the
        temporaries stay small; as each word depends only on its index, the
        draws are bit for bit those of one whole-stream pass.
        """
        _check_count(count, 2)
        out = np.empty(count)
        for start in range(0, count, _NORMALS_PER_BLOCK):
            raw = self._raw(2 * min(_NORMALS_PER_BLOCK, count - start))
            u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
            u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
            out[start:start + len(u1)] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        return out


def randn_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    """rows x cols matrix of standard-normal draws, filled in row-major order."""
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise ShapeError(f"randn_matrix dimensions must be integers >= 1, got {rows!r}, {cols!r}")
    return Matrix(rng.normals(rows * cols).reshape(rows, cols))
