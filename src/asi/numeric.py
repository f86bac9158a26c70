"""Dense float64 kernels: shape-strict matrices, an in-place row softmax, and a seeded PRNG.

All arithmetic is 64-bit, and each output entry of a product is summed in a
fixed order (``np.einsum`` rather than BLAS), so identical inputs produce
bit-identical outputs regardless of CPU count, thread count or BLAS
backend. Large work may be split in two along its first axis, which leaves
every entry's bits as they are: the caller runs one half, and the one
worker of a process-wide thread pool runs the other (:func:`_split`, which
alone decides whether work splits, and whose docstring lists the stages
that split and how each states its work).

The first split makes the pool (importing the package starts no thread),
and a forked child makes its own. Data moves through the package as plain
read-only float64 arrays: latents, queries and merged layer outputs are 2-D,
feature blocks (heads, ..., positions, head_dim). :class:`Matrix` is left
only where :func:`matmul` reads it: the attention weights and prompts it
multiplies, and the draws of :func:`randn_matrix`. The row softmax alone
writes its argument: it normalizes attention's own logits buffer in place.
Every array argument of the package passes one check, :func:`_check_array`
(an ndarray of one dtype, with a range of dimensions and no empty axis),
whose ShapeError names the function and the argument, as does every
NonFiniteError.
"""

from __future__ import annotations

import contextvars
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
    would produce NaN/Inf fails loudly instead of propagating garbage. Bool,
    integer and float input is taken; complex, string or object input is a
    ShapeError.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        try:
            a = np.asarray(values)
        except ValueError as exc:  # a ragged nested list
            raise ShapeError(f"Matrix needs rectangular data, got a ragged input ({exc})") from exc
        if a.dtype.kind not in "biuf":  # a complex value would lose its imaginary part
            raise ShapeError(f"Matrix entries must be real numbers, got dtype {a.dtype}")
        a = np.array(a, dtype=np.float64, order="C", copy=True)
        _check_array("Matrix: values", a, least=2, most=2)
        self._a = _readonly(_check_finite(a, "Matrix: values"))

    @classmethod
    def _of(cls, a: np.ndarray) -> Matrix:
        # The no-copy path, for a fresh non-empty 2-D C-ordered float64 block that its
        # maker has checked finite: it becomes the matrix's read-only entries.
        m = cls.__new__(cls)
        m._a = _readonly(a)
        return m

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


def _check_array(what: str, x, dtype=np.float64, least: int = 2, most: int = 64) -> None:
    # The one block check: x is an ndarray of exactly `dtype`, with `least` to `most` (NumPy's
    # limit) dimensions, none empty. `what` names the function and the argument.
    if not isinstance(x, np.ndarray) or x.dtype != dtype:
        raise ShapeError(f"{what} must be a {np.dtype(dtype)} array, got {_kind(x)}")
    if not least <= x.ndim <= most or 0 in x.shape:
        raise ShapeError(f"{what} needs {least} to {most} non-empty dimensions, got {x.shape}")


def _check_finite(a: np.ndarray, what: str) -> np.ndarray:
    # Return `a`, checked: NaN or Inf in it is a NonFiniteError naming the function and the
    # argument, or what the function made.
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} must be finite (no NaN/Inf)")
    return a


def _check_type(what: str, x, cls: type, error: type = ShapeError) -> None:
    # x is a `cls`, else an `error` naming the function and the argument.
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise error(f"{what} must be {article} {cls.__name__}, got {_kind(x)}")


# CPUs this process may run on, read once: work is split over two threads only
# when a second one is there to take the other half.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Multiply-adds from which work is split in two. Submitting a half to the
# helper's pool and waiting for it costs about 60 us (p50, 2-CPU x86 box), and
# einsum does about 2.5 G multiply-adds/s, so a split saves time from about
# 2 * 60e-6 * 2.5e9 = 3e5 multiply-adds on. 2**20 stays, about 3.5x over that
# break-even: two halves run well short of twice as fast, and an 8-step block's
# query projection (524,288) gained nothing split. The default run's 50-step one
# (3,276,800) splits, so its first run starts the helper thread.
# An elementwise pass costs about as much per entry (0.3-0.6 ns for a check,
# a copy or a transposing copy of an sd-sized latent), so entry-passes are
# held to the same threshold.
_MIN_SPLIT = 1 << 20

_LAYOUT = "...ik,...kj->...ij"


# The one helper thread per process: the worker of a one-thread pool, made by the
# first split. `import asi` starts no thread and does not import
# `concurrent.futures`, which pulls in `logging` (about 6 ms).
_pool = None
_pool_lock = threading.Lock()
# Set on a thread while it runs one half of a split: a split inside a half runs
# whole, so the helper never waits on a job queued behind its own.
_in_half = threading.local()


def _forget_pool() -> None:
    # A forked child inherits no thread, so its first split makes its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(body, n: int, size: int, cols: int) -> None:
    """Run body(lo, hi) over [0, n) of an axis 0, in two halves where that pays and keeps the bits.

    The body states its work as size * cols: for a product, its largest
    one's `size` entries of the first operand and `cols` columns; for
    elementwise work, `size` entries and `cols` passes over each. The
    stages that split (this is the package's one list of them) and their
    statements:

    * Rng.normals, n blocks of the stream: count draws x 35 passes;
    * the sampler walk (ddim._walk), n rows: entries x (5 jumps + 2) passes;
    * matmul, n rows: a.size entries x b's columns;
    * sica.project_q, n heads: W_q^T's size x rows, the product W_q^T X^T;
    * harness._bypass_layers, n stacked rows: latents.size x model_dim (their
      W_q^T X^T), or one column under 4 rows, whose halves would attend one row;
    * adablending.asi_layer's first split, n heads: a track's f.size x
      2 (t_s + t_c + head_dim), its tracks' and Grams' multiply-adds, or one
      column at head_dim=1; its second (fusion and blend), f.size x head_dim;
    * adablending.head_distances, n heads: the Gram F^T F of its block,
      f.size x head_dim.

    From _MIN_SPLIT (size * cols), n >= 2 and a second CPU, the process's
    one helper thread runs body(n // 2, n) while the caller runs
    body(0, n // 2); otherwise the caller runs body(0, n). A half sums each
    entry as the whole does, except in a product of one column: its reduced
    axis is innermost in both C-ordered operands, and einsum sums it in
    blocks bounded by the extent of the outer axes. So such work runs whole
    at any size (as does an elementwise body of one pass). The caller waits
    for the helper's half, then re-raises an error of either half, its own
    first; both halves raise the same errors for the same faults. Splits
    from several threads queue for the helper in turn, and nothing splits
    again inside a half. Each half writes only its own slices of outputs
    made before the split, and the body calls no public asi function: the
    benchmark's tracer keeps its span stack on the caller's thread alone.
    """
    global _pool
    if (cols == 1 or size * cols < _MIN_SPLIT or n < 2 or _CPUS < 2
            or getattr(_in_half, "on", False)):
        body(0, n)
        return
    if _pool is None:
        with _pool_lock:
            if _pool is None:
                from concurrent.futures import ThreadPoolExecutor
                _pool = ThreadPoolExecutor(1, "asi-contract-helper")
    half = n // 2
    # The helper's half runs in a copy of the caller's context, so NumPy's error state (a
    # context variable) is the caller's: an overflow it ignores warns in neither half.
    job = _pool.submit(contextvars.copy_context().run, _run_half, body, half, n)
    try:
        _run_half(body, 0, half)
    finally:
        error = job.exception()  # waits for the helper's half, also when the caller's raised
    if error is not None:
        raise error


def _run_half(body, lo: int, hi: int) -> None:
    _in_half.on = True
    try:
        body(lo, hi)
    finally:
        _in_half.on = False


def _contract(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one fixed-order product, a @ b over the last two axes of 2-D or stacked blocks.

    Stacked operands share their leading axes. The result goes to `out`,
    else to a fresh C-ordered block, and is returned.
    """
    return np.einsum(_LAYOUT, a, b, out=out)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Strict matrix product a @ b.

    Computed with a fixed-order contraction: each entry is summed in one order
    whether or not the rows are split over two threads, so the result is
    reproducible bit-for-bit across runs, CPU counts and BLAS backends.
    """
    for name, x in (("a", a), ("b", b)):
        _check_type(f"matmul: operand {name}", x, Matrix)
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul: inner dimensions differ for ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})"
        )
    out = np.empty((a.rows, b.cols))

    def body(lo: int, hi: int) -> None:
        _check_finite(_contract(a.a[lo:hi], b.a, out[lo:hi]), "matmul: a @ b")

    _split(body, a.rows, a.a.size, b.cols)
    return Matrix._of(out)


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place, with per-row max subtraction for overflow safety.

    Takes a writable float64 array of rows, a 2-D matrix or a whole (heads,
    rows, cols) block, in any memory layout (a transposed view included),
    and overwrites it with its softmax, which it returns: no buffer of its
    size is made (the block can be large). Any layout of the same values
    gives the same bits: the row max is exact in any order (a -0.0 or +0.0
    max leaves every exponential as it is), the subtraction, exponential and
    division are elementwise, and the row sums are those NumPy gives a
    C-ordered copy (:func:`_row_sums`). Every output row sums to 1 (within
    float64 rounding) and all entries lie in [0, 1]: a logit more than the
    float64 range below its row's max gets exactly 0, with no warning, as
    ``[[1e308, -1e308]]`` gives ``[[1.0, 0.0]]``. NaN or Inf input is a
    NonFiniteError, raised before the array is written.
    """
    _check_array("softmax_rows: a", a, least=1)
    if not a.flags.writeable:
        raise ShapeError("softmax_rows works in place: needs a writable array, got a read-only one")
    _check_finite(a, "softmax_rows: a")
    with np.errstate(over="ignore"):  # the max subtraction's -Inf gives exp's exact 0
        return _softmax(a)


def _softmax(a: np.ndarray) -> np.ndarray:
    # softmax_rows after its checks: attention calls it inside a split half.
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= _row_sums(a)[..., None]
    return a


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sums over the last axis of `a`, bit for bit those NumPy gives its C-ordered copy.

    NumPy adds to a +0.0 start the pairwise sum of each contiguous row (its
    `pairwise_sum`): a row of fewer than 8 entries in order from +0.0; one
    of up to 128 as 8 interleaved partial sums, added as a tree, then the
    rest in order; a longer one as the sum of its two parts split at a
    multiple of 8 near the middle. Here every step adds whole columns of
    `a`, so a transposed view is summed where it lies, without that copy.
    """
    total = _pairwise_sum(np.moveaxis(a, -1, 0), 0, a.shape[-1])
    total += 0.0  # an all -0.0 row sums to +0.0
    return total


def _pairwise_sum(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    # The sum of x[lo:lo + n] over axis 0, n >= 1, in the order described in _row_sums.
    if n < 8:
        total = x[lo] + 0.0
        for i in range(lo + 1, lo + n):
            total += x[i]
        return total
    if n <= 128:
        end = lo + n - n % 8
        # The 8 partial sums: x's own rows under 16, else made by their first addition.
        part = x[lo:lo + 8] if n < 16 else x[lo:lo + 8] + x[lo + 8:lo + 16]
        for i in range(lo + 16, end, 8):
            part += x[i:i + 8]
        pairs = part[0::2] + part[1::2]  # ((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))
        quads = pairs[0::2] + pairs[1::2]
        total = quads[0] + quads[1]
        for i in range(end, lo + n):
            total += x[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x, lo, half) + _pairwise_sum(x, lo + half, n - half)


def _kind(value) -> str:
    # An array's dtype ("complex128 array"), else the type name ("list", "NoneType").
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array"
    return type(value).__name__


# splitmix64 finalizer constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_MAX_WORDS = np.iinfo(np.intp).max // 8  # uint64 words in the largest indexable array
# Normals drawn per block of the stream, whatever the count; a split draws whole
# blocks in each half. Split, 327,680 draws (an sd_block latent) took 6.0 ms in
# 8,192-draw blocks, 4.5 ms in 16,384-draw ones and 4.1 ms in 32,768-draw ones
# (7.3-7.6 ms whole; 2-CPU x86 box). 16,384 keeps a block's temporaries near
# 0.6 MiB, mid_bypass's peak RSS where 8,192 kept it, and an sd_block weight
# matrix (102,400 draws) in 7 blocks that halve evenly, where 32,768 makes 4
# blocks of which the last is short, and halves of 65,536 and 36,864 draws.
_NORMALS_PER_BLOCK = 1 << 14


def _words(seed: int, first: int, count: int) -> np.ndarray:
    # Raw words first + 1 .. first + count of the stream, splitmix64(seed + k * gamma),
    # made in one buffer.
    z = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.uint64(seed)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


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
        if not _is_int(seed):
            raise ConfigError(f"seed must be an integer, got {type(seed).__name__}")
        if not 0 <= seed <= _U64_MASK:
            raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self._counter = 0

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform draws in [0, 1)."""
        _check_count(count, 1)
        raw = _words(self.seed, self._counter, count)
        self._counter += count
        return (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, count: int) -> np.ndarray:
        """`count` standard-normal draws (two raw words each).

        The output is filled a fixed-size block of the stream at a time, so the
        temporaries stay small. Each word depends only on its index, so the
        blocks may split over both CPUs, each half drawing its own blocks, and
        the draws are bit for bit those of one whole-stream pass. The counter
        moves once, after every block is drawn.
        """
        _check_count(count, 2)
        seed, first = self.seed, self._counter
        out = np.empty(count)

        def body(lo: int, hi: int) -> None:
            for start in range(lo * _NORMALS_PER_BLOCK, min(hi * _NORMALS_PER_BLOCK, count),
                               _NORMALS_PER_BLOCK):
                raw = _words(seed, first + 2 * start, 2 * min(_NORMALS_PER_BLOCK, count - start))
                # In place, the operations and bits of sqrt(-2 ln u1) * cos(2 pi u2).
                u1 = (raw[0::2] >> np.uint64(11)).astype(np.float64)
                u1 += 1.0
                u1 *= _INV_2_53
                np.log(u1, out=u1)
                u1 *= -2.0
                np.sqrt(u1, out=u1)
                u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64)
                u2 *= _INV_2_53
                u2 *= 2.0 * math.pi
                np.cos(u2, out=u2)
                np.multiply(u1, u2, out=out[start:start + len(u1)])

        # 35 passes a draw: 11 over each of its two words, 13 to make the normal.
        _split(body, -(-count // _NORMALS_PER_BLOCK), count, 35)
        self._counter += 2 * count
        return out


def randn_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    """rows x cols matrix of standard-normal draws, filled in row-major order."""
    _check_type("randn_matrix: rng", rng, Rng, ConfigError)
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise ShapeError(f"randn_matrix dimensions must be integers >= 1, got {rows!r}, {cols!r}")
    # Every draw is finite: |normal| <= sqrt(-2 ln 2**-53), about 8.6.
    return Matrix._of(rng.normals(int(rows) * int(cols)).reshape(rows, cols))  # no int64 wrap
