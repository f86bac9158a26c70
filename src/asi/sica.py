"""Siamese cross-attention: one query track attending to two prompt embeddings.

The usual single-track cross-attention is split into a style branch and a
content branch. Both branches share the query features and the projection
weights; they differ only in the key/value pairs, which come from the style
prompt and the content prompt respectively. Per head i:

    f^i = softmax(Q^i (K^i)^T / sqrt(d)) V^i

with d the per-head channel dimension.

Feature blocks are plain NumPy arrays of shape (heads, positions, head_dim):
float64, C-contiguous and read-only. Every function here returns blocks of
that kind and does not scan its block arguments for NaN/Inf again; the
finiteness checks run where data becomes a :class:`Matrix` (the inputs,
every projection, and each layer's merged output). Head i owns channels
[i*d, (i+1)*d) of the flat model dimension; this split convention is part
of the dump format contract and must not change.

:func:`attend` and :func:`merge_heads` also take (heads, ..., positions,
head_dim) blocks, such as the pipeline's (h, steps, m, d) queries of several
sampler steps. Attention is per query row, so every row of a head attends as
it would alone and gets the bits it would get in an (h, m, d) block.

Both products run with a head's query rows as the innermost loop, from
C-ordered operands: the logits as K Q^T over a contiguous Q^T, into an
(heads, tokens, rows) block that softmax normalizes in place, and the
output as a contiguous V^T times that block, which one transposing copy
turns back into the C-ordered (heads, rows, head_dim) block returned.
NumPy's einsum adds the products of each output element in order of the
reduction index, multiply then add, whenever that index is not the
innermost axis of both operands. So these layouts give the same bits as
the per-head 2-D product Q K^T, then P V. The heads are independent, so a
large block's tracks are split by heads over two threads, each half running
its heads' products, softmax and copies whole; that leaves every entry's
order as it is. With a single query row both products have one column, so
their reduced axis is innermost in both operands: that order is not pinned,
and the track runs whole (see :func:`asi.numeric._split`). The pipeline's
blocks always hold two or more rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
# softmax_rows is unused here, but the benchmark tracer wraps sica.softmax_rows.
from .numeric import (Matrix, _check_finite, _check_real, _contract, _is_int, _kind, _readonly,
                      _softmax, _split, matmul, softmax_rows)

__all__ = [
    "AttentionParams",
    "merge_heads",
    "project_q",
    "project_kv",
    "attend",
    "siamese_attend",
]


@dataclass(frozen=True)
class AttentionParams:
    """Shared projection weights for both attention branches."""

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    heads: int
    head_dim: int

    def __post_init__(self) -> None:
        heads, head_dim = self.heads, self.head_dim
        if not (_is_int(heads) and _is_int(head_dim)) or heads < 1 or head_dim < 1:
            raise ShapeError(
                f"heads and head_dim must be integers >= 1, got {heads!r}, {head_dim!r}"
            )
        md = heads * head_dim
        for name, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if (w.rows, w.cols) != (md, md):
                raise ShapeError(
                    f"{name} must be {md}x{md} (model_dim = heads*head_dim), got {w.rows}x{w.cols}"
                )

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


def _split_heads(flat: Matrix, heads: int) -> np.ndarray:
    # m x (h*d) -> (h, m, d); AttentionParams makes the channel count h*d.
    m, md = flat.a.shape
    return _readonly(np.ascontiguousarray(flat.a.reshape(m, heads, md // heads).transpose(1, 0, 2)))


def merge_heads(block: np.ndarray) -> Matrix:
    """Inverse of the head split: an (h, ..., m, d) block back to a (... * m) x (h*d) matrix.

    Middle axes stack row-wise: an (h, steps, m, d) block gives each step's
    m rows after the last step's.
    """
    if not isinstance(block, np.ndarray):
        raise ShapeError(f"merge_heads needs an array block, got {_kind(block)}")
    if block.ndim < 3 or 0 in block.shape:
        raise ShapeError(f"merge_heads needs a non-empty (h, ..., m, d) block, "
                         f"got shape {block.shape}")
    _check_real(block)
    h, d = block.shape[0], block.shape[-1]
    rows = block.reshape(h, -1, d)
    out = np.empty((rows.shape[1], h * d))

    def body(lo: int, hi: int) -> None:
        # One transposing copy of these rows, then their check: 2 passes over each entry.
        part = out[lo:hi]
        part.reshape(hi - lo, h, d)[...] = rows[:, lo:hi].transpose(1, 0, 2)
        _check_finite(part)

    _split(body, len(out), out.size, 2)
    return Matrix._of(out)


def project_q(spatial: Matrix, params: AttentionParams) -> np.ndarray:
    """Project spatial features to per-head queries: Q = spatial @ w_q, then split.

    Q is computed once and shared by both branches.
    """
    if spatial.cols != params.model_dim:
        raise ShapeError(
            f"spatial features are {spatial.rows}x{spatial.cols}, "
            f"expected {params.model_dim} channels"
        )
    return _split_heads(matmul(spatial, params.w_q), params.heads)


def project_kv(prompt: Matrix, params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Project a tokens x model_dim prompt embedding to per-head keys and values."""
    if prompt.cols != params.model_dim:
        raise ShapeError(f"prompt has {prompt.cols} channels, expected {params.model_dim}")
    k = _split_heads(matmul(prompt, params.w_k), params.heads)
    v = _split_heads(matmul(prompt, params.w_v), params.heads)
    return k, v


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One attention track, softmax(Q K^T / sqrt(d)) V, for all heads at once.

    q is an (h, ..., m, d) float64 block and k, v are (h, t, d) ones: every
    query row of a head attends to the same keys and values. Returns a block
    of q's shape.
    """
    for name, x in (("q", q), ("k", k), ("v", v)):
        if not isinstance(x, np.ndarray) or x.dtype != np.float64:
            raise ShapeError(f"attend: {name} must be a float64 array, got {_kind(x)}")
    if q.ndim < 3 or k.ndim != 3 or v.ndim != 3 or 0 in (*q.shape, *k.shape, *v.shape):
        raise ShapeError(f"attend needs non-empty q (h, ..., m, d) and k, v (h, t, d), "
                         f"got shapes {q.shape}, {k.shape}, {v.shape}")
    hq, dq = q.shape[0], q.shape[-1]
    (hk, tk, dk), (hv, tv, dv) = k.shape, v.shape
    if hk != hq or hv != hq:
        raise ShapeError(f"head count mismatch: q has {hq}, k has {hk}, v has {hv}")
    if dk != dq or dv != dq:
        raise ShapeError(f"head_dim mismatch: q has {dq}, k has {dk}, v has {dv}")
    if tk != tv:
        raise ShapeError(f"token count mismatch: k has {tk}, v has {tv}")
    # Logits as K Q^T, output as V^T P, from C-ordered operands: einsum's
    # inner loop runs over the query rows, and the reduced axis (d, then t)
    # is never innermost in both operands, so each entry is summed in index
    # order, bit for bit as the per-head 2-D Q K^T and P V. Q^T is copied
    # contiguous because as a view, d would be innermost in both operands and
    # einsum would sum it in another order; V^T (small) is copied so that the
    # loop einsum picks follows from the layout alone, not from how it ranks
    # a view's strides. The logits are scaled and turned into P in place, in
    # the (h, t, rows) layout einsum writes them in; softmax works on their
    # (h, rows, t) view. V^T P goes to a fresh C-ordered (h, d, rows) block,
    # P is freed, and a transposing copy fills the C-ordered (h, rows, d)
    # result that the contractions reading it need to sum in k order. Each
    # head's track is independent of the others, so the heads may split over
    # both CPUs, each half filling its heads of the result. Both products are
    # k.size * n multiply-adds, with n columns.
    rows = q.reshape(hq, -1, dq)
    out = np.empty(rows.shape)

    def track(lo: int, hi: int) -> None:
        _sica(rows[lo:hi].transpose(0, 2, 1), k[lo:hi], v[lo:hi], out[lo:hi])

    _split(track, hq, k.size, rows.shape[1])
    return _readonly(out.reshape(q.shape))


def _sica(qt: np.ndarray, k: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
    # The one attention formula: softmax(Q K^T / sqrt(d)) V of each head's query rows, in
    # the layouts attend describes, written to `out`, any (h, rows, d) view. Q^T is an
    # (h, d, rows) block; a view of it is copied C-ordered for the logits alone, so the
    # copy is freed before P is. Q^T is read before `out` is written, so they may share
    # a buffer. It runs inside split halves, so it calls no public name.
    p = _contract(k, np.ascontiguousarray(qt))
    p *= 1.0 / math.sqrt(k.shape[-1])
    _softmax(p.transpose(0, 2, 1))
    vp = _contract(np.ascontiguousarray(v.transpose(0, 2, 1)), p)
    del p
    out[...] = vp.transpose(0, 2, 1)


def siamese_attend(
    q: np.ndarray,
    k_s: np.ndarray,
    v_s: np.ndarray,
    k_c: np.ndarray,
    v_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run both attention branches over the shared queries.

    Returns (style features, content features). The branches are fully
    independent apart from Q: the style and content prompts may have
    different token counts, and each branch is one :func:`attend` call.
    """
    return attend(q, k_s, v_s), attend(q, k_c, v_c)
