"""Siamese cross-attention: one query track attending to two prompt embeddings.

The usual single-track cross-attention is split into a style branch and a
content branch. Both branches share the query features and the projection
weights; they differ only in the key/value pairs, which come from the style
prompt and the content prompt respectively. Per head i:

    f^i = softmax(Q^i (K^i)^T / sqrt(d)) V^i

with d the per-head channel dimension.

Feature blocks are plain NumPy arrays of shape (heads, positions, head_dim):
float64, read-only and C-contiguous, the queries aside (below). Functions
here return blocks of that kind. The shared queries are checked once per
call, then each track's keys and values (:func:`_check_tracks`, through
:func:`asi.numeric._check_array`). The run checks finiteness where data
becomes a :class:`Matrix` (inputs, keys, values, layer outputs) and in the
query projection; :func:`siamese_attend`, which no run calls, scans its
blocks for NaN/Inf where they enter. Head i owns channels [i*d, (i+1)*d) of
the flat model dimension; this split convention is part of the dump format
contract and must not change.

:func:`siamese_attend` and :func:`merge_heads` also take (heads, ...,
positions, head_dim) blocks, such as the pipeline's (h, steps, m, d) queries
of several sampler steps. Attention is per query row, so every row of a head
attends as it would alone and gets the bits it would get in an (h, m, d)
block.

Both products run with a head's query rows as the innermost loop, from
C-ordered operands: the logits as K Q^T over a contiguous Q^T (as
:func:`project_q` makes it, W_q^T X^T, so neither track copies it), into an
(heads, tokens, rows) block that softmax normalizes in place, and the
output as a contiguous V^T times that block, which one transposing copy
turns back into the C-ordered (heads, rows, head_dim) block returned.
NumPy's einsum adds the products of each output element in order of the
reduction index, multiply then add, whenever that index is not the
innermost axis of both operands. So these layouts give the same bits as
the per-head 2-D products X W_q, Q K^T, then P V. The heads are
independent, so a large block's query projection splits by heads over two
threads, which leaves every entry's order as it is; the tracks split inside
the pipeline's layer (:func:`asi.numeric._split` lists every split). With a
single query row every product has one column, whose reduced axis is
innermost in both operands: that order is not pinned. The pipeline's blocks
hold two or more rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
# softmax_rows is unused here, but the benchmark tracer wraps sica.softmax_rows.
from .numeric import (Matrix, _check_array, _check_finite, _check_type, _contract, _is_int,
                      _readonly, _softmax, _split, matmul, softmax_rows)

__all__ = [
    "AttentionParams",
    "merge_heads",
    "project_q",
    "project_kv",
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
            _check_type(f"AttentionParams: {name}", w, Matrix)
            if (w.rows, w.cols) != (md, md):
                raise ShapeError(
                    f"{name} must be {md}x{md} (model_dim = heads*head_dim), got {w.rows}x{w.cols}"
                )

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    @functools.cached_property
    def _w_qt(self) -> np.ndarray:  # W_q^T, C-ordered, for the query projection: made once
        return _readonly(np.ascontiguousarray(self.w_q.a.T))


def _split_heads(flat: Matrix, heads: int) -> np.ndarray:
    # m x (h*d) -> (h, m, d); AttentionParams makes the channel count h*d.
    m, md = flat.a.shape
    return _readonly(np.ascontiguousarray(flat.a.reshape(m, heads, md // heads).transpose(1, 0, 2)))


def merge_heads(block: np.ndarray) -> Matrix:
    """Inverse of the head split: an (h, ..., m, d) block back to a (... * m) x (h*d) matrix.

    Middle axes stack row-wise: an (h, steps, m, d) block gives each step's
    m rows after the last step's.
    """
    _check_array("merge_heads: block", block, least=3)
    h, d = block.shape[0], block.shape[-1]
    out = block.reshape(h, -1, d).transpose(1, 0, 2).copy()
    _check_finite(out)  # one transposing copy, then its check
    return Matrix._of(out.reshape(-1, h * d))


def project_q(spatial: Matrix, params: AttentionParams) -> np.ndarray:
    """Project spatial features to per-head queries: Q = spatial @ w_q, then split.

    Q is made once, as the C-ordered (h, d, m) Q^T, and shared as its view.
    """
    _check_type("project_q: spatial", spatial, Matrix)
    _check_type("project_q: params", params, AttentionParams, ConfigError)
    if spatial.cols != params.model_dim:
        raise ShapeError(f"spatial features are {spatial.rows}x{spatial.cols}, "
                         f"expected {params.model_dim} channels")
    h, d, rows = params.heads, params.head_dim, spatial.rows
    if rows == 1:  # Q^T is then Q, whose one-column product einsum would not sum in k order
        return matmul(spatial, params.w_q).a.reshape(h, d, 1).transpose(0, 2, 1)
    wt, xt, qt = params._w_qt, np.ascontiguousarray(spatial.a.T), np.empty((h * d, rows))
    _split(lambda lo, hi: _project(wt[lo * d:hi * d], xt, qt[lo * d:hi * d]), h, wt.size, rows)
    return _readonly(qt).reshape(h, d, rows).transpose(0, 2, 1)


def _project(wt: np.ndarray, xt: np.ndarray, qt: np.ndarray | None = None) -> np.ndarray:
    # The one query projection, rows of W_q^T times X^T (two or more columns), both C-ordered,
    # into `qt` or a fresh block, checked finite. As k is innermost in W_q^T alone, each entry
    # sums W_q[k, j] X[i, k] in k order, as X W_q does.
    _check_finite(qt := _contract(wt, xt, qt))
    return qt


def project_kv(prompt: Matrix, params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Project a tokens x model_dim prompt embedding to per-head keys and values."""
    _check_type("project_kv: prompt", prompt, Matrix)
    _check_type("project_kv: params", params, AttentionParams, ConfigError)
    if prompt.cols != params.model_dim:
        raise ShapeError(f"prompt has {prompt.cols} channels, expected {params.model_dim}")
    k = _split_heads(matmul(prompt, params.w_k), params.heads)
    v = _split_heads(matmul(prompt, params.w_v), params.heads)
    return k, v


def _check_tracks(what: str, q: np.ndarray, *kv: np.ndarray, most: int = 64) -> None:
    # The shared queries, an (h, ..., m, d) block of 3 to `most` dimensions, checked once;
    # then k_s, v_s, k_c and v_c, (h, t, d) blocks of q's heads and head_dim, t per track.
    _check_array(f"{what}: q", q, least=3, most=most)
    for name, x in zip(("k_s", "v_s", "k_c", "v_c"), kv):
        _check_array(f"{what}: {name}", x, least=3, most=3)
    hq, dq = q.shape[0], q.shape[-1]
    for k, v in zip(kv[::2], kv[1::2]):
        (hk, tk, dk), (hv, tv, dv) = k.shape, v.shape
        if hk != hq or hv != hq:
            raise ShapeError(f"head count mismatch: q has {hq}, k has {hk}, v has {hv}")
        if dk != dq or dv != dq:
            raise ShapeError(f"head_dim mismatch: q has {dq}, k has {dk}, v has {dv}")
        if tk != tv:
            raise ShapeError(f"token count mismatch: k has {tk}, v has {tv}")


def _sica(qt: np.ndarray, k: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    # The one attention formula: softmax(Q K^T / sqrt(d)) V of each head's query rows, in
    # the layouts the module describes, from Q^T, an (h, d, rows) block (a view is copied
    # C-ordered for the logits alone: as a view, d would be innermost in both operands), to
    # the C-ordered (h, d, rows) V^T P returned, written to `out` if given, which may be
    # Q^T's own buffer. V^T (small) is copied so that einsum's loop follows from the layout
    # alone. It runs inside split halves, so it calls no public name.
    p = _contract(k, np.ascontiguousarray(qt))
    p *= 1.0 / math.sqrt(k.shape[-1])
    _softmax(p.transpose(0, 2, 1))
    return _contract(np.ascontiguousarray(v.transpose(0, 2, 1)), p, out)


def siamese_attend(
    q: np.ndarray,
    k_s: np.ndarray,
    v_s: np.ndarray,
    k_c: np.ndarray,
    v_c: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run both attention branches over the shared queries.

    q is an (h, ..., m, d) float64 block and each k, v pair an (h, t, d) one:
    every query row of a head attends to the same keys and values. Returns
    (style features, content features), blocks of q's shape. The branches
    are fully independent apart from Q: the style and content prompts may
    have different token counts. Each branch runs whole, through the one
    attention formula, and one transposing copy of its (h, d, rows) output.
    """
    _check_tracks("siamese_attend", q, k_s, v_s, k_c, v_c)
    for name, x in zip(("q", "k_s", "v_s", "k_c", "v_c"), (q, k_s, v_s, k_c, v_c)):
        _check_finite(x, f"siamese_attend: {name}")
    qt = q.reshape(len(q), -1, q.shape[-1]).transpose(0, 2, 1)

    def track(k: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _readonly(np.ascontiguousarray(_sica(qt, k, v).transpose(0, 2, 1)).reshape(q.shape))

    return track(k_s, v_s), track(k_c, v_c)
