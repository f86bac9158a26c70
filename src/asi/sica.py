"""Siamese cross-attention: one query track attending to two prompt embeddings.

The usual single-track cross-attention is split into a style branch and a
content branch. Both branches share the query features and the projection
weights; they differ only in the key/value pairs, which come from the style
prompt and the content prompt respectively. Per head i:

    f^i = softmax(Q^i (K^i)^T / sqrt(d)) V^i

with d the per-head channel dimension.

Both products run with the m query positions as the innermost loop: the
logits as K Q^T over a contiguous Q^T, the output as V^T P^T, each then
turned back to (positions, ...) order. NumPy's einsum adds the products of
each output element in order of the reduction index, multiply then add,
whenever that index is not the innermost axis of both operands. So these
layouts give the same bits as the per-head 2-D product Q K^T, then P V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numeric import Matrix, _contract, _validated_block, matmul, softmax_rows

__all__ = [
    "AttentionParams",
    "FeatureMap",
    "project_q",
    "project_kv",
    "attend",
    "siamese_attend",
]


class FeatureMap:
    """A heads x positions x head_dim block of finite float64 activations.

    Head slices are contiguous channel blocks of the flat model dimension:
    head i owns channels [i*d, (i+1)*d). This split convention is part of
    the dump format contract and must not change.
    """

    __slots__ = ("_a",)

    def __init__(self, values) -> None:
        self._a = _validated_block("FeatureMap", values, 3)

    @classmethod
    def from_matrix(cls, flat: Matrix, heads: int) -> "FeatureMap":
        """Split an m x (h*d) matrix into h heads of m x d each."""
        if flat.cols % heads != 0:
            raise ShapeError(
                f"cannot split {flat.rows}x{flat.cols} into {heads} heads: "
                f"{flat.cols} channels not divisible by {heads}"
            )
        d = flat.cols // heads
        return cls(flat.a.reshape(flat.rows, heads, d).transpose(1, 0, 2))

    @property
    def heads(self) -> int:
        return self._a.shape[0]

    @property
    def positions(self) -> int:
        return self._a.shape[1]

    @property
    def head_dim(self) -> int:
        return self._a.shape[2]

    @property
    def a(self) -> np.ndarray:
        """Read-only (heads, positions, head_dim) view."""
        return self._a

    def head(self, i: int) -> Matrix:
        return Matrix(self._a[i])

    def merge_heads(self) -> Matrix:
        """Inverse of :meth:`from_matrix`: back to an m x (h*d) matrix."""
        h, m, d = self._a.shape
        return Matrix(self._a.transpose(1, 0, 2).reshape(m, h * d))

    def __repr__(self) -> str:
        return f"FeatureMap(<{self.heads}x{self.positions}x{self.head_dim}>)"


@dataclass(frozen=True)
class AttentionParams:
    """Shared projection weights for both attention branches."""

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    heads: int
    head_dim: int

    def __post_init__(self) -> None:
        md = self.heads * self.head_dim
        if self.heads < 1 or self.head_dim < 1:
            raise ShapeError(f"heads and head_dim must be >= 1, got {self.heads}, {self.head_dim}")
        for name, w in (("w_q", self.w_q), ("w_k", self.w_k), ("w_v", self.w_v)):
            if (w.rows, w.cols) != (md, md):
                raise ShapeError(
                    f"{name} must be {md}x{md} (model_dim = heads*head_dim), got {w.rows}x{w.cols}"
                )

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


def project_q(spatial: Matrix, params: AttentionParams) -> FeatureMap:
    """Project spatial features to per-head queries: Q = spatial @ w_q, then split.

    Q is computed once and shared by both branches.
    """
    if spatial.cols != params.model_dim:
        raise ShapeError(
            f"spatial features are {spatial.rows}x{spatial.cols}, "
            f"expected {params.model_dim} channels"
        )
    return FeatureMap.from_matrix(matmul(spatial, params.w_q), params.heads)


def project_kv(prompt: Matrix, params: AttentionParams) -> tuple[FeatureMap, FeatureMap]:
    """Project a tokens x model_dim prompt embedding to per-head keys and values."""
    if prompt.cols != params.model_dim:
        raise ShapeError(f"prompt has {prompt.cols} channels, expected {params.model_dim}")
    k = FeatureMap.from_matrix(matmul(prompt, params.w_k), params.heads)
    v = FeatureMap.from_matrix(matmul(prompt, params.w_v), params.heads)
    return k, v


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    # Logits as K Q^T, output as V^T P^T: einsum's inner loop runs over the m
    # positions, and the reduced axis (d, then t) is never innermost in both
    # operands, so each entry is summed in index order, bit for bit as the
    # per-head 2-D Q K^T and P V. Q^T is copied contiguous because as a view,
    # d would be innermost in both and einsum would sum it in another order.
    # Softmax gets C-ordered logits: a row sum over a strided axis also would.
    logits = _contract(k, np.ascontiguousarray(q.transpose(0, 2, 1))).transpose(0, 2, 1)
    p = softmax_rows(np.multiply(logits, scale, order="C"))
    return _contract(v.transpose(0, 2, 1), p.transpose(0, 2, 1)).transpose(0, 2, 1)


def attend(q: FeatureMap, k: FeatureMap, v: FeatureMap) -> FeatureMap:
    """One attention track, softmax(Q K^T / sqrt(d)) V, for all heads at once."""
    if k.heads != q.heads or v.heads != q.heads:
        raise ShapeError(f"head count mismatch: q has {q.heads}, k has {k.heads}, v has {v.heads}")
    if k.head_dim != q.head_dim or v.head_dim != q.head_dim:
        raise ShapeError(
            f"head_dim mismatch: q has {q.head_dim}, k has {k.head_dim}, v has {v.head_dim}"
        )
    if k.positions != v.positions:
        raise ShapeError(f"token count mismatch: k has {k.positions}, v has {v.positions}")
    return FeatureMap(_attend(q.a, k.a, v.a, 1.0 / math.sqrt(q.head_dim)))


def siamese_attend(
    q: FeatureMap,
    k_s: FeatureMap,
    v_s: FeatureMap,
    k_c: FeatureMap,
    v_c: FeatureMap,
) -> tuple[FeatureMap, FeatureMap]:
    """Run both attention branches over the shared queries.

    Returns (style features, content features). The branches are fully
    independent apart from Q: the style and content prompts may have
    different token counts, and each branch is one :func:`attend` call.
    """
    return attend(q, k_s, v_s), attend(q, k_c, v_c)
