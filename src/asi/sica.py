"""Siamese cross-attention: one query track attending to two prompt embeddings.

The usual single-track cross-attention is split into a style branch and a
content branch. Both branches share the query features and the projection
weights; they differ only in the key/value pairs, which come from the style
prompt and the content prompt respectively. Per head i:

    f^i = softmax(Q^i (K^i)^T / sqrt(d)) V^i

with d the per-head channel dimension.
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


def _check_kv_track(name: str, q: FeatureMap, k: FeatureMap, v: FeatureMap) -> None:
    if k.heads != q.heads or v.heads != q.heads:
        raise ShapeError(
            f"{name} branch head count mismatch: q has {q.heads}, "
            f"k has {k.heads}, v has {v.heads}"
        )
    if k.head_dim != q.head_dim or v.head_dim != q.head_dim:
        raise ShapeError(
            f"{name} branch head_dim mismatch: q has {q.head_dim}, "
            f"k has {k.head_dim}, v has {v.head_dim}"
        )
    if k.positions != v.positions:
        raise ShapeError(
            f"{name} branch token count mismatch: k has {k.positions}, v has {v.positions}"
        )


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    # Contracting against a contiguous k^T reproduces the per-head 2-D matmul
    # bit for bit; contracting against k directly ("hmd,htd->hmt") does not.
    logits = _contract(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
    logits *= scale
    return _contract(softmax_rows(logits), v)


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
    different token counts, and each branch is the plain attention formula
    softmax(Q K^T / sqrt(d)) V evaluated for all heads at once.
    """
    _check_kv_track("style", q, k_s, v_s)
    _check_kv_track("content", q, k_c, v_c)
    scale = 1.0 / math.sqrt(q.head_dim)
    f_s = _attend(q.a, k_s.a, v_s.a, scale)
    f_c = _attend(q.a, k_c.a, v_c.a, scale)
    return FeatureMap(f_s), FeatureMap(f_c)
