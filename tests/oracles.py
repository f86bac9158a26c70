"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, two-pass statistics) and never calls into the package's own
kernels, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import math

import numpy as np


def naive_matmul(a, b) -> np.ndarray:
    """Triple-loop matrix product on plain nested sequences."""
    a = [list(row) for row in a]
    b = [list(row) for row in b]
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return np.array(out)


def k_ordered_contract(a, b) -> np.ndarray:
    """a @ b over the last two axes, each entry summed in k order from +0.0.

    Every step rounds the product, then rounds the sum: no fused multiply-add,
    no pairwise or blocked reduction. Leading axes broadcast.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), a.shape[-2], b.shape[-1]))
    for k in range(a.shape[-1]):
        out += a[..., :, k, None] * b[..., k, None, :]
    return out


def naive_softmax_row(row) -> list[float]:
    mx = max(row)
    exps = [math.exp(v - mx) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def reference_attention(q, k, v) -> np.ndarray:
    """Single-track scaled dot-product attention, one query row at a time."""
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    d = q.shape[1]
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = [
            sum(q[i, c] * k[j, c] for c in range(d)) / math.sqrt(d) for j in range(k.shape[0])
        ]
        weights = naive_softmax_row(logits)
        for j, w in enumerate(weights):
            for c in range(v.shape[1]):
                out[i, c] += w * v[j, c]
    return out


def project_and_split(x, w, heads) -> np.ndarray:
    """Loop-based projection followed by contiguous channel-block head split."""
    proj = naive_matmul(x, w)
    m, md = proj.shape
    d = md // heads
    out = np.zeros((heads, m, d))
    for h in range(heads):
        for i in range(m):
            for c in range(d):
                out[h, i, c] = proj[i][h * d + c]
    return out


def two_pass_covariance(f) -> np.ndarray:
    """Mean-center the rows first, then accumulate outer products over m - 1."""
    f = np.asarray(f, dtype=float)
    m, d = f.shape
    mean = [sum(f[:, c]) / m for c in range(d)]
    cov = np.zeros((d, d))
    for row in f:
        centered = [row[c] - mean[c] for c in range(d)]
        for i in range(d):
            for j in range(d):
                cov[i, j] += centered[i] * centered[j]
    return cov / (m - 1)


# Earlier whole-array forms of rewritten kernels. Each rewrite must give the
# same bits as its form here, so a NumPy change to a reduction or an operand
# order fails a named test rather than only a golden digest.


def c_ordered_softmax(a) -> np.ndarray:
    """Softmax over the last axis into a new C-ordered buffer, from NumPy's own max, exp and sum."""
    e = np.subtract(a, a.max(axis=-1, keepdims=True), order="C")
    np.exp(e, out=e)
    return e / e.sum(axis=-1, keepdims=True)


def mean_std_adain(f_c, f_s, eps) -> np.ndarray:
    """AdaIN over positions (axis -2) from NumPy's own mean and population std."""
    mu_c = f_c.mean(axis=-2, keepdims=True)
    sd_c = f_c.std(axis=-2, keepdims=True)
    mu_s = f_s.mean(axis=-2, keepdims=True)
    sd_s = f_s.std(axis=-2, keepdims=True)
    return sd_s * (f_c - mu_c) / (sd_c + eps) + mu_s


def fresh_ddim_step(x_t, eps, ab, ab_prev) -> np.ndarray:
    """Clean estimate at ab, renoised to ab_prev, each in fresh temporaries."""
    x0 = (x_t - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
    return np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps


def float_spatial_mask(f_c, alpha) -> np.ndarray:
    """The spatial mask as a float {0, 1} block: 0 strictly above alpha times the channel max."""
    return np.where(f_c > alpha * f_c.max(axis=1, keepdims=True), 0.0, 1.0)
