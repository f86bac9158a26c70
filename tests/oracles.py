"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
Python loops, two-pass statistics) and never calls into the package's own
kernels, so a bug cannot hide on both sides of a comparison.
"""

from __future__ import annotations

import math
import struct

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


# An independent whole run. Only its inputs and latents come from the package:
# synth_inputs and the ddim walks, which the golden synth_seed0.sha256 and
# acceptance criteria 09 and 10 pin. Every layer is computed per step and per
# head in plain 2-D NumPy, every product through k_ordered_contract, and every
# artifact is encoded here, so a fault in a kernel the run and its replay
# share cannot hide.


def _attention(q, k, v) -> np.ndarray:
    """softmax(Q K^T / sqrt(d)) V of one head: logits times the reciprocal of sqrt(d)."""
    logits = k_ordered_contract(q, k.T) * (1.0 / math.sqrt(q.shape[1]))
    return k_ordered_contract(c_ordered_softmax(logits), v)


def _covariance(f) -> np.ndarray:
    """Gram-form covariance of one m x d head, from its column sums."""
    m = len(f)
    colsum = f.sum(axis=0, keepdims=True)
    return (k_ordered_contract(f.T, f) - colsum.T * colsum / m) / (m - 1)


def _distance(f_s, f_c) -> float:
    """Squared Frobenius norm of the covariance difference over 4 d**2."""
    diff = _covariance(f_s) - _covariance(f_c)
    d = f_s.shape[1]
    return float(np.einsum("ij,ij->", diff, diff) / (4.0 * d * d))


def _adain(f_c, f_s, eps) -> np.ndarray:
    """AdaIN of one head, its means as column sums over m and its std the population one."""
    m = len(f_c)
    mu_s = f_s.sum(axis=0) / m
    dev_s = f_s - mu_s
    sd_s = np.sqrt((dev_s * dev_s).sum(axis=0) / m)
    dev_c = f_c - f_c.sum(axis=0) / m
    sd_c = np.sqrt((dev_c * dev_c).sum(axis=0) / m)
    return sd_s * dev_c / (sd_c + eps) + mu_s


def _layer(x, w_q, kv, heads, blend):
    """One layer on an m x (h d) step: per-head (f_out, f_s, f_c, ell, selected, spatial, fused).

    With blend None (blending off) the output is the content track and
    nothing is selected or masked.
    """
    d = x.shape[1] // heads
    tracks = []
    for i in range(heads):
        q = k_ordered_contract(x, w_q[:, i * d:(i + 1) * d])
        f_s, f_c = (_attention(q, k[i], v[i]) for k, v in (kv[:2], kv[2:]))
        tracks.append((f_s, f_c, _distance(f_s, f_c)))
    if blend is None:
        return [(f_c, f_s, f_c, ell, False, None, None) for f_s, f_c, ell in tracks]
    ranked = sorted(range(heads), key=lambda i: -tracks[i][2])  # stable: ties to the lower head
    selected = set(ranked[:blend.n])
    heads_out = []
    for i, (f_s, f_c, ell) in enumerate(tracks):
        spatial = ~(f_c > blend.alpha * f_c.max(axis=0))
        fused = spatial | (i in selected)
        f_out = np.where(fused, _adain(f_c, f_s, blend.eps), f_c)
        heads_out.append((f_out, f_s, f_c, ell, i in selected, spatial, fused))
    return heads_out


def asit_bytes(a) -> bytes:
    """The dump format: b"ASIT", version 1, rank, uint32 dims, float32 values, little-endian."""
    a = np.asarray(a, dtype=np.float64)
    header = b"ASIT" + struct.pack(f"<BB{a.ndim}I", 1, a.ndim, *a.shape)
    return header + a.astype("<f4").tobytes()


def _csv_bytes(header, rows) -> bytes:
    # Comma-separated, CRLF line ends; a float as its repr, which reads back exactly.
    lines = [header, *([repr(x) if isinstance(x, float) else str(x) for x in row] for row in rows)]
    return "".join(",".join(line) + "\r\n" for line in lines).encode()


def reference_run(cfg) -> dict[str, bytes]:
    """Every artifact run_pipeline(cfg) writes, by file name, from the formulas alone.

    The sampler walks the top latent down one rung a step; each step's latent
    goes through cfg.layers_per_step layers, each feeding its merged output
    to the next (the content track with blending off). A step's report row
    holds its final layer's distances; the artifacts hold the final step's
    output and masks.
    """
    from asi.ddim import ddim_generate, ddim_invert, make_schedule
    from asi.harness import synth_inputs

    inputs = synth_inputs(cfg)
    params, noise, h = inputs.params, inputs.latent_noise, cfg.heads
    sched = make_schedule(cfg.timesteps)
    top = ddim_invert(inputs.spatial, noise, sched, cfg.timesteps)[-1].x
    steps = ddim_generate(top, noise, sched, cfg.timesteps)[1:]  # the latents at T-1, ..., 0
    kv = []
    for prompt in (inputs.style_prompt, inputs.content_prompt):
        for w in (params.w_k, params.w_v):
            flat = k_ordered_contract(prompt.a, w.a)
            kv.append([flat[:, i * cfg.head_dim:(i + 1) * cfg.head_dim] for i in range(h)])
    rows = []
    for t, state in zip(range(cfg.timesteps, 0, -1), steps):
        x = state.x.a
        for _ in range(cfg.layers_per_step):
            layer = _layer(x, params.w_q.a, kv, h, cfg.blend if cfg.apply_asi else None)
            x = np.concatenate([f_out for f_out, *_ in layer], axis=1)
        f_out, f_s, f_c, ell, selected, spatial, fused = (np.array(v) for v in zip(*layer))
        fraction = mse = 0.0
        if cfg.apply_asi:
            fraction = int(fused.sum()) / fused.size
            squares = (f_out[~fused] - f_c[~fused]) ** 2
            mse = float(squares.sum() / squares.size) if squares.size else 0.0
        rows.append((t, *ell.tolist(), fraction, mse))
    artifacts = {
        "features_out.asit": asit_bytes(f_out),
        "report.csv": _csv_bytes(
            ["step", *(f"ell_{i}" for i in range(h)), "blended_fraction", "preserved_mse"], rows),
        "ell.csv": _csv_bytes(["head_index", "ell"], enumerate(rows[-1][1:-2])),
    }
    if cfg.apply_asi:
        artifacts["head_mask.asit"] = asit_bytes(np.broadcast_to(selected[:, None, None],
                                                                 fused.shape))
        artifacts["spatial_mask.asit"] = asit_bytes(spatial)
        artifacts["fused_mask.asit"] = asit_bytes(fused)
        m, d = fused.shape[1:]
        for i, head in enumerate(fused):
            pgm = f"P5\n{d} {m}\n255\n".encode() + np.where(head, 255, 0).astype(np.uint8).tobytes()
            artifacts[f"mask_head_{i}.pgm"] = pgm
    return artifacts
