"""Adaptive content-style blending.

Two mask extractors decide where style may be written into the content
features, and adaptive instance normalization decides what gets written:

* head-level: per head, the covariance statistics of the style and content
  features are compared; the n heads whose feature distributions differ the
  most are selected wholesale.
* spatial-level: per head and channel, positions whose content activation
  strictly exceeds alpha times the channel's spatial maximum are treated as
  load-bearing structure and preserved (mask 0 means preserve).

The two masks are fused elementwise by OR (a coordinate blends when its head
is selected or its position is not preserved), and the blend copies the
content value where the fused mask is False and the style-normalized value
where it is True. The head mask is a read-only length-h bool array, and the
spatial and fused masks are read-only (h, m, d) bool blocks, each checked for
its dtype and shape where it enters; so blending stays shape-uniform and no
mask is scanned for values.

Feature blocks are the read-only, C-contiguous float64 (h, m, d) arrays that
:mod:`asi.sica` returns, and every block returned here is one too. A block
may also be (h, steps, m, d): one feature map per sampler step. The kernels
:func:`covariance`, :func:`head_distances` and :func:`adain` take any
(..., m, d) block, one m x d head included, and reduce over positions (axis
-2), so each slice gets the bits it would get alone; heads are ranked along
axis 0 within each step, and the head mask and distances are (h, steps).
Every stage takes float64 blocks only (a bool block's Gram would be logical),
each checked by :func:`asi.numeric._check_array`, whose ShapeError names the
stage and the argument ("blend: block 2", "fuse_masks: head mask"). A block
holding NaN or Inf is a NonFiniteError: :func:`covariance`, :func:`adain`
and :func:`blend`, which no run calls, scan their blocks after every other
check, and name an overflow of finite values on the way the same way;
:func:`head_distances` and :func:`asi_layer` scan no entry, and the value
ends at the distance check, NumPy's warnings on the way ignored.

Every head's covariances, distance, masks and AdaIN depend on that head
alone, up to the top-n selection. So :func:`asi_layer` splits its heads over
two threads twice (see :func:`asi.numeric._split`): both attention tracks,
their column sums, the distances and the spatial mask; then, after the
selection, the fusion and the blend. :func:`head_distances` splits by the
shape of the block's Gram F^T F; the other public stages run whole. Each
half writes its heads of outputs made before the split, so every entry
keeps its bits; at head_dim=1 the Gram has one column, and nothing splits.
Each formula is one private kernel, shared by the public stages and the
layer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, NonFiniteError, ShapeError
from .numeric import (_as_number, _check_array, _check_finite, _check_type, _contract, _is_int,
                      _readonly, _split)
# siamese_attend is unused here, but the benchmark tracer wraps adablending.siamese_attend.
from .sica import _check_tracks, _sica, siamese_attend

__all__ = [
    "BlendConfig",
    "AsiLayerResult",
    "covariance",
    "head_distances",
    "extract_head_mask",
    "extract_spatial_mask",
    "fuse_masks",
    "adain",
    "blend",
    "asi_layer",
]


@dataclass(frozen=True)
class BlendConfig:
    """Free parameters of the blending stage.

    n: number of heads selected wholesale for blending.
    alpha: spatial threshold coefficient; positions above alpha * channel max
        are preserved.
    eps: guard added to the normalizing standard deviation's denominator.
    """

    n: int = 6
    alpha: float = 0.7
    eps: float = 1e-5

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ConfigError(f"n must be an integer >= 0, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("alpha", "eps"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))


def _check_positive(name: str, value: float) -> int | float:
    # Returns the value as a Python number. The upper bound also rejects NaN,
    # Inf and ints beyond float range.
    number = _as_number(value)
    if number is None or not 0 < number <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    return number


def _check_blocks(what: str, a: np.ndarray, *others: np.ndarray, least: int = 2,
                  most: int = 64) -> None:
    # Each block is a float64 (..., m, d) array of `least` to `most` dimensions, none empty,
    # and every other block has a's shape.
    for i, b in enumerate((a, *others), 1):
        _check_array(f"{what}: block {i}", b, least=least, most=most)
        if b.shape != a.shape:
            raise ShapeError(f"{what}: shapes differ, {a.shape} vs {b.shape}")


def _run_finite(what: str, blocks: tuple, kernel, *args):
    # kernel(*args) of a stage that no run calls, after every other check: NaN or Inf in
    # one of its float blocks, or an overflow of finite values on the way, is a
    # NonFiniteError, not NumPy's warning. A check of the result would miss an overflow
    # that ends finite, as a standard deviation of Inf divides a deviation to 0.
    for i, b in enumerate(blocks, 1):
        _check_finite(b, f"{what}: block {i}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return kernel(*args)
    except FloatingPointError as exc:
        raise NonFiniteError(f"{what}: the values are too large ({exc})") from exc


def covariance(f: np.ndarray) -> np.ndarray:
    """Spatial covariance over positions of an (..., m, d) block, as (..., d, d).

    Evaluated in Gram form, (F^T F - (1^T F)^T (1^T F) / m) / (m - 1), with a
    fixed contraction order; the result is exactly symmetric. Accurate for
    moderately scaled features (the Gram form cancels badly only for means
    that dwarf the spread).
    """
    _check_blocks("covariance", f)
    _check_rows(f)
    return _readonly(_run_finite("covariance", (f,), _cov, f))


def _check_rows(f: np.ndarray) -> None:
    if f.shape[-2] < 2:
        raise DegenerateInputError(f"covariance needs at least 2 rows, got {f.shape[-2]}")


def _cov(f: np.ndarray, colsum: np.ndarray | None = None) -> np.ndarray:
    # covariance after its checks, given f.sum(axis=-2, keepdims=True) if the caller has
    # it. Contracting a contiguous F^T keeps the per-head summation order.
    m = f.shape[-2]
    gram = _contract(np.ascontiguousarray(np.swapaxes(f, -1, -2)), f)
    colsum = f.sum(axis=-2, keepdims=True) if colsum is None else colsum
    return (gram - np.swapaxes(colsum, -1, -2) * colsum / m) / (m - 1)


def head_distances(f_s: np.ndarray, f_c: np.ndarray) -> np.ndarray:
    """Covariance distance over positions of two (..., m, d) blocks, as (...).

    Squared Frobenius norm of the covariance difference, normalized by 4 d**2:
    symmetric in its arguments and zero when the blocks share their
    covariance. An (h, [steps,] m, d) pair gives one distance per head (and
    step), the heads split over both CPUs by their Gram's shape; one m x d pair
    gives a 0-d array. Raises NonFiniteError when a distance is not finite,
    as it is for a block holding NaN or Inf.
    """
    _check_blocks("head_distances", f_s, f_c)
    _check_rows(f_s)
    with np.errstate(invalid="ignore", over="ignore"):  # _distances names NaN/Inf; see there
        if f_s.ndim == 2:
            dist = _distances(f_s, f_c)
        else:
            dist = np.empty(f_s.shape[:-2])

            def body(lo: int, hi: int) -> None:
                dist[lo:hi] = _distances(f_s[lo:hi], f_c[lo:hi])

            _split(body, f_s.shape[0], f_s.size, f_s.shape[-1])  # as the Gram F^T F
    return dist


def _distances(f_s: np.ndarray, f_c: np.ndarray, sum_s: np.ndarray | None = None,
               sum_c: np.ndarray | None = None) -> np.ndarray:
    # NaN, Inf or an overflow in a block ends here, as a distance that is not finite, so
    # the callers ignore NumPy's warnings on the way (in both halves of a split: see _split).
    d = f_s.shape[-1]
    diff = _cov(f_s, sum_s) - _cov(f_c, sum_c)
    dist = np.einsum("...ij,...ij->...", diff, diff) / (4.0 * d * d)
    if not np.isfinite(dist).all():  # head selection would fall to the tie-break alone
        raise NonFiniteError("head distance is not finite (covariance difference overflowed)")
    return dist


def _select_top_heads(distances: np.ndarray, n: int) -> np.ndarray:
    # The top n heads along axis 0, separately for each step of (h, steps) distances.
    if n > len(distances):
        raise ConfigError(f"n={n} exceeds head count {len(distances)}")
    # Descending distance, ties broken toward the lower head index: a head's
    # rank (the inverse permutation) in a stable sort of the negated (finite)
    # distances.
    order = np.argsort(-distances, axis=0, kind="stable")
    return _readonly(np.argsort(order, axis=0) < n)


def extract_head_mask(f_s: np.ndarray, f_c: np.ndarray, cfg: BlendConfig) -> np.ndarray:
    """Select the cfg.n heads whose style/content covariances differ most.

    Returns a read-only bool array shaped like the distances, True for each
    selected head.
    """
    _check_blocks("extract_head_mask", f_s, f_c, least=3)  # a head axis before (m, d)
    _check_config("extract_head_mask", cfg)
    return _select_top_heads(head_distances(f_s, f_c), cfg.n)


def extract_spatial_mask(f_c: np.ndarray, cfg: BlendConfig) -> np.ndarray:
    """Mask out (False: preserve) positions strictly above alpha times the channel max.

    The criteria point per head and channel is the max over positions of the
    content features; the comparison is strict, so with alpha < 1 the argmax
    position itself is preserved whenever the channel max is positive. When a
    channel max is <= 0 and alpha < 1 the threshold exceeds the max, nothing
    qualifies, and that channel's mask is all True; the formula is applied as
    written rather than special-cased.
    """
    _check_blocks("extract_spatial_mask", f_c, least=3, most=4)  # (h, [steps,] m, d)
    _check_config("extract_spatial_mask", cfg)
    return _readonly(_spatial(f_c, cfg.alpha, np.empty(f_c.shape, dtype=bool)))


def _spatial(f_c: np.ndarray, alpha: float, out: np.ndarray) -> np.ndarray:
    # Not f <= tau: a NaN entry compares False both ways and must blend (True).
    np.greater(f_c, alpha * f_c.max(axis=-2, keepdims=True), out=out)
    return np.logical_not(out, out=out)


def _check_config(what: str, cfg: BlendConfig) -> None:
    _check_type(f"{what}: cfg", cfg, BlendConfig, ConfigError)


def _check_mask(what: str, mask: np.ndarray, shape: tuple[int, ...] | None = None) -> None:
    # An (h, [steps,] m, d) bool block; of `shape`, the features', where the caller gives it.
    _check_array(f"{what}: mask", mask, np.bool_, 3, 4)
    if shape is not None and mask.shape != shape:
        raise ShapeError(f"{what}: mask has shape {mask.shape}, needs {shape}")


def fuse_masks(head: np.ndarray, spatial: np.ndarray) -> np.ndarray:
    """Combine the two masks elementwise by OR.

    `head` is the bool selection of :func:`extract_head_mask`, one entry per
    (h, m, d) slice of the spatial mask. Selected heads blend at every
    position; unselected heads blend only where the spatial mask permits.
    """
    _check_mask("fuse_masks", spatial)
    _check_array("fuse_masks: head mask", head, np.bool_, 1, 2)
    if head.shape != spatial.shape[:-2]:
        raise ShapeError(f"head mask has shape {head.shape}, spatial mask has heads "
                         f"{spatial.shape[:-2]}")
    return _readonly(_fuse(head, spatial, np.empty(spatial.shape, dtype=bool)))


def _fuse(head: np.ndarray, spatial: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.bitwise_or(head[..., None, None], spatial, out=out)


def _adain(f_c: np.ndarray, f_s: np.ndarray, eps: float, out: np.ndarray,
           sum_c: np.ndarray | None = None, sum_s: np.ndarray | None = None) -> np.ndarray:
    # sd_s * dev_c / (sd_c + eps) + mu_s, built in `out` by the operations, in order, of
    # NumPy's own mean (a column sum, the caller's if given, over m) and std. The style
    # deviation is squared in `out` itself, so one block of squares besides it is held.
    m = f_c.shape[-2]
    mu_s = (f_s.sum(axis=-2, keepdims=True) if sum_s is None else sum_s) / m
    np.subtract(f_s, mu_s, out=out)
    out *= out
    sd_s = np.sqrt(out.sum(axis=-2, keepdims=True) / m)
    np.subtract(f_c, (f_c.sum(axis=-2, keepdims=True) if sum_c is None else sum_c) / m, out=out)
    sd_c = np.sqrt((out * out).sum(axis=-2, keepdims=True) / m)
    np.multiply(sd_s, out, out=out)
    out /= sd_c + eps
    out += mu_s
    return out


# blend calls _adain, not adain: the benchmark's tracer hooks adablending.adain
# with a counter that reads a per-head Matrix's .rows, and requires no call in a run.
def adain(f_c: np.ndarray, f_s: np.ndarray, eps: float) -> np.ndarray:
    """Renormalize an (..., m, d) content block to the style's per-channel moments.

    out[:, c] = sigma_s[c] * (f_c[:, c] - mu_c[c]) / (sigma_c[c] + eps) + mu_s[c]

    Moments are taken over positions; sigma is the population standard
    deviation. eps guards the division for near-constant channels and is
    added to the denominator only, leaving the style scale untouched. eps
    must be a finite number > 0, as in :class:`BlendConfig`.
    """
    _check_positive("eps", eps)
    _check_blocks("adain", f_c, f_s)
    return _readonly(_run_finite("adain", (f_c, f_s), _adain, f_c, f_s, eps, np.empty(f_c.shape)))


def blend(f_c: np.ndarray, f_s: np.ndarray, mask: np.ndarray, cfg: BlendConfig) -> np.ndarray:
    """Mask-guided interpolation between content and style-normalized features.

    Because the mask is binary, the blend is implemented as coordinate
    selection: every output entry is bit-identical to either the content
    entry (mask False) or the style-normalized entry (mask True); no third
    value can appear.
    """
    _check_blocks("blend", f_c, f_s, least=3, most=4)  # (h, [steps,] m, d), as its mask
    _check_mask("blend", mask, f_c.shape)
    _check_config("blend", cfg)
    out = np.empty(f_c.shape)
    _run_finite("blend", (f_c, f_s), _blend, f_c, f_s, mask, cfg.eps, out)
    return _readonly(out)


def _blend(f_c: np.ndarray, f_s: np.ndarray, mask: np.ndarray, eps: float, out: np.ndarray,
           *sums: np.ndarray) -> None:
    # AdaIN (from the content's and the style's column sums, if given) where mask, else f_c.
    _adain(f_c, f_s, eps, out, *sums)
    np.putmask(out, ~mask, f_c)


@dataclass(frozen=True)
class AsiLayerResult:
    """Output of one full layer application, with intermediates for inspection."""

    f_out: np.ndarray
    f_s: np.ndarray
    f_c: np.ndarray
    distances: np.ndarray
    head_mask: np.ndarray
    spatial_mask: np.ndarray
    fused_mask: np.ndarray


def asi_layer(
    q: np.ndarray,
    k_s: np.ndarray,
    v_s: np.ndarray,
    k_c: np.ndarray,
    v_c: np.ndarray,
    cfg: BlendConfig,
) -> AsiLayerResult:
    """Dual-track attention, mask extraction, fusion, and blending in sequence.

    q may be an (h, steps, m, d) block of independent layer applications, one
    per sampler step; the cfg.n heads are then selected within each step.
    Runs in two splits by heads; AdaIN's means are the tracks' column sums,
    taken once for the distances, over m.
    """
    _check_config("asi_layer", cfg)
    _check_tracks("asi_layer", q, k_s, v_s, k_c, v_c, most=4)  # masks are (h, [steps,] m, d)
    _check_rows(q)
    h, d = q.shape[0], q.shape[-1]
    f_s, f_c, spatial = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape, dtype=bool)
    sums = np.empty((2, *q.shape[:-2], 1, d))  # the style's, then the content's
    distances = np.empty(q.shape[:-2])
    qt = q.reshape(h, -1, d).transpose(0, 2, 1)

    def stats(lo: int, hi: int) -> None:
        for f, k, v, colsum in ((f_s, k_s, v_s, sums[0]), (f_c, k_c, v_c, sums[1])):
            f.reshape(h, -1, d)[lo:hi] = _sica(qt[lo:hi], k[lo:hi], v[lo:hi]).transpose(0, 2, 1)
            f[lo:hi].sum(axis=-2, keepdims=True, out=colsum[lo:hi])
        distances[lo:hi] = _distances(f_s[lo:hi], f_c[lo:hi], sums[0, lo:hi], sums[1, lo:hi])
        _spatial(f_c[lo:hi], cfg.alpha, spatial[lo:hi])

    # An entry of a track: 2 t multiply-adds in each track, d in each Gram. At d=1 the Gram
    # has one column, so all runs whole; with m >= 2, the attention products never have one.
    with np.errstate(invalid="ignore", over="ignore"):  # _distances names NaN/Inf; see there
        _split(stats, h, f_c.size, 2 * (len(k_s[0]) + len(k_c[0]) + d) if d > 1 else 1)
    head_mask = _select_top_heads(distances, cfg.n)
    f_out, fused = np.empty(q.shape), np.empty(q.shape, dtype=bool)  # once the tracks' P is freed

    def mix(lo: int, hi: int) -> None:
        _fuse(head_mask[lo:hi], spatial[lo:hi], fused[lo:hi])
        _blend(f_c[lo:hi], f_s[lo:hi], fused[lo:hi], cfg.eps, f_out[lo:hi], sums[1, lo:hi],
               sums[0, lo:hi])

    _split(mix, h, f_c.size, d)  # as the Gram F^T F
    return AsiLayerResult(_readonly(f_out), _readonly(f_s), _readonly(f_c), distances, head_mask,
                          _readonly(spatial), _readonly(fused))
