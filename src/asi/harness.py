"""End-to-end synthetic pipeline.

Builds seeded prompt embeddings and spatial features, walks a toy denoising
loop in which the latent doubles as the spatial feature matrix, and routes
each step's features through the dual-track attention + blending layer.
The blending output never feeds back into the latent: the latent
trajectory is pure sampler bookkeeping, which keeps every run exactly
reproducible and every metric attributable to the blending stage alone.
It also leaves a run's layer applications independent of each other once
the sampler has made their latents, so the layer runs once per chunk of
steps, on (heads, steps, positions, head_dim) blocks; the comment at
_CHUNK_ENTRIES gives the chunk size and why.

Every artifact is written here, by one writer (_publish) that puts a set in
place all or nothing, then removes stale names: report.csv, the per-head
distance CSV, mask and feature dumps, per-head mask renders, the sweep CSV
and the trajectory dump. The same config always gives byte-identical files.
"""

from __future__ import annotations

import ctypes
import dataclasses
import fnmatch
import functools
import itertools
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .adablending import BlendConfig, asi_layer, head_distances
# ddim_step is unused here, but the benchmark tracer wraps harness.ddim_step.
from .ddim import LatentState, NoiseSchedule, _walk, ddim_invert, ddim_step, make_schedule
from .errors import AsiError, ConfigError, ShapeError
from .numeric import (Matrix, Rng, _as_number, _check_array, _check_finite, _check_type, _is_int,
                      _readonly, _split, randn_matrix)
# siamese_attend is unused here, but the benchmark tracer wraps harness.siamese_attend.
from .sica import (AttentionParams, _project, _sica, merge_heads, project_kv, project_q,
                   siamese_attend)
from .tensorio import save_tensor

__all__ = [
    "ExperimentConfig",
    "configure",
    "SynthInputs",
    "RunReport",
    "SWEEPABLE_PARAMS",
    "synth_inputs",
    "run_pipeline",
    "sweep",
    "render_mask_pgm",
    "dump_trajectory",
]

_MAX_SEED = (1 << 64) - 1


def _as_dir(what: str, value) -> Path:
    # An output directory's str or str os.PathLike name, as a Path.
    if not isinstance(value, (str, os.PathLike)) or not isinstance(os.fspath(value), str):
        raise ConfigError(f"{what} must be a str or a str os.PathLike, got {value!r}")
    if "\0" in str(value):
        raise ConfigError(f"{what} must not contain a NUL byte, got {str(value)!r}")
    return Path(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every free parameter of a run. Defaults give the reference experiment."""

    seed: int = 0
    heads: int = 8
    head_dim: int = 8
    positions: int = 16
    tokens: int = 4
    timesteps: int = 50
    layers_per_step: int = 1
    perturbation: float = 1.0
    apply_asi: bool = True
    dump_dir: Path = Path("out")
    blend: BlendConfig = field(default_factory=BlendConfig)

    def __post_init__(self) -> None:
        # Each integer field and its least value; positions >= 2 gives a covariance.
        for name, least in (("seed", 0), ("heads", 1), ("head_dim", 1), ("positions", 2),
                            ("tokens", 1), ("timesteps", 1), ("layers_per_step", 1)):
            value = getattr(self, name)
            if not _is_int(value) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.seed > _MAX_SEED:
            raise ConfigError(f"seed must be below 2**64, got {self.seed}")
        value = _as_number(self.perturbation)
        # The upper bound also rejects NaN, Inf and ints beyond float range.
        if value is None or not 0 <= value <= sys.float_info.max:
            raise ConfigError(
                f"perturbation must be a finite number >= 0, got {self.perturbation!r}")
        object.__setattr__(self, "perturbation", value)
        if not isinstance(self.apply_asi, bool):
            raise ConfigError(f"apply_asi must be a bool, got {self.apply_asi!r}")
        if not isinstance(self.blend, BlendConfig):
            raise ConfigError(f"blend must be a BlendConfig, got {self.blend!r}")
        if self.blend.n > self.heads:
            raise ConfigError(f"n={self.blend.n} exceeds heads={self.heads}")
        object.__setattr__(self, "dump_dir", _as_dir("dump_dir", self.dump_dir))

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Config keys and their types, read from the two dataclasses: every
# ExperimentConfig field but the nested blend, plus every BlendConfig field.
_BLEND_KEYS = get_type_hints(BlendConfig)
_KEYS = {**get_type_hints(ExperimentConfig), **_BLEND_KEYS}
del _KEYS["blend"]


def configure(cfg: ExperimentConfig, settings: Iterable[tuple[str, object]]) -> ExperimentConfig:
    """Apply (key, value) settings to cfg, left to right; later keys win.

    Each value is parsed from its text by the field's declared type (booleans
    accept true/false, 1/0, yes/no, on/off), and BlendConfig keys land in
    cfg.blend. Unknown keys, empty or blank values, unparseable values and a
    result that fails validation are a ConfigError naming the key, as is an
    entry that is no (key, value) pair.
    """
    _check_type("configure: cfg", cfg, ExperimentConfig, ConfigError)
    plain: dict = {}
    blend: dict = {}
    try:
        settings = [(key, raw) for key, raw in settings]
    except (TypeError, ValueError) as exc:  # no iterable, or an entry that is no pair
        raise ConfigError(f"configure: settings must be (key, value) pairs ({exc})") from exc
    for key, raw in settings:
        if not isinstance(key, str) or key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _KEYS[key]
        if not str(raw).strip():
            raise ConfigError(f"empty value for {key!r}")
        try:
            value = (_parse_bool if kind is bool else kind)(str(raw))
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})") from exc
        (blend if key in _BLEND_KEYS else plain)[key] = value
    return dataclasses.replace(cfg, blend=dataclasses.replace(cfg.blend, **blend), **plain)


@dataclass(frozen=True)
class SynthInputs:
    """Seeded tensors for one run; see :func:`synth_inputs` for the draw order.

    The spatial features and the latent noise are read-only 2-D float64 arrays; the prompts
    are the Matrix values that project_kv multiplies.
    """

    spatial: np.ndarray
    content_prompt: Matrix
    style_prompt: Matrix
    params: AttentionParams
    latent_noise: np.ndarray


def synth_inputs(cfg: ExperimentConfig) -> SynthInputs:
    """Draw all input tensors from one seeded stream in a fixed order.

    The order is part of the reproducibility contract: w_q, w_k, w_v (each
    model_dim x model_dim, scaled by model_dim**-0.5 to keep activations
    O(1)), then spatial features (positions x model_dim), the content prompt
    (tokens x model_dim), the style perturbation block (same shape, always
    drawn, scaled by cfg.perturbation), and finally the diffusion noise for
    the latent bookkeeping (positions x model_dim). With perturbation 0 the
    style prompt is bit-identical to the content prompt.
    """
    _check_type("synth_inputs: cfg", cfg, ExperimentConfig, ConfigError)
    rng = Rng(cfg.seed)
    md = cfg.model_dim
    scale = md**-0.5
    w_q, w_k, w_v = (Matrix(randn_matrix(rng, md, md).a * scale) for _ in range(3))
    params = AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v, heads=cfg.heads, head_dim=cfg.head_dim)
    spatial = randn_matrix(rng, cfg.positions, md).a
    content = randn_matrix(rng, cfg.tokens, md)
    delta = randn_matrix(rng, cfg.tokens, md)
    style = content if cfg.perturbation == 0 else Matrix(content.a + cfg.perturbation * delta.a)
    latent_noise = randn_matrix(rng, cfg.positions, md).a
    return SynthInputs(spatial, content, style, params, latent_noise)


@dataclass(frozen=True)
class RunReport:
    """Aggregated metrics of one run.

    per_step_ell holds the per-head covariance distances of each step's final
    layer application, in execution order (t = T down to 1). preserved_mse is
    the worst per-step mean squared deviation on mask-0 coordinates (exactly
    0 by construction); blended_fraction is the mean over steps of the fused
    mask's mean (0 when blending is bypassed).
    """

    per_step_ell: tuple[tuple[float, ...], ...]
    preserved_mse: float
    blended_fraction: float
    output_feature_path: Path


def render_mask_pgm(path: str | Path, mask_slice: np.ndarray) -> Path:
    """Render one head's positions x head_dim mask as binary PGM.

    0 maps to black (preserve), 1 to white (blend); one image row per
    position. A slice that is not 2-D, or holds any other value (NaN
    included), is a ShapeError, raised before the file is opened.
    """
    a = np.asarray(mask_slice)
    if a.ndim != 2:
        raise ShapeError(f"render_mask_pgm needs a 2-D mask slice, got shape {a.shape}")
    if a.dtype.kind not in "biuf" or not ((a == 0) | (a == 1)).all():
        raise ShapeError(f"render_mask_pgm needs mask entries of 0 or 1, got {a.dtype} entries "
                         "holding other values")
    m, d = a.shape
    header = f"P5\n{d} {m}\n255\n".encode("ascii")
    body = (a * 255.0).astype(np.uint8).tobytes(order="C")
    path = Path(path)
    path.write_bytes(header + body)
    return path


# Every mask artifact's name: a set of masks, or none with blending off, replaces them all.
_MASK_GLOBS = ("head_mask.asit", "spatial_mask.asit", "fused_mask.asit", "mask_head_*.pgm")


def _mask_files(masks: Sequence[np.ndarray] | None) -> dict:
    # _publish's entries for masks = (head, spatial, fused), the head mask broadcast to (h, m, d).
    if masks is None:
        return {}
    head, spatial, fused = masks
    return {
        "head_mask.asit": (save_tensor, np.broadcast_to(head[:, None, None], fused.shape)),
        "spatial_mask.asit": (save_tensor, spatial),
        "fused_mask.asit": (save_tensor, fused),
        **{f"mask_head_{i}.pgm": (render_mask_pgm, fused[i]) for i in range(len(fused))},
    }


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    # One text, header first, "\r\n" after each row, written in one call. No field needs
    # quoting: each is a number or a fixed name. The rows hold Python floats, whose str is
    # their repr: the shortest text that reads back exactly.
    path.write_text("".join(",".join(map(str, row)) + "\r\n" for row in (header, *rows)),
                    newline="")


def _publish(out_dir: Path, files: dict, stale: Sequence[str] = ()) -> None:
    # The one artifact writer: files maps each name to (write, *args); write(path, *args) makes
    # the file. Each goes to <name>.partial in out_dir (made if missing), and only once all are
    # written are they renamed into place; then each file matching a stale glob but not named in
    # files is removed. A name held by a directory fails first. On failure the temporaries and
    # the directories this call made are removed, so out_dir keeps its earlier set byte for byte.
    # One scan of out_dir finds the names directories hold and the stale files.
    is_dir = {e.name: e.is_dir() for e in os.scandir(out_dir)} if out_dir.is_dir() else {}
    if held := [name for name in files if is_dir.get(name)]:
        raise IsADirectoryError(f"{out_dir / held[0]}: a directory holds this artifact's name")
    created = list(itertools.takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    partials: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (write, *args) in files.items():
            partials.append(out_dir / f"{name}.partial")
            write(partials[-1], *args)
    except BaseException as exc:
        for partial in partials:
            partial.unlink(missing_ok=True)
        for path in created:  # deepest first
            if path.is_dir():
                path.rmdir()
        if isinstance(exc, AsiError) and partials:  # name the artifact, not its temporary
            raise type(exc)(str(exc).replace(str(partials[-1]), str(out_dir / name))) from exc
        raise
    for partial, name in zip(partials, files):
        os.replace(partial, out_dir / name)
    for name, directory in is_dir.items():
        if not directory and name not in files and any(fnmatch.fnmatchcase(name, p) for p in stale):
            os.unlink(out_dir / name)


def dump_trajectory(
    trajectory: list[LatentState], sched: NoiseSchedule, out_dir: str | Path
) -> Path:
    """Publish one tensor dump per state and a manifest CSV into out_dir, all or nothing.

    Only once the set is in place is every other step_*.asit in out_dir (from an earlier,
    longer trajectory) removed. The manifest has columns t, alpha_bar, file; returns its path.
    """
    _check_type("dump_trajectory: trajectory", trajectory, list)
    for state in trajectory:
        _check_type("dump_trajectory: trajectory entry", state, LatentState)
        _check_array("dump_trajectory: latent", state.x, least=2, most=2)
    _check_type("dump_trajectory: sched", sched, NoiseSchedule, ConfigError)
    out_dir = _as_dir("dump_trajectory: out_dir", out_dir)
    names = [f"step_{state.t}.asit" for state in trajectory]
    files = {name: (save_tensor, state.x) for name, state in zip(names, trajectory)}
    files["trajectory.csv"] = (_write_csv, ["t", "alpha_bar", "file"],
                               [(state.t, sched.bar(state.t), name)
                                for state, name in zip(trajectory, names)])
    _publish(out_dir, files, ("step_*.asit",))
    return out_dir / "trajectory.csv"


def _preserved_mse(fused: np.ndarray, f_out: np.ndarray, f_c: np.ndarray) -> float:
    # Mean squared deviation from the content features where the fused (h, m, d) mask is
    # False. A run gathers it only for a step where a preserved coordinate left its content
    # value (every other step's is 0.0, the bits this returns there), so it runs whole.
    preserved = ~fused
    squares = (f_out[preserved] - f_c[preserved]) ** 2
    return float(squares.sum() / squares.size) if squares.size else 0.0


# The layer runs once per chunk of sampler steps, on (h, steps, m, d) blocks.
# A chunk's features (h, m, d per step) and its logits (h, m, tokens per step)
# each hold at most this many entries (512 KiB), unless one step alone holds
# more, so the run's peak memory does not grow with the step count. The
# default run (1,024 entries a step) does its 50 steps in one chunk; sd_block
# and mid_bypass steps (630,784 and 65,536) are a chunk each. Per step at the
# default size, in process at T=64 on a 2-CPU x86 box (from 16 steps on, the
# projection reaches _MIN_SPLIT and splits; smaller blocks pay fixed costs):
#
#     steps per chunk        1    8   16   32   64
#     layer, us per step   200   78   78   68   63
#     run, us per step     280  143  147  136  132
#
# At its peak a run holds w_q and W_q^T, the true noise, the current latent
# and one chunk's layer blocks.
_CHUNK_ENTRIES = 65536


def _chunk_steps(cfg: ExperimentConfig) -> int:
    per_step = cfg.heads * cfg.positions * max(cfg.head_dim, cfg.tokens)
    return max(1, _CHUNK_ENTRIES // per_step)


def _bypass_layers(latents: np.ndarray, params: AttentionParams, kv: tuple, layers: int,
                   shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    # With blending off, one chunk's layer stack: the content track's final output and
    # the style track of the final queries, as (h, steps, m, d) blocks. Every stage reads
    # only its own query rows, so the stack splits once, by rows; each half checks its
    # projections finite. A content track's output needs no check: each entry is a
    # softmax-weighted mean of V_c rows, which matmul checked. Under 4 rows the stack runs
    # whole, as a half of one row would attend in another order (see _split).
    h, _, _, d = shape
    content, style = np.empty((2, h, len(latents), d))
    wt = params._w_qt  # made here, once, not in each half

    def body(lo: int, hi: int) -> None:
        xt = np.ascontiguousarray(latents[lo:hi].T)  # X^T; a layer's V^T P is the next X^T
        for left in range(layers, 0, -1):
            qt = _project(wt, xt.reshape(h * d, -1), what="run_pipeline: queries").reshape(h, d, -1)
            del xt  # once Q^T = W_q^T X^T is made
            if left > 1:
                xt = _sica(qt, *kv[2:], qt)  # written over Q^T, once the logits have read it
        content[:, lo:hi] = _sica(qt, *kv[2:]).transpose(0, 2, 1)
        style[:, lo:hi] = _sica(qt, *kv[:2], qt).transpose(0, 2, 1)

    _split(body, len(latents), latents.size, h * d if len(latents) >= 4 else 1)
    return _readonly(content.reshape(shape)), _readonly(style.reshape(shape))


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


@functools.cache
def _keep_freed_memory_mapped() -> None:
    # glibc serves a block from the heap below its mmap threshold and returns
    # the freed top of the heap to the system above its trim threshold. By
    # default both follow the largest block freed (the trim at twice it), about
    # 10 MB at the SD size, so each step's freed latent-sized blocks were
    # trimmed and the next step faulted the same pages back in. Set once per
    # process; without mallopt (another libc or OS) the allocator keeps its own.
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's own ceiling for its dynamic threshold
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)  # twice that, as glibc's own rule would set it
    mallopt(_M_ARENA_MAX, 1)  # the helper thread allocates from this heap, not an arena of its own


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Run the full loop and write all artifacts into cfg.dump_dir.

    The sampler walks down one step at a time with the deterministic update
    and the true noise. Each fresh latent doubles as that step's spatial
    feature matrix: it is projected to queries, attended against both
    prompts, and blended cfg.layers_per_step times (each layer feeding the
    next). As the blended output never feeds the latent, the layers run once
    per chunk of steps: one sampler walk writes the chunk's latents into one
    stacked block and each layer's queries are viewed as an (h, steps, m, d)
    block, so every step computes what it would alone, bit for bit, and the
    top n heads are selected per step. _CHUNK_ENTRIES bounds a chunk's size:
    the default run's 50 steps are one chunk, an SD-sized step is a chunk of
    its own. A chunk's final layer output is checked finite, not merged back
    into an array that no one reads. With blending off, only the content
    track feeds the next layer, and a chunk's whole layer stack runs as one
    split by rows (_bypass_layers), ending with the style track of the final
    queries. The blended output of the final step's final layer is dumped
    along with that step's masks and per-head distances.

    The first call in a process sets glibc's allocator to keep up to 64 MiB
    of freed heap mapped, so later steps and runs reuse their blocks' pages
    instead of faulting them in afresh.
    """
    _check_type("run_pipeline: cfg", cfg, ExperimentConfig, ConfigError)
    _keep_freed_memory_mapped()
    inputs = synth_inputs(cfg)
    sched = make_schedule(cfg.timesteps)
    noise = inputs.latent_noise
    params = inputs.params
    chunk = _chunk_steps(cfg)
    # k_s, v_s, k_c, v_c: style keys and values, then content keys and values.
    kv = (*project_kv(inputs.style_prompt, params), *project_kv(inputs.content_prompt, params))
    # The layers read only w_q (as W_q^T), so w_k and w_v go with inputs.
    params = dataclasses.replace(params, w_k=params.w_q, w_v=params.w_q)

    # Only the top latent is kept; the spatial block it was inverted from goes with inputs.
    x = ddim_invert(inputs.spatial, noise, sched, cfg.timesteps, last_only=True)[-1].x
    del inputs

    rows: list[tuple] = []
    for top in range(cfg.timesteps, 0, -chunk):
        q = features = result = block = fused = None  # free the previous chunk's blocks first
        ts = range(top, max(top - chunk, 0), -1)
        # One walk down the chunk's rungs writes each step's latent to its rows of one
        # block, and checks the last one finite. The next chunk starts from that one, a
        # copy where a view would keep a block of several steps alive.
        latents = np.empty((len(ts), cfg.positions, cfg.model_dim))
        _walk("run_pipeline: latent", x, noise, sched, range(top, ts[-1] - 2, -1), latents)
        x = latents[-1] if len(ts) == 1 else latents[-1].copy()
        features = latents.reshape(-1, cfg.model_dim)
        del latents
        shape = (cfg.heads, len(ts), cfg.positions, cfg.head_dim)
        if cfg.apply_asi:
            for left in range(cfg.layers_per_step, 0, -1):  # layers left, this one included
                q = project_q(features, params).reshape(shape)
                features = result = None  # free the previous layer's blocks before the next
                result = asi_layer(q, *kv, cfg.blend)
                if left > 1:
                    features = merge_heads(result.f_out)
            block, distances, fused = result.f_out, result.distances, result.fused_mask
            _check_finite(block, "run_pipeline: layer output")  # as the skipped merge would
            # The chunk's report columns at once; only a step whose preserved entries moved
            # is gathered.
            fractions = (np.count_nonzero(fused, axis=(0, 2, 3)) / fused[:, 0].size).tolist()
            changed = ((block != result.f_c) & ~fused).any(axis=(0, 2, 3))
            mses = [_preserved_mse(fused[:, i], block[:, i], result.f_c[:, i]) if changed[i]
                    else 0.0 for i in range(len(ts))]
        else:
            block, style = _bypass_layers(features, params, kv, cfg.layers_per_step, shape)
            features = None
            distances = head_distances(style, block)
            del style
            fractions = mses = [0.0] * len(ts)
        rows += zip(ts, *distances.tolist(), fractions, mses)  # one row per step
    # The artifacts need only the final step's output and masks.
    f_out = block[:, -1]
    masks = None if result is None else [
        mask[:, -1] for mask in (result.head_mask, result.spatial_mask, result.fused_mask)]
    del q, features, result, block, fused

    header = ["step", *(f"ell_{i}" for i in range(cfg.heads)), "blended_fraction", "preserved_mse"]
    _publish(cfg.dump_dir, {
        "features_out.asit": (save_tensor, f_out),
        "report.csv": (_write_csv, header, rows),
        "ell.csv": (_write_csv, ["head_index", "ell"], enumerate(rows[-1][1:-2])),
        **_mask_files(masks),
    }, _MASK_GLOBS)

    return RunReport(
        per_step_ell=tuple(r[1:-2] for r in rows),
        preserved_mse=max(r[-1] for r in rows),
        blended_fraction=float(np.mean([r[-2] for r in rows])),
        output_feature_path=cfg.dump_dir / "features_out.asit",
    )


SWEEPABLE_PARAMS = ("n", "alpha", "seed", "perturbation")


def _sweep_run(cfg: ExperimentConfig, param: str, raw) -> tuple[object, ExperimentConfig]:
    # One sweep entry: the value it parses to and the config of its run.
    run_cfg = configure(cfg, [(param, raw)])
    value = getattr(run_cfg.blend if param in _BLEND_KEYS else run_cfg, param)
    return value, dataclasses.replace(run_cfg, dump_dir=cfg.dump_dir / f"{param}_{value}")


def sweep(cfg: ExperimentConfig, param: str, values: list) -> list[RunReport]:
    """One run per value, each in its own subdirectory, plus a combined CSV.

    `values` is a non-empty list or tuple. Values are parsed like any other
    setting (see :func:`configure`), and every run config is built before
    the first run starts; then an earlier sweep.csv is removed, so a sweep
    that fails part-way leaves none.
    Subdirectories and CSV rows carry the parsed value. All runs share
    cfg.seed unless the sweep parameter is the seed itself. Reports come back
    in input order.
    """
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE_PARAMS}")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"sweep needs a non-empty list of values, got {values!r}")
    runs = [_sweep_run(cfg, param, raw) for raw in values]
    (cfg.dump_dir / "sweep.csv").unlink(missing_ok=True)
    reports = [run_pipeline(run_cfg) for _, run_cfg in runs]
    header = ["param", "value", "blended_fraction", "preserved_mse"]
    rows = [(param, v, r.blended_fraction, r.preserved_mse) for (v, _), r in zip(runs, reports)]
    _publish(cfg.dump_dir, {"sweep.csv": (_write_csv, header, rows)})
    return reports
