"""End-to-end synthetic pipeline.

Builds seeded prompt embeddings and spatial features, walks a toy denoising
loop in which the latent doubles as the spatial feature matrix, and routes
the features through the dual-track attention + blending layer at every
step. The blending output never feeds back into the latent: the latent
trajectory is pure sampler bookkeeping, which keeps every run exactly
reproducible and every metric attributable to the blending stage alone.

Every artifact is written here: the run's report.csv, per-head distance
CSV, mask and feature dumps and per-head mask renders, the sweep CSV, and
the sampler trajectory dump. All are written with overwrite semantics, so a
repeated run with the same config produces byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .adablending import AsiLayerResult, BlendConfig, asi_layer, head_distances
from .ddim import (
    LatentState,
    NoiseSchedule,
    OracleDenoiser,
    ddim_invert,
    ddim_step,
    make_schedule,
)
from .errors import ConfigError
from .numeric import Matrix, Rng, randn_matrix
# siamese_attend is unused here, but the benchmark tracer wraps harness.siamese_attend.
from .sica import AttentionParams, attend, merge_heads, project_kv, project_q, siamese_attend
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
    "write_mask_artifacts",
    "dump_trajectory",
]

_MAX_SEED = (1 << 64) - 1


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
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MAX_SEED:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        for name in ("heads", "head_dim", "tokens", "timesteps", "layers_per_step"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.positions < 2:
            raise ConfigError(
                f"positions must be >= 2 (covariance needs it), got {self.positions}"
            )
        if not (self.perturbation >= 0 and math.isfinite(self.perturbation)):
            raise ConfigError(f"perturbation must be finite and >= 0, got {self.perturbation}")
        if self.blend.n > self.heads:
            raise ConfigError(f"n={self.blend.n} exceeds heads={self.heads}")
        if "\0" in str(self.dump_dir):
            raise ConfigError(f"dump_dir must not contain a NUL byte, got {str(self.dump_dir)!r}")
        object.__setattr__(self, "dump_dir", Path(self.dump_dir))

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
    result that fails validation are a ConfigError naming the key.
    """
    plain: dict = {}
    blend: dict = {}
    for key, raw in settings:
        if key not in _KEYS:
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
    """Seeded tensors for one run; see :func:`synth_inputs` for the draw order."""

    spatial: Matrix
    content_prompt: Matrix
    style_prompt: Matrix
    params: AttentionParams
    latent_noise: Matrix


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
    rng = Rng(cfg.seed)
    md = cfg.model_dim
    scale = md**-0.5
    w_q, w_k, w_v = (Matrix(randn_matrix(rng, md, md).a * scale) for _ in range(3))
    params = AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v, heads=cfg.heads, head_dim=cfg.head_dim)
    spatial = randn_matrix(rng, cfg.positions, md)
    content = randn_matrix(rng, cfg.tokens, md)
    delta = randn_matrix(rng, cfg.tokens, md)
    if cfg.perturbation == 0:
        style = content
    else:
        style = Matrix(content.a + cfg.perturbation * delta.a)
    latent_noise = randn_matrix(rng, cfg.positions, md)
    return SynthInputs(
        spatial=spatial,
        content_prompt=content,
        style_prompt=style,
        params=params,
        latent_noise=latent_noise,
    )


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
    position.
    """
    m, d = mask_slice.shape
    header = f"P5\n{d} {m}\n255\n".encode("ascii")
    body = (mask_slice * 255.0).astype(np.uint8).tobytes(order="C")
    path = Path(path)
    path.write_bytes(header + body)
    return path


def write_mask_artifacts(out_dir: Path, result: AsiLayerResult | None) -> None:
    """Replace the mask artifacts in out_dir with one layer application's.

    First removes head_mask.asit, spatial_mask.asit, fused_mask.asit and every
    mask_head_*.pgm already in out_dir, so none is left from an earlier run.
    Then, unless result is None (blending off), writes the three masks (each
    of shape heads x positions x head_dim) and mask_head_<i>.pgm for every
    head i into out_dir, which is created if missing.
    """
    for name in ("head_mask.asit", "spatial_mask.asit", "fused_mask.asit"):
        (out_dir / name).unlink(missing_ok=True)
    for stale in out_dir.glob("mask_head_*.pgm"):
        stale.unlink()
    if result is None:
        return
    head_mask = np.broadcast_to(result.head_mask[:, None, None], result.f_c.shape)
    save_tensor(out_dir / "head_mask.asit", head_mask)
    save_tensor(out_dir / "spatial_mask.asit", result.spatial_mask.data)
    save_tensor(out_dir / "fused_mask.asit", result.fused_mask.data)
    for i, fused_head in enumerate(result.fused_mask.data):
        render_mask_pgm(out_dir / f"mask_head_{i}.pgm", fused_head)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    # Floats are written as repr(float(x)), the shortest text that reads back exactly.
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    return path


def dump_trajectory(
    trajectory: list[LatentState], sched: NoiseSchedule, out_dir: str | Path
) -> Path:
    """Write one tensor dump per state plus a manifest CSV (t, alpha_bar, file)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for state in trajectory:
        name = f"step_{state.t}.asit"
        save_tensor(out_dir / name, state.x.a)
        rows.append((state.t, sched.bar(state.t), name))
    return _write_csv(out_dir / "trajectory.csv", ["t", "alpha_bar", "file"], rows)


def _preserved_mse(result: AsiLayerResult) -> float:
    # Mean squared deviation from the content features where the fused mask is 0.
    preserved = result.fused_mask.data == 0.0
    count = int(preserved.sum())
    if not count:
        return 0.0
    diff = result.f_out - result.f_c
    return float((diff[preserved] ** 2).sum() / count)


def run_pipeline(cfg: ExperimentConfig) -> RunReport:
    """Run the full loop and write all artifacts into cfg.dump_dir.

    Each step first advances the latent with the deterministic sampler and
    the oracle denoiser, then treats the fresh latent as the spatial feature
    matrix: it is projected to queries, attended against both prompts, and
    blended cfg.layers_per_step times (each layer feeding the next). The
    blended output of the final step's final layer is dumped along with that
    step's masks and per-head distances.
    """
    inputs = synth_inputs(cfg)
    sched = make_schedule(cfg.timesteps)
    denoiser = OracleDenoiser(true_noise=inputs.latent_noise)
    k_s, v_s = project_kv(inputs.style_prompt, inputs.params)
    k_c, v_c = project_kv(inputs.content_prompt, inputs.params)

    x = ddim_invert(inputs.spatial, denoiser, sched, cfg.timesteps)[-1].x

    rows: list[tuple] = []
    result = None
    for t in range(cfg.timesteps, 0, -1):
        x = ddim_step(x, denoiser.predict(x, t), t, t - 1, sched)
        features = x
        for _ in range(cfg.layers_per_step):
            q = project_q(features, inputs.params)
            result = block = None  # free the previous layer's blocks before the next are built
            if cfg.apply_asi:
                result = asi_layer(q, k_s, v_s, k_c, v_c, cfg.blend)
                block = result.f_out
            else:
                block = attend(q, k_c, v_c)
            features = merge_heads(block)
        if cfg.apply_asi:
            step = (*result.distances, result.fused_mask.blended_fraction, _preserved_mse(result))
        else:  # only the content track moves the features; the style track runs once a step
            step = (*head_distances(attend(q, k_s, v_s), block), 0.0, 0.0)
        rows.append((t, *map(float, step)))

    out_dir = cfg.dump_dir
    # Written first: save_tensor rejects a non-finite block before it creates the
    # directory or opens the file, so a failed run creates and changes nothing.
    feature_path = save_tensor(out_dir / "features_out.asit", block)
    header = ["step", *(f"ell_{i}" for i in range(cfg.heads)), "blended_fraction", "preserved_mse"]
    _write_csv(out_dir / "report.csv", header, rows)
    _write_csv(out_dir / "ell.csv", ["head_index", "ell"], enumerate(rows[-1][1:-2]))
    write_mask_artifacts(out_dir, result)

    return RunReport(
        per_step_ell=tuple(r[1:-2] for r in rows),
        preserved_mse=max(r[-1] for r in rows),
        blended_fraction=float(np.mean([r[-2] for r in rows])),
        output_feature_path=feature_path,
    )


SWEEPABLE_PARAMS = ("n", "alpha", "seed", "perturbation")


def sweep(cfg: ExperimentConfig, param: str, values: list) -> list[RunReport]:
    """One run per value, each in its own subdirectory, plus a combined CSV.

    Values are parsed like any other setting (see :func:`configure`), and
    every run config is built before the first run starts. Subdirectories
    and CSV rows carry the parsed value. All runs share cfg.seed unless the
    sweep parameter is the seed itself. Reports come back in input order.
    """
    if param not in SWEEPABLE_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE_PARAMS}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    runs = []
    for raw in values:
        run_cfg = configure(cfg, [(param, raw)])
        value = getattr(run_cfg.blend if param in _BLEND_KEYS else run_cfg, param)
        run_dir = cfg.dump_dir / f"{param}_{value}"
        runs.append((value, dataclasses.replace(run_cfg, dump_dir=run_dir)))
    reports = [run_pipeline(run_cfg) for _, run_cfg in runs]
    _write_csv(
        cfg.dump_dir / "sweep.csv",
        ["param", "value", "blended_fraction", "preserved_mse"],
        [(param, v, r.blended_fraction, r.preserved_mse) for (v, _), r in zip(runs, reports)],
    )
    return reports
