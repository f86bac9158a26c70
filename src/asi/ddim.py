"""Deterministic diffusion bookkeeping at desk scale.

A linear variance schedule drives closed-form forward noising and the
deterministic (sigma = 0) sampler update, which is invertible: walking the
update upward recovers the latent trajectory of a clean input, and walking
back down reproduces it. No model is trained; an oracle denoiser that
returns the stored true noise stands in for a learned noise predictor, which
makes every identity here exactly testable.

Timesteps are 1-based: t runs over [1, T], and alpha_bar[0] = 1 is the
clean-image boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleError, ShapeError, TimestepError
from .numeric import Matrix

__all__ = [
    "NoiseSchedule",
    "LatentState",
    "OracleDenoiser",
    "make_schedule",
    "forward_noise",
    "predict_x0",
    "ddim_step",
    "ddim_invert",
    "ddim_generate",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates: beta[t-1] for t in [1, T]; alpha_bar[t] is the
    cumulative retention product of 1 - beta with alpha_bar[0] = 1."""

    beta: np.ndarray
    alpha_bar: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.beta)

    def bar(self, t: int) -> float:
        """alpha_bar at timestep t, with range checking."""
        if not 0 <= t <= self.steps:
            raise TimestepError(f"timestep {t} outside [0, {self.steps}]")
        return float(self.alpha_bar[t])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule over T steps with cumulative-product alpha_bar."""
    if T < 1:
        raise ConfigError(f"schedule needs T >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    beta = np.linspace(beta_start, beta_end, T)
    alpha = 1.0 - beta
    alpha_bar = np.concatenate(([1.0], np.cumprod(alpha)))
    return NoiseSchedule(beta=beta, alpha_bar=alpha_bar)


@dataclass(frozen=True)
class LatentState:
    """A latent matrix tagged with its timestep."""

    t: int
    x: Matrix


@dataclass(frozen=True)
class OracleDenoiser:
    """Closed-form stand-in for a trained noise predictor.

    Always returns the stored true noise, so the sampler identities hold
    exactly without any training.
    """

    true_noise: Matrix

    def predict(self, x_t: Matrix, t: int) -> Matrix:
        _check_shapes(x_t, self.true_noise, "latent vs oracle noise")
        return self.true_noise


def _check_shapes(a: Matrix, b: Matrix, what: str) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"{what}: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def forward_noise(x0: Matrix, t: int, eps: Matrix, sched: NoiseSchedule) -> Matrix:
    """Closed-form jump to timestep t: x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    _check_shapes(x0, eps, "forward_noise")
    ab = sched.bar(t)
    return Matrix(np.sqrt(ab) * x0.a + np.sqrt(1.0 - ab) * eps.a)


def predict_x0(x_t: Matrix, eps_pred: Matrix, t: int, sched: NoiseSchedule) -> Matrix:
    """Recover the clean estimate: (x_t - sqrt(1 - ab_t) eps) / sqrt(ab_t)."""
    _check_shapes(x_t, eps_pred, "predict_x0")
    ab = sched.bar(t)
    if ab == 0.0:
        raise ScheduleError(f"alpha_bar vanishes at t={t}; clean estimate undefined")
    return Matrix((x_t.a - np.sqrt(1.0 - ab) * eps_pred.a) / np.sqrt(ab))


def _jump(x_t: Matrix, eps: Matrix, t: int, t_to: int, sched: NoiseSchedule) -> Matrix:
    # Re-estimate the clean input at t, then renoise it to t_to with the same noise.
    return forward_noise(predict_x0(x_t, eps, t, sched), t_to, eps, sched)


def ddim_step(x_t: Matrix, eps_pred: Matrix, t: int, t_prev: int, sched: NoiseSchedule) -> Matrix:
    """One deterministic sampler update from t down to t_prev, exactly invertible.

    x_prev = sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev) * eps
    """
    if not 0 <= t_prev < t <= sched.steps:
        raise TimestepError(f"need 0 <= t_prev < t <= {sched.steps}, got t={t}, t_prev={t_prev}")
    return _jump(x_t, eps_pred, t, t_prev, sched)


def _walk(
    x: Matrix, denoiser: OracleDenoiser, sched: NoiseSchedule, steps: int, upward: bool
) -> list[LatentState]:
    # Evenly spaced rungs from 0 to T inclusive, climbed or descended one jump at a time.
    if not 0 <= steps <= sched.steps:
        raise ConfigError(f"steps must lie in [0, {sched.steps}], got {steps}")
    rungs = [round(i * sched.steps / steps) for i in range(steps + 1)] if steps else [0]
    if not upward:
        rungs.reverse()
    trajectory = [LatentState(rungs[0], x)]
    for t_from, t_to in zip(rungs[:-1], rungs[1:]):
        x = _jump(x, denoiser.predict(x, t_from), t_from, t_to, sched)
        trajectory.append(LatentState(t_to, x))
    return trajectory


def ddim_invert(
    x0: Matrix, denoiser: OracleDenoiser, sched: NoiseSchedule, steps: int
) -> list[LatentState]:
    """Walk the deterministic update upward, producing the latent trajectory.

    Returns steps + 1 states from (t=0, x0) to the final latent. Each upward
    jump re-estimates the clean input from the current state and the
    denoiser's noise prediction, then renoises to the next rung.
    """
    return _walk(x0, denoiser, sched, steps, upward=True)


def ddim_generate(
    x_start: Matrix, denoiser: OracleDenoiser, sched: NoiseSchedule, steps: int
) -> list[LatentState]:
    """Walk the deterministic update downward from the topmost ladder rung.

    The exact functional inverse of :func:`ddim_invert` over the same rungs;
    returns steps + 1 states ending at t = 0.
    """
    return _walk(x_start, denoiser, sched, steps, upward=False)
