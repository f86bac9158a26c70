"""Deterministic diffusion bookkeeping at desk scale.

A linear variance schedule drives closed-form forward noising and the
deterministic (sigma = 0) sampler update, which is invertible: walking the
update upward recovers the latent trajectory of a clean input, and walking
back down reproduces it. No model is trained: the walks take the true noise
where a learned noise predictor's output would go, which makes every
identity here exactly testable.

Timesteps are 1-based: t runs over [1, T], and alpha_bar[0] = 1 is the
clean-image boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError, ScheduleError, ShapeError, TimestepError
from .numeric import Matrix

__all__ = [
    "NoiseSchedule",
    "LatentState",
    "make_schedule",
    "forward_noise",
    "predict_x0",
    "ddim_step",
    "ddim_invert",
    "ddim_generate",
]


def _check_timestep(t) -> None:
    # NumPy integers pass; a bool is no timestep.
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise TimestepError(f"timestep must be an integer, got {t!r}")


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
        """alpha_bar at timestep t, with type and range checking."""
        _check_timestep(t)
        if not 0 <= t <= self.steps:
            raise TimestepError(f"timestep {t} outside [0, {self.steps}]")
        return float(self.alpha_bar[t])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule over T steps with cumulative-product alpha_bar."""
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 1:
        raise ConfigError(f"schedule needs an integer T >= 1, got {T!r}")
    if not (isinstance(beta_start, Real) and isinstance(beta_end, Real)
            and 0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"betas must be numbers with 0 < beta_start <= beta_end < 1,"
            f" got {beta_start!r}, {beta_end!r}"
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


def _check_shapes(a: Matrix, b: Matrix, what: str) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError(f"{what}: shapes differ, {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def _clean_estimate(x_t: Matrix, eps: Matrix, t: int, sched: NoiseSchedule) -> np.ndarray:
    # (x_t - sqrt(1 - ab_t) eps) / sqrt(ab_t), as a fresh writable array.
    _check_shapes(x_t, eps, "latent vs noise")
    ab = sched.bar(t)
    if ab == 0.0:
        raise ScheduleError(f"alpha_bar vanishes at t={t}; clean estimate undefined")
    x = x_t.a - np.sqrt(1.0 - ab) * eps.a
    x /= np.sqrt(ab)
    return x


def _renoise(x: np.ndarray, eps: Matrix, t: int, sched: NoiseSchedule) -> np.ndarray:
    # In place: x <- sqrt(ab_t) x + sqrt(1 - ab_t) eps, the same bits as the fresh form.
    ab = sched.bar(t)
    x *= np.sqrt(ab)
    x += np.sqrt(1.0 - ab) * eps.a
    return x


def forward_noise(x0: Matrix, t: int, eps: Matrix, sched: NoiseSchedule) -> Matrix:
    """Closed-form jump to timestep t: x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps."""
    _check_shapes(x0, eps, "forward_noise")
    return Matrix(_renoise(np.array(x0.a), eps, t, sched))


def predict_x0(x_t: Matrix, eps_pred: Matrix, t: int, sched: NoiseSchedule) -> Matrix:
    """Recover the clean estimate: (x_t - sqrt(1 - ab_t) eps) / sqrt(ab_t)."""
    return Matrix(_clean_estimate(x_t, eps_pred, t, sched))


def _jump(x_t: Matrix, eps: Matrix, t: int, t_to: int, sched: NoiseSchedule) -> Matrix:
    # Re-estimate the clean input at t and renoise it to t_to in one buffer; the one
    # Matrix also rejects an overflowed estimate, as sqrt(ab_to) * inf is never finite.
    return Matrix(_renoise(_clean_estimate(x_t, eps, t, sched), eps, t_to, sched))


def ddim_step(x_t: Matrix, eps_pred: Matrix, t: int, t_prev: int, sched: NoiseSchedule) -> Matrix:
    """One deterministic sampler update from t down to t_prev, exactly invertible.

    x_prev = sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev) * eps
    """
    _check_timestep(t)
    _check_timestep(t_prev)
    if not 0 <= t_prev < t <= sched.steps:
        raise TimestepError(f"need 0 <= t_prev < t <= {sched.steps}, got t={t}, t_prev={t_prev}")
    return _jump(x_t, eps_pred, t, t_prev, sched)


def _walk(
    x: Matrix, eps: Matrix, sched: NoiseSchedule, steps: int, upward: bool,
    last_only: bool = False,
) -> list[LatentState]:
    # Evenly spaced rungs from 0 to T inclusive, climbed or descended one jump at a time;
    # with last_only, each state replaces the one before it.
    _check_shapes(x, eps, "latent vs noise")  # also when no jump would compare them
    if (isinstance(steps, bool) or not isinstance(steps, (int, np.integer))
            or not 0 <= steps <= sched.steps):
        raise ConfigError(f"steps must be an integer in [0, {sched.steps}], got {steps!r}")
    rungs = [round(i * sched.steps / steps) for i in range(steps + 1)] if steps else [0]
    if not upward:
        rungs.reverse()
    trajectory = [LatentState(rungs[0], x)]
    for t_from, t_to in zip(rungs[:-1], rungs[1:]):
        x = _jump(x, eps, t_from, t_to, sched)
        if last_only:
            trajectory.clear()
        trajectory.append(LatentState(t_to, x))
    return trajectory


def ddim_invert(
    x0: Matrix, eps: Matrix, sched: NoiseSchedule, steps: int, *,
    last_only: bool = False,
) -> list[LatentState]:
    """Walk the deterministic update upward, producing the latent trajectory.

    Returns steps + 1 states from (t=0, x0) to the final latent. Each upward
    jump re-estimates the clean input from the current state and the noise
    `eps`, then renoises to the next rung. With last_only=True the walk
    keeps only its latest state, so its memory does not grow with `steps`,
    and the list holds the final state alone.
    """
    return _walk(x0, eps, sched, steps, upward=True, last_only=last_only)


def ddim_generate(
    x_start: Matrix, eps: Matrix, sched: NoiseSchedule, steps: int
) -> list[LatentState]:
    """Walk the deterministic update downward from the topmost ladder rung.

    The exact functional inverse of :func:`ddim_invert` over the same rungs;
    returns steps + 1 states ending at t = 0.
    """
    return _walk(x_start, eps, sched, steps, upward=False)
