"""Deterministic diffusion bookkeeping at desk scale.

A linear variance schedule drives closed-form forward noising and the
deterministic (sigma = 0) sampler update, which is invertible: walking the
update upward recovers the latent trajectory of a clean input, and walking
back down reproduces it. No model is trained: the walks take the true noise
where a learned noise predictor's output would go, which makes every
identity here exactly testable.

Timesteps are 1-based: t runs over [1, T], and alpha_bar[0] = 1 is the
clean-image boundary.

Latents and noise are 2-D float64 arrays, checked by
:func:`asi.numeric._check_array` where they enter; every latent returned is
read-only. Every walk is one call of one private kernel: a single update
(:func:`ddim_step`), the inversion and generation trajectories, and each
chunk of a run's descent. The kernel jumps through a list of rungs, writing
each state into a caller's block or one buffer in place, splits once by
rows over two threads (see :func:`asi.numeric._split`), and checks only the
final state finite: a NaN or Inf entry never becomes finite again on the
way. Its NonFiniteError names the function and the latent
("ddim_step: latent"). The public functions check their arguments and call
the kernel; :func:`forward_noise` follows its rule, too.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import ConfigError, ScheduleError, ShapeError, TimestepError
from .numeric import _check_array, _check_finite, _check_type, _is_int, _readonly, _split

__all__ = [
    "NoiseSchedule",
    "LatentState",
    "make_schedule",
    "forward_noise",
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

    def __post_init__(self) -> None:
        # Float64 vectors, alpha_bar one entry longer, each of its entries in [0, 1].
        _check_array("NoiseSchedule: beta", self.beta, least=1, most=1)
        _check_array("NoiseSchedule: alpha_bar", self.alpha_bar, least=1, most=1)
        if len(self.alpha_bar) != len(self.beta) + 1:
            raise ShapeError(f"NoiseSchedule: alpha_bar needs {len(self.beta) + 1} entries, "
                             f"got {len(self.alpha_bar)}")
        if not ((self.alpha_bar >= 0.0) & (self.alpha_bar <= 1.0)).all():  # NaN fails too
            raise ScheduleError("NoiseSchedule: alpha_bar entries must lie in [0, 1]")

    @property
    def steps(self) -> int:
        return len(self.beta)

    def bar(self, t: int) -> float:
        """alpha_bar at timestep t, with type and range checking."""
        if not _is_int(t):
            raise TimestepError(f"timestep must be an integer, got {t!r}")
        if not 0 <= t <= self.steps:
            raise TimestepError(f"timestep {t} outside [0, {self.steps}]")
        return float(self.alpha_bar[t])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule over T steps with cumulative-product alpha_bar."""
    if not _is_int(T) or T < 1:
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
    """A latent, a read-only 2-D float64 array, tagged with its timestep."""

    t: int
    x: np.ndarray


def _check_walk(what: str, x: np.ndarray, eps: np.ndarray, sched: NoiseSchedule) -> None:
    # A latent and its noise, 2-D float64 arrays of one shape, and the schedule they move on.
    for name, a in (("latent", x), ("noise", eps)):
        _check_array(f"{what}: {name}", a, least=2, most=2)
    if x.shape != eps.shape:
        raise ShapeError(f"{what}: noise is {eps.shape}, the latent {x.shape}")
    _check_type(f"{what}: sched", sched, NoiseSchedule, ConfigError)


def forward_noise(x0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form jump to timestep t: x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps.

    A NaN or Inf entry, or an overflow near the float64 limit, is a
    NonFiniteError, raised without NumPy's warning, as in a walk.
    """
    _check_walk("forward_noise", x0, eps, sched)
    ab = sched.bar(t)
    with np.errstate(over="ignore", invalid="ignore"):
        x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    return _readonly(_check_finite(x_t, "forward_noise: latent"))


def _walk(what: str, x: np.ndarray, eps: np.ndarray, sched: NoiseSchedule, rungs: Sequence[int],
          out: np.ndarray | None = None) -> np.ndarray:
    # The sampler kernel: jump x, the latent at rungs[0], through every later rung in one
    # call, each jump re-estimating the clean input at its rung and renoising it to the
    # next. Jump i writes out[i] of a caller's (jumps, rows, cols) block, or the last of
    # a shorter one (without out, one fresh buffer) in place; the final state is returned.
    # The product sqrt(1 - ab) eps that renoises to a rung is the next jump's estimate
    # term, made once, so the operations and their order, and so the bits, are those of
    # fresh temporaries per jump. The walk splits once, by rows: 5 passes over each entry
    # a jump, the first estimate term and the check. Only the final state is checked:
    # every jump divides by sqrt(ab) > 0, multiplies by a finite coefficient and adds a
    # finite product, so a NaN or Inf entry never becomes finite again (NumPy's warnings
    # on the way are ignored), and its NonFiniteError names `what`. The callers have checked
    # the operands.
    bars = sched.alpha_bar[list(rungs)]
    if 0.0 in bars[:-1]:  # an overflow on the way to that rung is named first
        k = list(bars).index(0.0)
        _walk(what, x, eps, sched, rungs[:k + 1], out)
        raise ScheduleError(f"alpha_bar vanishes at t={rungs[k]}; clean estimate undefined")
    root, coef = np.sqrt(bars), np.sqrt(1.0 - bars)
    out = np.empty((1, *x.shape)) if out is None else out

    def body(lo: int, hi: int) -> None:
        e, state = eps[lo:hi], x[lo:hi]
        term = coef[0] * e
        for i in range(len(bars) - 1):
            dst = out[min(i, len(out) - 1), lo:hi]
            np.subtract(state, term, out=dst)
            dst /= root[i]
            dst *= root[i + 1]
            np.multiply(coef[i + 1], e, out=term)
            dst += term
            state = dst
        _check_finite(state, what)

    with np.errstate(over="ignore", invalid="ignore"):
        _split(body, len(x), x.size, 5 * (len(bars) - 1) + 2)
    return out[-1]


def ddim_step(x_t: np.ndarray, eps_pred: np.ndarray, t: int, t_prev: int,
              sched: NoiseSchedule) -> np.ndarray:
    """One deterministic sampler update from t down to t_prev, exactly invertible.

    x_prev = sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev) * eps
    """
    _check_walk("ddim_step", x_t, eps_pred, sched)
    if not (_is_int(t) and _is_int(t_prev) and 0 <= t_prev < t <= sched.steps):
        raise TimestepError(f"need integers 0 <= t_prev < t <= {sched.steps}, "
                            f"got t={t!r}, t_prev={t_prev!r}")
    return _readonly(_walk("ddim_step: latent", x_t, eps_pred, sched, [t, t_prev]))


def _trajectory(
    what: str, x: np.ndarray, eps: np.ndarray, sched: NoiseSchedule, steps: int, upward: bool,
    last_only: bool = False,
) -> list[LatentState]:
    # Evenly spaced rungs from 0 to T inclusive, climbed or descended in one walk; with
    # last_only, the final state alone. The first state is a read-only view of x.
    _check_walk(what, x, eps, sched)  # also when no jump would compare them
    if not _is_int(steps) or not 0 <= steps <= sched.steps:
        raise ConfigError(f"steps must be an integer in [0, {sched.steps}], got {steps!r}")
    if not steps:  # no walk checks the latent returned
        _check_finite(x, f"{what}: latent")
        return [LatentState(0, _readonly(x.view()))]
    rungs = [round(i * sched.steps / steps) for i in range(steps + 1)][::1 if upward else -1]
    states = np.empty((1 if last_only else steps, *x.shape))
    _walk(f"{what}: latent", x, eps, sched, rungs, states)
    walked = [LatentState(t, state) for t, state in zip(rungs[-len(states):], _readonly(states))]
    return walked if last_only else [LatentState(rungs[0], _readonly(x.view())), *walked]


def ddim_invert(
    x0: np.ndarray, eps: np.ndarray, sched: NoiseSchedule, steps: int, *,
    last_only: bool = False,
) -> list[LatentState]:
    """Walk the deterministic update upward, producing the latent trajectory.

    Returns steps + 1 states from (t=0, x0) to the final latent. Each upward
    jump re-estimates the clean input from the current state and the noise
    `eps`, then renoises to the next rung. With last_only=True the walk
    keeps only its latest state, so its memory does not grow with `steps`,
    and the list holds the final state alone.
    """
    return _trajectory("ddim_invert", x0, eps, sched, steps, upward=True, last_only=last_only)


def ddim_generate(
    x_start: np.ndarray, eps: np.ndarray, sched: NoiseSchedule, steps: int
) -> list[LatentState]:
    """Walk the deterministic update downward from the topmost ladder rung.

    The exact functional inverse of :func:`ddim_invert` over the same rungs;
    returns steps + 1 states ending at t = 0.
    """
    return _trajectory("ddim_generate", x_start, eps, sched, steps, upward=False)
