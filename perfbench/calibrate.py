"""Fixed reference kernels that measure how fast the machine is right now.

On a shared 2-CPU box the speed available to one process drifts by 10-30%
over minutes as neighbours come and go, which swamps the differences a
benchmark must resolve. Each kernel below repeats one kind of work the
pipeline does and never touches ``asi``, so its time changes only with
the machine. Timing a workload's kernels next to each of its runs and
scaling the run by ``reference time / kernel time`` gives the run's time
at a fixed reference speed: the wall time it would take on a machine where
the kernels take their reference times.

Contention slows different work by different amounts, so each workload is
scaled by the kernels closest to its own work (``Workload.calibration``):
a large float64 contraction for contraction-bound runs, many small-array
NumPy calls for dispatch-bound runs and for interpreter start-up.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_BIG_A = _rng.standard_normal((1024, 320))
_BIG_B = _rng.standard_normal((320, 320))
_SMALL = _rng.standard_normal((16, 8))


def _contraction() -> None:
    np.einsum("ik,kj->ij", _BIG_A, _BIG_B)


def _dispatch() -> None:
    for _ in range(1500):
        x = np.array(_SMALL, copy=True)
        np.isfinite(x).all()
        np.einsum("ik,jk->ij", x, x)


# name -> (kernel, reference seconds). The reference seconds are the unit
# reference times are expressed in; changing one rescales every reference
# time of the workloads that use it, so they stay fixed.
KERNELS = {
    "contraction": (_contraction, 0.025),
    "dispatch": (_dispatch, 0.01),
}


def kernel_seconds(names: tuple[str, ...]) -> float:
    """Wall time of one pass of the named kernels."""
    start = time.perf_counter()
    for name in names:
        KERNELS[name][0]()
    return time.perf_counter() - start


def speed_factor(names: tuple[str, ...], kernel_s: float) -> float:
    """Multiply a wall time by this to express it at the reference speed."""
    return sum(KERNELS[name][1] for name in names) / kernel_s
