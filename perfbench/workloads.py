"""The benchmark's workloads: which configs each one runs, and why.

Every workload is a cycle of ``asi run`` configs, written as the
``--set key=value`` overrides the CLI would receive. The benchmark's
``--seed`` becomes the config ``seed``; shapes never depend on it, so every
seed does the same amount of work on different numbers. Why each workload
was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which the artifacts must match refs.json (and, for small_sweep
# n=6, tests/golden/). Other seeds are checked for repeatability only.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    base: tuple[str, ...]
    # Reference kernels (calibrate.KERNELS) closest to the workload's own work.
    calibration: tuple[str, ...]
    # One config per entry, cycled in order; () means the base config alone.
    sweep: tuple[str, ...] = ()

    def configs(self, seed: int) -> list[tuple[str, list[str]]]:
        """(label, overrides) for each config of the cycle, at `seed`."""
        variants = self.sweep or ("base",)
        return [
            (label, [*self.base, *(() if label == "base" else (label,)), f"seed={seed}"])
            for label in variants
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Python dispatch bound: Matrix wrappers, tiny matmuls, per-head adain.
        Workload(
            name="small_sweep",
            base=(),
            calibration=("dispatch",),
            sweep=tuple(f"n={n}" for n in range(9)),
        ),
        # Bound by einsum contractions in project_q and attention.
        Workload(
            name="sd_block",
            base=("heads=8", "head_dim=40", "positions=1024", "tokens=77", "timesteps=10"),
            calibration=("contraction",),
        ),
        # The no-blending control: mask and blend work must stay zero.
        Workload(
            name="mid_bypass",
            base=(
                "heads=16",
                "head_dim=16",
                "positions=256",
                "tokens=16",
                "timesteps=10",
                "layers_per_step=4",
                "apply_asi=false",
            ),
            calibration=("contraction", "dispatch"),
        ),
    )
}
