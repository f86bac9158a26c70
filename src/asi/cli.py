"""Command-line entry point.

Subcommands:

    run             full pipeline run, artifacts into dump_dir
    sweep           repeat the run across values of one parameter
    ddim-roundtrip  invert-then-generate consistency check
    dump-masks      single layer application, masks and renders only

Configs are flat ``key = value`` text files (UTF-8, an optional byte-order
mark, ``#`` comments, blank lines ignored); ``--set key=value`` overrides
apply after the file, left to right. An override splits at its first ``=``
and keeps its value literally, ``#`` included. Override values and ``sweep
--values`` entries are parsed like file values (see ``harness.configure``).
Unknown keys and empty values are rejected. Exit codes: 0 success, 1 invalid
configuration (including one too large to allocate), a malformed command line
or I/O failure, 2 an internal invariant failed (including values that
overflow to NaN/Inf mid-run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from .adablending import asi_layer
from .ddim import ddim_generate, ddim_invert, make_schedule
from .errors import AsiError, ConfigError
from .harness import (
    _MASK_GLOBS,
    SWEEPABLE_PARAMS,
    ExperimentConfig,
    _mask_files,
    _publish,
    _sweep_run,
    configure,
    dump_trajectory,
    run_pipeline,
    sweep,
    synth_inputs,
)
from .numeric import Rng, randn_matrix
from .sica import project_kv, project_q

__all__ = ["parse_config", "main", "entrypoint"]

ROUNDTRIP_TOLERANCE = 1e-6


def _parse_kv_line(line: str, origin: str) -> tuple[str, str] | None:
    stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    if "=" not in stripped:
        raise ConfigError(f"{origin}: expected 'key = value', got {line.strip()!r}")
    key, value = stripped.split("=", 1)
    return key.strip(), value.strip()


def parse_config(path: str | Path | None, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Build a validated config from an optional file plus override strings.

    Raises FileNotFoundError for a missing file, and ConfigError naming the
    file if it is not UTF-8 or the offending key for unknown or bad values.
    """
    pairs: list[tuple[str, str]] = []
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            parsed = _parse_kv_line(line, f"{path}:{lineno}")
            if parsed:
                pairs.append(parsed)
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set {item!r}: expected 'key=value'")
        pairs.append((key.strip(), value))
    return configure(ExperimentConfig(), pairs)


def _cmd_run(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    report = run_pipeline(cfg)
    print(f"run complete: {cfg.timesteps} steps into {cfg.dump_dir}")
    print(f"blended_fraction = {report.blended_fraction!r}")
    print(f"preserved_mse    = {report.preserved_mse!r}")
    print(f"features         = {report.output_feature_path}")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    values = args.values.split(",")
    reports = sweep(cfg, args.param, values)
    for raw, report in zip(values, reports):
        value, _ = _sweep_run(cfg, args.param, raw)  # the value that ran, as in its directory
        print(f"{args.param}={value}: blended_fraction={report.blended_fraction!r}")
    print(f"combined csv: {cfg.dump_dir / 'sweep.csv'}")
    return 0


def _cmd_ddim_roundtrip(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    rng = Rng(cfg.seed)
    x0 = randn_matrix(rng, cfg.positions, cfg.model_dim).a
    noise = randn_matrix(rng, cfg.positions, cfg.model_dim).a
    sched = make_schedule(cfg.timesteps)
    upward = ddim_invert(x0, noise, sched, cfg.timesteps)
    downward = ddim_generate(upward[-1].x, noise, sched, cfg.timesteps)
    if args.dump:
        manifest = dump_trajectory(upward, sched, cfg.dump_dir / "trajectory")
        print(f"trajectory manifest: {manifest}")
    error = float(abs(downward[-1].x - x0).max())
    print(f"max roundtrip error over {cfg.timesteps} steps: {error!r}")
    if error >= ROUNDTRIP_TOLERANCE:
        print(f"FAIL: roundtrip error >= {ROUNDTRIP_TOLERANCE}", file=sys.stderr)
        return 2
    return 0


def _cmd_dump_masks(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    inputs = synth_inputs(cfg)
    q = project_q(inputs.spatial, inputs.params)
    k_s, v_s = project_kv(inputs.style_prompt, inputs.params)
    k_c, v_c = project_kv(inputs.content_prompt, inputs.params)
    result = asi_layer(q, k_s, v_s, k_c, v_c, cfg.blend)
    masks = (result.head_mask, result.spatial_mask, result.fused_mask)
    _publish(cfg.dump_dir, _mask_files(masks), _MASK_GLOBS)
    print(f"masks written to {cfg.dump_dir} (heads selected: {int(result.head_mask.sum())})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # a bad command line: exit 1 with one line
        self.exit(1, f"error: {message}\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="asi",
        description="dual-track attention with mask-guided content-style blending",
    )
    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    config_args.add_argument("--set", dest="overrides", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="override one config key (repeatable, applied left to right)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[config_args],
                   help="run the full pipeline").set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", parents=[config_args], help="run once per value of one parameter"
    )
    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(SWEEPABLE_PARAMS)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated value list")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rt = sub.add_parser(
        "ddim-roundtrip", parents=[config_args], help="check invert-then-generate consistency"
    )
    p_rt.add_argument("--dump", action="store_true", help="also dump the latent trajectory")
    p_rt.set_defaults(func=_cmd_ddim_roundtrip)

    sub.add_parser("dump-masks", parents=[config_args],
                   help="render masks for one layer application").set_defaults(func=_cmd_dump_masks)

    args = parser.parse_args(argv)
    try:
        # Overflow already ends in NonFiniteError at the next finite check;
        # numpy's warnings would only repeat it as extra stderr lines.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(parse_config(args.config, args.overrides), args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: configuration too large to allocate: {exc}", file=sys.stderr)
        return 1
    except AsiError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
