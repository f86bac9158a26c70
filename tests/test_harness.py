import csv
import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asi import harness, numeric
from asi.adablending import BlendConfig, asi_layer, head_distances
from asi.ddim import ddim_invert, ddim_step, make_schedule
from asi.errors import ConfigError, NonFiniteError, ShapeError
from asi.harness import (
    ExperimentConfig,
    configure,
    render_mask_pgm,
    run_pipeline,
    sweep,
    synth_inputs,
)
from asi.sica import merge_heads, project_kv, project_q, siamese_attend
from asi.tensorio import load_tensor

GOLDEN = Path(__file__).parent / "golden"


def small_cfg(tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(timesteps=4, dump_dir=tmp_path / "run")
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def traced_peak(cfg: ExperimentConfig) -> int:
    """The tracemalloc peak, in bytes, of one run_pipeline(cfg)."""
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class BytesPath(os.PathLike):
    def __fspath__(self):
        return b"out"


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 0
        assert cfg.heads == 8
        assert cfg.timesteps == 50
        assert cfg.blend.n == 6
        assert cfg.blend.alpha == 0.7
        assert cfg.blend.eps == 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(heads=0),
            dict(positions=1),
            dict(timesteps=0),
            dict(perturbation=-0.5),
            dict(seed=-1),
            dict(seed=2**64),
            dict(heads=4, blend=BlendConfig(n=5)),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, 2.5, 4.0])
    @pytest.mark.parametrize(
        "name", ["seed", "heads", "head_dim", "positions", "tokens", "timesteps", "layers_per_step"]
    )
    def test_non_integer_is_config_error_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("perturbation", True), ("perturbation", "1"), ("perturbation", None),
        pytest.param("perturbation", 10**400, id="perturbation-int-beyond-float"),
        ("apply_asi", "no"), ("apply_asi", 0), ("apply_asi", 1.0), ("apply_asi", None),
        ("dump_dir", 5), ("dump_dir", None), ("dump_dir", b"out"), ("blend", None), ("blend", {}),
        pytest.param("dump_dir", BytesPath(), id="dump_dir-bytes-pathlike"),
    ])
    def test_mistyped_field_is_config_error_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ExperimentConfig(**{name: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        cfg = ExperimentConfig(seed=np.uint64(3), heads=np.int64(8), head_dim=np.int32(8),
                               positions=np.int16(16), tokens=np.uint8(4),
                               timesteps=np.int64(2), layers_per_step=np.int64(1),
                               perturbation=np.float32(0.5), dump_dir=tmp_path)
        plain = ExperimentConfig(seed=3, heads=8, head_dim=8, positions=16, tokens=4,
                                 timesteps=2, layers_per_step=1, perturbation=0.5,
                                 dump_dir=tmp_path)
        assert cfg == plain and repr(cfg) == repr(plain)
        assert all(type(getattr(cfg, f.name)) is type(getattr(plain, f.name))
                   for f in dataclasses.fields(cfg))
        assert type(ExperimentConfig(perturbation=np.int64(2)).perturbation) is int

    @pytest.mark.parametrize("name, value", [
        ("heads", np.bool_(True)), ("heads", np.float64(8.0)), ("seed", np.int64(-1)),
        ("perturbation", np.bool_(True)), ("perturbation", np.float32("inf")),
        ("perturbation", np.float64("nan")), ("perturbation", np.longdouble("1e400")),
    ])
    def test_bad_numpy_scalars_are_config_errors_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ExperimentConfig(**{name: value})


class TestSynthInputs:
    def test_deterministic(self):
        cfg = ExperimentConfig()
        a = synth_inputs(cfg)
        b = synth_inputs(cfg)
        assert np.array_equal(a.spatial.a, b.spatial.a)
        assert np.array_equal(a.params.w_q.a, b.params.w_q.a)
        assert np.array_equal(a.style_prompt.a, b.style_prompt.a)
        assert np.array_equal(a.latent_noise.a, b.latent_noise.a)

    def test_zero_perturbation_copies_prompt(self):
        inputs = synth_inputs(ExperimentConfig(perturbation=0.0))
        assert np.array_equal(inputs.style_prompt.a, inputs.content_prompt.a)

    def test_perturbation_scales_offset(self):
        base = synth_inputs(ExperimentConfig(perturbation=1.0))
        doubled = synth_inputs(ExperimentConfig(perturbation=2.0))
        offset = base.style_prompt.a - base.content_prompt.a
        offset2 = doubled.style_prompt.a - doubled.content_prompt.a
        assert np.abs(offset2 - 2.0 * offset).max() < 1e-15

    def test_shapes_follow_config(self):
        cfg = ExperimentConfig(
            heads=4, head_dim=8, positions=16, tokens=4, blend=BlendConfig(n=4)
        )
        inputs = synth_inputs(cfg)
        assert (inputs.spatial.rows, inputs.spatial.cols) == (16, 32)
        assert (inputs.content_prompt.rows, inputs.content_prompt.cols) == (4, 32)
        assert inputs.params.heads == 4 and inputs.params.head_dim == 8
        assert (inputs.latent_noise.rows, inputs.latent_noise.cols) == (16, 32)

    def test_frozen_regression_digest(self):
        # byte-level digest of every tensor drawn at the reference settings
        cfg = ExperimentConfig(
            seed=0, heads=4, head_dim=8, positions=16, tokens=4, blend=BlendConfig(n=4)
        )
        inputs = synth_inputs(cfg)
        digest = hashlib.sha256()
        for block in (
            inputs.params.w_q.a,
            inputs.params.w_k.a,
            inputs.params.w_v.a,
            inputs.spatial.a,
            inputs.content_prompt.a,
            inputs.style_prompt.a,
            inputs.latent_noise.a,
        ):
            digest.update(block.tobytes())
        expected = (GOLDEN / "synth_seed0.sha256").read_text().strip()
        assert digest.hexdigest() == expected


def replay_run(cfg: ExperimentConfig) -> tuple[np.ndarray, list[tuple]]:
    """Recompose the pipeline's latent loop with both tracks on every layer.

    With blending on, every layer is one asi_layer call; with it off, the
    content track feeds the next layer and nothing is blended. Returns the
    final layer's output as (heads, positions, head_dim) and, in step order,
    the report.csv row of each step: (t, *ell, blended_fraction, preserved_mse)
    of the step's final layer.
    """
    inputs = synth_inputs(cfg)
    sched = make_schedule(cfg.timesteps)
    noise = inputs.latent_noise
    k_s, v_s = project_kv(inputs.style_prompt, inputs.params)
    k_c, v_c = project_kv(inputs.content_prompt, inputs.params)
    x = ddim_invert(inputs.spatial, noise, sched, cfg.timesteps)[-1].x
    rows = []
    for t in range(cfg.timesteps, 0, -1):
        x = ddim_step(x, noise, t, t - 1, sched)
        features = x
        for _ in range(cfg.layers_per_step):
            q = project_q(features, inputs.params)
            if cfg.apply_asi:
                result = asi_layer(q, k_s, v_s, k_c, v_c, cfg.blend)
                f_s, f_c, out, fused = result.f_s, result.f_c, result.f_out, result.fused_mask
            else:
                f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
                out, fused = f_c, np.zeros(f_c.shape)
            features = merge_heads(out)
        preserved = fused == 0.0
        mse = float(((out - f_c)[preserved] ** 2).mean()) if preserved.any() else 0.0
        rows.append((t, *(float(e) for e in head_distances(f_s, f_c)), float(fused.mean()), mse))
    return out, rows


def report_rows(out_dir: Path) -> list[tuple]:
    """report.csv's rows as replay_run returns them: (t, *ell, blended_fraction, preserved_mse)."""
    with (out_dir / "report.csv").open() as fh:
        body = list(csv.reader(fh))[1:]
    return [(int(row[0]), *(float(v) for v in row[1:])) for row in body]


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


# Bypass runs that reach the row split of their layer stack on a 2-CPU host: halves of
# 128 and 129 rows, a 64-step chunk (1,024 rows) then a 5-step one that runs whole, and
# a 2-row block, which runs whole as a half of one row would attend in another order.
BYPASS_SPLITS = [
    *(pytest.param(False, dict(heads=16, head_dim=16, positions=257, tokens=16, timesteps=2,
                               layers_per_step=layers), id=f"odd_rows-{layers}")
      for layers in (1, 3)),
    pytest.param(False, dict(timesteps=69, layers_per_step=2), id="chunked"),
    pytest.param(False, dict(heads=8, head_dim=128, positions=2, timesteps=1, layers_per_step=2),
                 id="two_rows"),
]


class TestRunPipeline:
    @pytest.mark.parametrize("apply_asi, settings", [
        *(pytest.param(apply_asi, dict(layers_per_step=layers), id=f"{apply_asi}-{layers}")
          for apply_asi in (False, True) for layers in (1, 3)),
        *BYPASS_SPLITS,
    ])
    def test_run_equals_replay(self, tmp_path, monkeypatch, apply_asi, settings):
        monkeypatch.setattr(numeric, "_CPUS", 2)  # split as on a 2-CPU host, whatever this one has
        cfg = small_cfg(tmp_path, apply_asi=apply_asi, **settings)
        report = run_pipeline(cfg)
        features, rows = replay_run(cfg)
        dumped = load_tensor(cfg.dump_dir / "features_out.asit")
        assert np.array_equal(dumped, features.astype(np.float32).astype(np.float64))
        assert report_rows(cfg.dump_dir) == rows
        assert report.per_step_ell == tuple(row[1:-2] for row in rows)
        if not apply_asi:
            assert report.blended_fraction == report.preserved_mse == 0.0
            monkeypatch.setattr(numeric, "_CPUS", 1)
            whole = dataclasses.replace(cfg, dump_dir=tmp_path / "whole")
            run_pipeline(whole)
            assert artifact_bytes(whole.dump_dir) == artifact_bytes(cfg.dump_dir)

    def test_degenerate_style_stays_near_content(self, tmp_path):
        cfg = small_cfg(
            tmp_path, perturbation=0.0, blend=BlendConfig(eps=1e-9), timesteps=6
        )
        report = run_pipeline(cfg)
        assert report.preserved_mse == 0.0
        bypass = small_cfg(tmp_path, apply_asi=False, perturbation=0.0, timesteps=6)
        bypass = dataclasses.replace(bypass, dump_dir=tmp_path / "bypass")
        run_pipeline(bypass)
        blended = load_tensor(cfg.dump_dir / "features_out.asit")
        content = load_tensor(bypass.dump_dir / "features_out.asit")
        assert np.abs(blended - content).max() < 1e-6

    def test_report_csv_structure(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=5)
        report = run_pipeline(cfg)
        with (cfg.dump_dir / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == (
            ["step"] + [f"ell_{i}" for i in range(8)] + ["blended_fraction", "preserved_mse"]
        )
        assert [int(r[0]) for r in body] == [5, 4, 3, 2, 1]
        assert len(report.per_step_ell) == 5
        for row, ell in zip(body, report.per_step_ell):
            assert tuple(float(v) for v in row[1:9]) == ell
            assert float(row[-1]) == 0.0

    def test_ell_csv_matches_last_step(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=3)
        report = run_pipeline(cfg)
        with (cfg.dump_dir / "ell.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["head_index"]) for r in rows] == list(range(8))
        assert tuple(float(r["ell"]) for r in rows) == report.per_step_ell[-1]

    def test_mask_dumps_are_binary_and_consistent(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg)
        head = load_tensor(cfg.dump_dir / "head_mask.asit")
        spatial = load_tensor(cfg.dump_dir / "spatial_mask.asit")
        fused = load_tensor(cfg.dump_dir / "fused_mask.asit")
        for mask in (head, spatial, fused):
            assert mask.shape == (8, 16, 8)
            assert np.isin(mask, (0.0, 1.0)).all()
        assert np.array_equal(fused, np.maximum(head, spatial))

    # The three benchmark workload shapes, a ragged one and the smallest one.
    @pytest.mark.parametrize("h, m, d", [(8, 16, 8), (8, 1024, 40), (16, 256, 16), (3, 17, 5),
                                         (1, 2, 1)])
    def test_report_fraction_equals_fused_mask_mean(self, tmp_path, h, m, d):
        cfg = ExperimentConfig(heads=h, positions=m, head_dim=d, timesteps=2,
                               blend=BlendConfig(n=h // 2, alpha=0.5), dump_dir=tmp_path)
        run_pipeline(cfg)
        assert report_rows(tmp_path)[-1][-2] == load_tensor(tmp_path / "fused_mask.asit").mean()

    @pytest.mark.parametrize("h, m, d", [(3, 17, 5), (1, 2, 1)])
    def test_report_fraction_equals_fused_mask_mean_across_n_and_alpha(self, tmp_path, h, m, d):
        fractions = set()
        for n in range(h + 1):
            for alpha in (0.25, 0.5, 0.75, 1.0, 2.0):
                out_dir = tmp_path / f"n{n}-alpha{alpha}"
                run_pipeline(ExperimentConfig(heads=h, positions=m, head_dim=d, timesteps=1,
                                              blend=BlendConfig(n=n, alpha=alpha),
                                              dump_dir=out_dir))
                fraction = report_rows(out_dir)[-1][-2]
                assert fraction == load_tensor(out_dir / "fused_mask.asit").mean()
                fractions.add(fraction)
        assert len(fractions) >= 3  # at h1-m2-d1, every count: 0, 1 and 2 of 2

    def test_pgm_render(self, tmp_path):
        mask = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        path = render_mask_pgm(tmp_path / "m.pgm", mask)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 3\n255\n")
        assert blob[len(b"P5\n2 3\n255\n"):] == bytes([0, 255, 255, 0, 255, 255])

    @pytest.mark.parametrize("mask, match", [
        (np.zeros((2, 3, 4), dtype=bool), r"2-D mask slice, got shape \(2, 3, 4\)"),
        (np.zeros(3, dtype=bool), r"2-D mask slice, got shape \(3,\)"),
        (np.array([[0.0, 2.0]]), "entries of 0 or 1, got float64 entries"),  # would be byte 254
        (np.array([[np.nan, 1.0]]), "entries of 0 or 1, got float64 entries"),  # would be byte 0
        (np.array([[-1, 0]]), "entries of 0 or 1, got int64 entries"),
        (np.array([["1"]]), "entries of 0 or 1, got <U1 entries"),
    ])
    def test_pgm_render_rejects_a_bad_slice_before_opening_the_file(self, tmp_path, mask, match):
        with pytest.raises(ShapeError, match=match):
            render_mask_pgm(tmp_path / "m.pgm", mask)
        assert list(tmp_path.iterdir()) == []

    def test_pgm_render_takes_bool_and_integer_slices(self, tmp_path):
        ints = render_mask_pgm(tmp_path / "i.pgm", np.array([[0, 1]])).read_bytes()
        bools = render_mask_pgm(tmp_path / "b.pgm", np.array([[False, True]])).read_bytes()
        assert ints == bools == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_pgm_files_per_head(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_pipeline(cfg)
        fused = load_tensor(cfg.dump_dir / "fused_mask.asit")
        for i in range(cfg.heads):
            blob = (cfg.dump_dir / f"mask_head_{i}.pgm").read_bytes()
            assert blob.startswith(b"P5\n8 16\n255\n")
            body = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
            assert np.array_equal(body.reshape(16, 8) / 255.0, fused[i])

    def test_peak_memory_does_not_grow_with_timesteps(self, tmp_path):
        # A step holds 16,384 entries at this shape, so a chunk is 4 steps, and each
        # of these step counts runs whole chunks only.
        cfgs = [ExperimentConfig(heads=8, head_dim=8, positions=256, tokens=8,
                                 timesteps=timesteps, dump_dir=tmp_path / f"t{timesteps}")
                for timesteps in (4, 8, 32)]
        # An untraced warm-up run pays the process's one-time allocations (the helper's
        # pool and its imports), as tools/peak_traced.py's does, so that no figure
        # depends on which tests ran before this one.
        run_pipeline(cfgs[0])
        peaks = [traced_peak(cfg) for cfg in cfgs]
        latent_bytes = cfgs[0].positions * cfgs[0].model_dim * 8
        assert max(peaks) - min(peaks) <= latent_bytes

    def test_peak_memory_is_at_most_ten_latents_at_sd_size(self, tmp_path):
        cfg = ExperimentConfig(heads=8, head_dim=40, positions=1024, tokens=77, timesteps=3,
                               dump_dir=tmp_path)
        latent_bytes = cfg.positions * cfg.model_dim * 8
        # In latent-sized blocks (m x h*d float64) at this size, the live set at the peak:
        # - held all run: w_q and its transpose (2 h*d / m = 0.63; w_k and w_v are
        #   dropped once the keys and values are made), the oracle noise and the
        #   current latent (2), the four key/value blocks (4 t / m = 0.30);
        # - the layer's blocks: q, f_s, f_c and f_out (4), the spatial and fused bool
        #   masks (2 / 8 = 0.25);
        # - the finiteness check of the layer output, in place of the merge that no one
        #   reads (1 / 8).
        # That is 7.30; the attention peak (q, f_s, the result block that both halves of
        # the head split fill, the logits that softmax turns into P in place, t / d = 1.93,
        # and the V^T P block, on the 2.93 held all run) is the higher, at 8.9 (9.06
        # measured, 9.29 in a fresh interpreter's first run). A second softmax-sized buffer,
        # the previous chunk's blocks or the spatial input each puts it over 10.
        assert traced_peak(cfg) <= 10 * latent_bytes

    def test_peak_memory_of_a_bypass_run_is_at_most_ten_latents_at_mid_size(self, tmp_path):
        cfg = ExperimentConfig(heads=16, head_dim=16, positions=256, tokens=16, timesteps=10,
                               layers_per_step=4, apply_asi=False, dump_dir=tmp_path)
        latent_bytes = cfg.positions * cfg.model_dim * 8
        # mid_bypass: a step is a chunk of its own. In latent-sized blocks (m x h*d float64,
        # 512 KiB; w_q is one too, as h*d = m), the live set at the peak, in the bypass layer
        # stack's last attention:
        # - held all run: w_q and its transpose (2), the oracle noise and the current latent
        #   (2), the four key/value blocks (4 t / m = 0.25);
        # - the stack's content and style outputs (2), Q^T (1), the logits that softmax
        #   turns into P in place (t / d = 1) and the V^T P block (1).
        # That is 9.25 (9.5 measured). A copy of the step's latent puts it over 10; the
        # one-jump sampler walk that makes the latent holds 2 blocks (the latent and its
        # noise term), far below the peak.
        run_pipeline(cfg)
        assert traced_peak(cfg) <= 10 * latent_bytes

    def test_peak_memory_of_the_default_run_is_at_most_six_and_a_half_chunk_blocks(
            self, tmp_path):
        cfg = ExperimentConfig(dump_dir=tmp_path)
        assert harness._chunk_steps(cfg) >= cfg.timesteps  # the 50 steps are one chunk
        block_bytes = cfg.timesteps * cfg.positions * cfg.model_dim * 8
        # In chunk-sized blocks (50 m x h*d float64, 400 KiB) at this size, the live
        # set at the peak, in blend:
        # - held all run: w_q and its transpose (2 h*d / 50 m = 0.16), the oracle noise
        #   and the current latent (2 / 50 = 0.04), the key/value blocks (4 t / 50 m = 0.02);
        # - the layer's blocks: q, f_s and f_c (3), the spatial and fused bool masks
        #   (2 / 8 = 0.25), both tracks' column sums (2 / m = 0.125);
        # - blend: its output, the block of squared deviations it sums, and the
        #   inverted mask (1 + 1 + 1 / 8).
        # That is 5.72 (5.81 measured). The stacked latents and the projection are freed
        # by then; any further chunk-sized block puts it over 6.5. The run before the
        # traced one imports the helper's pool, which adds about 1.3 blocks the first time.
        run_pipeline(cfg)
        assert traced_peak(cfg) <= 6.5 * block_bytes

    @pytest.mark.parametrize("shape, steps", [
        (dict(), 64),  # small_sweep: the default 50 steps run as one chunk
        (dict(heads=8, head_dim=40, positions=1024, tokens=77), 1),  # sd_block
        (dict(heads=16, head_dim=16, positions=256, tokens=16, layers_per_step=4,
              apply_asi=False), 1),  # mid_bypass
    ], ids=["small_sweep", "sd_block", "mid_bypass"])
    def test_chunk_steps_at_the_benchmark_shapes(self, shape, steps):
        assert harness._chunk_steps(ExperimentConfig(**shape)) == steps

    def test_layers_per_step_chains_features(self, tmp_path):
        cfg1 = small_cfg(tmp_path, timesteps=2)
        cfg2 = dataclasses.replace(
            small_cfg(tmp_path, timesteps=2), layers_per_step=2, dump_dir=tmp_path / "two"
        )
        run_pipeline(cfg1)
        run_pipeline(cfg2)
        one = load_tensor(cfg1.dump_dir / "features_out.asit")
        two = load_tensor(cfg2.dump_dir / "features_out.asit")
        assert not np.array_equal(one, two)


_FAULTS = """
import resource
import numpy as np
from asi.harness import ExperimentConfig, run_pipeline

def faults(work):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    work()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

def refaults(mib):
    # The minor faults of the second of two blocks of `mib` MiB, each made and freed.
    np.ones(mib << 17)
    return faults(lambda: np.ones(mib << 17))
"""


def run_script(script: str) -> list[int]:
    """Run `script` after _FAULTS in a fresh interpreter; the integers it prints."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    done = subprocess.run([sys.executable, "-c", _FAULTS + script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return [int(word) for word in done.stdout.split()]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set by glibc's mallopt")
class TestPreservedMse:
    """The preserved-coordinate check: one gather of the whole block, run only for a step
    where a preserved coordinate left its content value."""

    @pytest.mark.parametrize("h, m, d", [
        (8, 1024, 40),  # sd_block
        (16, 256, 16),  # mid_bypass's shape (its runs blend nothing)
        (5, 1024, 40),  # an odd head count
        (8, 16, 8),  # small_sweep
        (4, 1 << 18, 1),  # d=1
    ])
    def test_check_has_the_bits_of_the_whole_gather(self, monkeypatch, h, m, d):
        gen = np.random.default_rng(h * m)
        f_out, f_c = gen.standard_normal((h, m, d)), gen.standard_normal((h, m, d))
        fused = gen.random((h, m, d)) < 0.7
        diff = f_out - f_c  # the earlier form: one gather of the whole block
        expected = float((diff[~fused] ** 2).sum() / int((~fused).sum()))
        handed = []
        run_half = numeric._run_half

        def recorded(body, lo, hi):
            if threading.current_thread() is not threading.main_thread():
                handed.append((lo, hi))
            run_half(body, lo, hi)

        for cpus in (1, 2):
            monkeypatch.setattr(numeric, "_CPUS", cpus)
            monkeypatch.setattr(numeric, "_run_half", recorded)
            assert harness._preserved_mse(fused, f_out, f_c).hex() == expected.hex()
        assert handed == []

    @pytest.mark.parametrize("step", [0, 2, 4])
    def test_a_planted_deviation_is_gathered_with_its_bits(self, tmp_path, monkeypatch, step):
        # One preserved coordinate of one step of a 5-step chunk leaves its content value:
        # that step's preserved_mse is its gather's, bit for bit, and every other step's is 0.0.
        planted = []

        def layer(*args):
            result = asi_layer(*args)
            f_out = result.f_out.copy()
            head, pos, ch = np.argwhere(~result.fused_mask[:, step])[0]
            f_out[head, step, pos, ch] += 0.25
            planted.append(dataclasses.replace(result, f_out=f_out))
            return planted[-1]

        monkeypatch.setattr(harness, "asi_layer", layer)
        report = run_pipeline(small_cfg(tmp_path, timesteps=5))
        (result,) = planted
        fused, diff = result.fused_mask[:, step], (result.f_out - result.f_c)[:, step]
        expected = float((diff[~fused] ** 2).sum() / int((~fused).sum()))
        assert expected > 0.0
        mses = [row[-1].hex() for row in report_rows(tmp_path / "run")]
        assert mses == [(expected if i == step else 0.0).hex() for i in range(5)]
        assert report.preserved_mse.hex() == expected.hex()

    def test_nothing_preserved_is_zero(self):
        ones = np.ones((2, 3, 4))
        assert harness._preserved_mse(ones > 0, ones, ones) == 0.0


class TestAllocatorPolicy:
    # Each check runs in a fresh interpreter: the policy is process-wide, and
    # glibc's own dynamic thresholds depend on what the process freed before.
    def test_a_second_run_faults_in_less_than_a_latent_at_sd_size(self, tmp_path):
        # Without the policy, glibc trims each step's freed latent-sized blocks
        # and the next step faults them back in: about 10,000 faults a run at this shape.
        cfg = dict(heads=8, head_dim=40, positions=1024, tokens=77, timesteps=3)
        latent_pages = cfg["positions"] * cfg["heads"] * cfg["head_dim"] * 8 // 4096
        first, second = run_script(f"""
cfg = ExperimentConfig(dump_dir={str(tmp_path)!r}, **{cfg!r})
print(faults(lambda: run_pipeline(cfg)), faults(lambda: run_pipeline(cfg)))
""")
        assert second < latent_pages < first

    def test_import_sets_no_policy_and_the_first_run_does(self, tmp_path):
        # Importing asi leaves glibc's default, which faults a freed 20 MiB block
        # back in when it is made again; under the policy, freed heap up to
        # 64 MiB stays mapped.
        before, after = run_script(f"""
before = refaults(20)
run_pipeline(ExperimentConfig(timesteps=1, dump_dir={str(tmp_path)!r}))
print(before, refaults(24))
""")
        assert before >= 10 > after


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestChunking:
    # Chunks of several steps against one step at a time: the same bytes. By
    # default the ragged shape runs 183-step chunks and the small_sweep shape
    # 64-step ones, so T=13 is one short chunk at either. Four-step chunks leave
    # a final chunk of one step, and T=69 at the small_sweep shape runs one
    # whole default chunk and a final one of 5 steps.
    @pytest.mark.parametrize("four_step_chunks", [False, True], ids=["default", "4-step"])
    @pytest.mark.parametrize("select_all", [False, True], ids=["n=0", "n=h"])
    @pytest.mark.parametrize("apply_asi", [False, True], ids=["bypass", "asi"])
    @pytest.mark.parametrize("layers_per_step", [1, 3])
    @pytest.mark.parametrize(
        "shape",
        [dict(heads=3, head_dim=5, positions=17, tokens=7), dict()],
        ids=["h3-d5-m17-t7", "h8-d8-m16-t4"],
    )
    def test_chunks_write_the_bytes_of_single_steps(
        self, tmp_path, monkeypatch, shape, layers_per_step, apply_asi, select_all, four_step_chunks
    ):
        n = shape.get("heads", 8) if select_all else 0
        cfg = ExperimentConfig(**shape, timesteps=13, layers_per_step=layers_per_step,
                               apply_asi=apply_asi, blend=BlendConfig(n=n),
                               dump_dir=tmp_path / "chunked")
        if four_step_chunks:
            per_step = cfg.heads * cfg.positions * max(cfg.head_dim, cfg.tokens)
            monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 4 * per_step)
            assert harness._chunk_steps(cfg) == 4
        else:
            assert harness._chunk_steps(cfg) > 13
        self.assert_single_steps_write_the_same_bytes(tmp_path, monkeypatch, cfg)

    @pytest.mark.parametrize("layers_per_step", [1, 2])
    @pytest.mark.parametrize("apply_asi", [False, True], ids=["bypass", "asi"])
    def test_a_short_last_chunk_at_the_default_budget_writes_the_bytes_of_single_steps(
        self, tmp_path, monkeypatch, apply_asi, layers_per_step
    ):
        cfg = ExperimentConfig(timesteps=69, layers_per_step=layers_per_step,
                               apply_asi=apply_asi, dump_dir=tmp_path / "chunked")
        assert harness._chunk_steps(cfg) == 64
        self.assert_single_steps_write_the_same_bytes(tmp_path, monkeypatch, cfg)

    @staticmethod
    def assert_single_steps_write_the_same_bytes(tmp_path, monkeypatch, cfg):
        chunked = run_pipeline(cfg)
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
        single = dataclasses.replace(cfg, dump_dir=tmp_path / "single")
        assert harness._chunk_steps(single) == 1
        assert run_pipeline(single) == dataclasses.replace(
            chunked, output_feature_path=single.dump_dir / "features_out.asit"
        )
        assert artifacts(single.dump_dir) == artifacts(cfg.dump_dir)


class TestPublish:
    def test_stale_files_go_only_once_the_set_is_in_place(self, tmp_path):
        (tmp_path / "step_9.asit").write_text("earlier")
        (tmp_path / "step_8.asit").mkdir()  # a directory matching the glob is no artifact
        seen = []

        def write(path, text):
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            path.write_text(text)

        harness._publish(tmp_path, {"step_1.asit": (write, "a"), "trajectory.csv": (write, "b")},
                         ("step_*.asit",))
        assert seen == [["step_8.asit", "step_9.asit"],
                        ["step_1.asit.partial", "step_8.asit", "step_9.asit"]]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "step_1.asit", "step_8.asit", "trajectory.csv"]
        assert (tmp_path / "trajectory.csv").read_text() == "b"

    def test_an_error_names_the_artifact_and_nothing_is_left(self, tmp_path):
        def refuse(path):
            raise NonFiniteError(f"{path}: values must be finite")

        out = tmp_path / "a" / "b"
        files = {"ell.csv": (harness._write_csv, ["head_index", "ell"], [(0, 0.5)]),
                 "features_out.asit": (refuse,)}
        with pytest.raises(NonFiniteError) as caught:
            harness._publish(out, files)
        assert str(caught.value) == f"{out / 'features_out.asit'}: values must be finite"
        assert list(tmp_path.iterdir()) == []


class TestSweep:

    def test_single_value_sweep_equals_run(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=3)
        [swept] = sweep(cfg, "alpha", [0.7])
        direct = run_pipeline(
            dataclasses.replace(cfg, dump_dir=tmp_path / "direct")
        )
        assert swept.per_step_ell == direct.per_step_ell
        assert swept.blended_fraction == direct.blended_fraction
        assert swept.preserved_mse == direct.preserved_mse

    def test_combined_csv(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=2)
        reports = sweep(cfg, "n", [0, 4])
        with (cfg.dump_dir / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["param"] for r in rows] == ["n", "n"]
        assert [float(r["blended_fraction"]) for r in rows] == [
            r.blended_fraction for r in reports
        ]

    def test_spatial_mask_recount_across_alpha(self, tmp_path):
        # each run's dumped mask must agree with a recount from its own dump,
        # and the blended area can only move with alpha, never preserved_mse
        cfg = small_cfg(tmp_path, timesteps=2, blend=BlendConfig(n=0))
        values = [0.3, 0.7, 1.2]
        reports = sweep(cfg, "alpha", values)
        for value, report in zip(values, reports):
            mask = load_tensor(cfg.dump_dir / f"alpha_{value}" / "spatial_mask.asit")
            zeros = int((mask == 0.0).sum())
            blended = float(mask.mean())
            assert blended == pytest.approx(1.0 - zeros / mask.size)
            assert report.preserved_mse == 0.0

    def test_seed_sweep_changes_outputs(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=2)
        r0, r1 = sweep(cfg, "seed", [0, 1])
        assert r0.per_step_ell != r1.per_step_ell

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(small_cfg(tmp_path), "heads", [2, 4])

    @pytest.mark.parametrize("values", [[0.5], [0, 0.5]])
    def test_value_of_wrong_type_rejected_before_any_run(self, tmp_path, values):
        cfg = small_cfg(tmp_path, timesteps=2)
        with pytest.raises(ConfigError, match="'n'"):
            sweep(cfg, "n", values)
        assert not cfg.dump_dir.exists()

    def test_empty_value_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(small_cfg(tmp_path), "n", [])

    def test_directories_and_rows_carry_the_value_that_ran(self, tmp_path):
        cfg = small_cfg(tmp_path, timesteps=2)
        sweep(cfg, "alpha", ["0.70", 1])
        dirs = sorted(p.name for p in cfg.dump_dir.iterdir() if p.is_dir())
        assert dirs == ["alpha_0.7", "alpha_1.0"]
        with (cfg.dump_dir / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [["alpha", "0.7"], ["alpha", "1.0"]]


class TestConfigure:
    def test_keeps_settings_not_named(self):
        base = ExperimentConfig(seed=5, blend=BlendConfig(eps=0.001))
        cfg = configure(base, [("alpha", 1)])
        assert (cfg.seed, cfg.blend.eps, cfg.blend.alpha) == (5, 0.001, 1.0)

    @pytest.mark.parametrize(
        "key, value", [("bogus", "1"), ("blend", "x"), ("heads", "four"), ("n", 0.5),
                       ("apply_asi", "maybe"), ("seed", True), ("fusion", "or")]
    )
    def test_bad_setting_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            configure(ExperimentConfig(), [(key, value)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="with one token every covariance is 0, and the Gram form's rounding "
                          "noise of about 1e-30 ranks the heads, not the tie-break (ROADMAP.md, "
                          "item 2)")
def test_one_token_ties_select_the_lowest_heads(tmp_path):
    # One token: every position attends to it with weight 1, so both tracks are constant
    # over positions and all heads tie; the documented tie-break picks heads 0 to n - 1.
    for seed in (0, 1, 2):
        cfg = small_cfg(tmp_path, tokens=1, timesteps=1, seed=seed)
        run_pipeline(cfg)
        selected = load_tensor(cfg.dump_dir / "head_mask.asit")[:, 0, 0] == 1.0
        assert np.flatnonzero(selected).tolist() == list(range(cfg.blend.n)), seed
