"""Properties at the shape edges m=2, d=1, L=1, n=0 and n=h: each whole-run
property pins one edge as a pytest parameter, and Hypothesis draws the rest."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asi.adablending import BlendConfig, asi_layer, head_distances
from asi.harness import ExperimentConfig, configure, run_pipeline
from asi.numeric import Rng
from asi.tensorio import load_tensor

from test_harness import artifacts, replay_run, report_rows

# Each edge as (config key, value); "heads" stands for the drawn head count.
EDGES = [
    pytest.param("positions", 2, id="m=2"),
    pytest.param("head_dim", 1, id="d=1"),
    pytest.param("tokens", 1, id="L=1"),
    pytest.param("n", 0, id="n=0"),
    pytest.param("n", "heads", id="n=h"),
]
SEEDS = st.integers(0, 2**32)
BLOCK_RANKS = pytest.mark.parametrize("steps", [False, True], ids=["h-m-d", "h-steps-m-d"])


@st.composite
def run_configs(draw, key, value, **fixed):
    """A config at h, d <= 4, m <= 8, L, T, layers_per_step <= 3, with key=value."""
    heads = draw(st.integers(1, 4))
    keys = {
        "seed": draw(SEEDS),
        "heads": heads,
        "head_dim": draw(st.integers(1, 4)),
        "positions": draw(st.integers(2, 8)),
        "tokens": draw(st.integers(1, 3)),
        "timesteps": draw(st.integers(1, 3)),
        "layers_per_step": draw(st.integers(1, 3)),
        "perturbation": draw(st.floats(0.0, 2.0)),
        "n": draw(st.integers(0, heads)),
        "alpha": draw(st.floats(0.05, 2.0)),
        key: heads if value == "heads" else value,
        **fixed,
    }
    return configure(ExperimentConfig(), keys.items())


def run_in(cfg: ExperimentConfig, out_dir: Path):
    return run_pipeline(configure(cfg, [("dump_dir", out_dir)]))


@pytest.mark.parametrize("apply_asi", [False, True], ids=["bypass", "asi"])
@pytest.mark.parametrize("key, value", EDGES)
class TestWholeRun:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_preserves_content_and_equals_replay(self, key, value, apply_asi, data):
        cfg = data.draw(run_configs(key, value, apply_asi=apply_asi))
        with tempfile.TemporaryDirectory() as tmp:
            report = run_in(cfg, Path(tmp))
            features, rows = replay_run(cfg)
            assert report.preserved_mse == 0.0
            assert report_rows(Path(tmp)) == rows
            dumped = load_tensor(Path(tmp) / "features_out.asit")
            assert np.array_equal(dumped, features.astype(np.float32).astype(np.float64))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_fresh_directories_get_the_same_bytes(self, key, value, apply_asi, data):
        cfg = data.draw(run_configs(key, value, apply_asi=apply_asi))
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            run_in(cfg, Path(a))
            run_in(cfg, Path(b))
            assert artifacts(Path(a)) == artifacts(Path(b))


@pytest.mark.parametrize("key, value", EDGES[:3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_blending_grows_with_n_and_selected_heads_nest(key, value, data):
    # With one layer per step the blend output feeds nothing, so each step's
    # features, distances and spatial mask do not depend on n.
    cfg = data.draw(run_configs(key, value, apply_asi=True, layers_per_step=1))
    fractions, selected = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(cfg.heads + 1):
            out_dir = Path(tmp) / f"n{n}"
            run_in(configure(cfg, [("n", n)]), out_dir)
            fractions.append([row[-2] for row in report_rows(out_dir)])
            selected.append(load_tensor(out_dir / "head_mask.asit")[:, 0, 0] == 1.0)
            if n == 0:
                fused = (out_dir / "fused_mask.asit").read_bytes()
                assert fused == (out_dir / "spatial_mask.asit").read_bytes()
    for n in range(cfg.heads):
        assert all(a <= b for a, b in zip(fractions[n], fractions[n + 1]))
        assert not (selected[n] & ~selected[n + 1]).any()
    assert [int(s.sum()) for s in selected] == list(range(cfg.heads + 1))
    assert fractions[-1] == [1.0] * cfg.timesteps


def block_shapes(steps: bool):
    """(h, m, d) at h, d <= 4 and m <= 8, or (h, steps, m, d) with 2 or 3 steps."""
    shapes = st.tuples(st.integers(1, 4), st.integers(2, 3), st.integers(2, 8), st.integers(1, 4))
    return shapes if steps else shapes.map(lambda s: (s[0], *s[2:]))


@BLOCK_RANKS
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=SEEDS, tokens=st.integers(1, 3), k=st.integers(-20, 20))
def test_layer_scale_is_exact(steps, data, seed, tokens, k):
    # Scaling the values by 2**k scales both feature blocks by 2**k exactly:
    # every product and sum is a power-of-two multiple of the unscaled one.
    shape = data.draw(block_shapes(steps))
    h, d = shape[0], shape[-1]
    rng = Rng(seed)
    q = rng.normals(math.prod(shape)).reshape(shape)
    k_s, v_s, k_c, v_c = (rng.normals(h * tokens * d).reshape(h, tokens, d) for _ in range(4))
    cfg = BlendConfig(n=data.draw(st.integers(0, h)), alpha=data.draw(st.floats(0.05, 2.0)))
    base = asi_layer(q, k_s, v_s, k_c, v_c, cfg)
    scaled = asi_layer(q, k_s, 2.0**k * v_s, k_c, 2.0**k * v_c, cfg)
    assert np.array_equal(scaled.f_s, 2.0**k * base.f_s)
    assert np.array_equal(scaled.f_c, 2.0**k * base.f_c)
    assert np.array_equal(scaled.distances, 16.0**k * base.distances)
    assert np.array_equal(scaled.head_mask, base.head_mask)
    assert np.array_equal(scaled.spatial_mask.data, base.spatial_mask.data)
    assert np.array_equal(scaled.fused_mask.data, base.fused_mask.data)


def assert_shift_keeps_distances(seed, shape, c_s, c_c):
    # Normal blocks whose positions 0 and 1 are +2 and -2 in every channel, so
    # no covariance is near 0. A shift leaves each covariance, and so each
    # distance, unchanged in exact arithmetic. The Gram form's rounding error
    # is absolute (about eps * c**2 per covariance entry), so the tolerance is
    # 1e-6 of the size a distance between these covariances can reach,
    # (|C_s| + |C_c|)**2 / 4d**2; heads further apart than that keep their order.
    blocks = Rng(seed).normals(2 * math.prod(shape)).reshape(2, *shape)
    blocks[..., :2, :] = [[2.0], [-2.0]]
    f_s, f_c = blocks
    centered = blocks - blocks.mean(axis=-2, keepdims=True)
    cov = np.swapaxes(centered, -1, -2) @ centered / (shape[-2] - 1)
    tol = 1e-6 * np.linalg.norm(cov, axis=(-2, -1)).sum(axis=0) ** 2 / (4.0 * shape[-1] ** 2)
    base, shifted = head_distances(f_s, f_c), head_distances(f_s + c_s, f_c + c_c)
    assert (np.abs(shifted - base) <= tol).all()
    gap = base[:, None] - base[None, :]
    assert (shifted[:, None] > shifted[None, :])[gap > 2 * tol.max(axis=0)].all()


@BLOCK_RANKS
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=SEEDS, c_s=st.floats(-1e3, 1e3), c_c=st.floats(-1e3, 1e3))
def test_layer_shift_keeps_distances(steps, data, seed, c_s, c_c):
    assert_shift_keeps_distances(seed, data.draw(block_shapes(steps)), c_s, c_c)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Gram-form covariance cancels at a 1e7 shift (ROADMAP.md, item 2)")
def test_layer_shift_keeps_distances_at_1e7():
    assert_shift_keeps_distances(0, (4, 8, 4), 1e7, -1e7)
