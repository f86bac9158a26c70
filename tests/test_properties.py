"""Properties at the shape edges m=2, d=1, L=1, n=0 and n=h: each whole-run
property pins one edge as a pytest parameter, and Hypothesis draws the rest.
The reference property holds every artifact of a drawn run to
tests/oracles.reference_run, byte for byte. The direct-kernel property calls
each public kernel with drawn good and bad arguments: every failure must be a
named AsiError. The non-finite property puts one NaN or Inf entry into one block
of each float stage: each must end in NonFiniteError, with no NumPy warning."""

import dataclasses
import math
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asi import harness, numeric
from asi.adablending import (BlendConfig, adain, asi_layer, blend, covariance, extract_head_mask,
                             extract_spatial_mask, fuse_masks, head_distances)
from asi.ddim import (LatentState, NoiseSchedule, ddim_invert, ddim_step, forward_noise,
                      make_schedule)
from asi.errors import (AsiError, ConfigError, DumpFormatError, NonFiniteError,
                        ScheduleError, ShapeError)
from asi.harness import (ExperimentConfig, configure, dump_trajectory, run_pipeline, sweep,
                         synth_inputs)
from asi.numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows
from asi.sica import AttentionParams, merge_heads, project_kv, project_q, siamese_attend
from asi.tensorio import load_tensor, save_tensor

from oracles import reference_run
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


@st.composite
def reference_cases(draw, head_dims):
    """(config, _CHUNK_ENTRIES): h <= 4, m <= 12, t, T <= 5, L <= 3, perturbation <= 3.

    A step holds at most 4 * 12 * 5 = 240 entries, so chunk sizes up to 1,024
    entries cut the steps into chunks of 1 to T steps, the last one short
    where T is not a multiple.
    """
    heads = draw(st.integers(1, 4))
    keys = {
        "seed": draw(SEEDS),
        "heads": heads,
        "head_dim": draw(head_dims),
        "positions": draw(st.integers(2, 12)),
        "tokens": draw(st.integers(1, 5)),
        "timesteps": draw(st.integers(1, 5)),
        "layers_per_step": draw(st.integers(1, 3)),
        "perturbation": draw(st.floats(0.0, 3.0)),
        "apply_asi": draw(st.booleans()),
        "n": draw(st.integers(0, heads)),
        "alpha": draw(st.floats(0.05, 2.0)),
    }
    return configure(ExperimentConfig(), keys.items()), draw(st.integers(1, 1024))


def assert_run_equals_reference(cfg: ExperimentConfig, chunk_entries: int) -> None:
    # Once where nothing splits, once where everything splits that the one-column rule lets.
    expected = reference_run(cfg)
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(harness, "_CHUNK_ENTRIES", chunk_entries)
        for cpus, min_split in ((1, numeric._MIN_SPLIT), (2, 1)):
            patch.setattr(numeric, "_CPUS", cpus)
            patch.setattr(numeric, "_MIN_SPLIT", min_split)
            out_dir = Path(tmp) / f"cpus_{cpus}"
            run_in(cfg, out_dir)
            got = artifacts(out_dir)
            assert sorted(got) == sorted(expected), cpus
            for name in expected:
                assert got[name] == expected[name], (cpus, name)


@settings(max_examples=100, deadline=None)
@given(case=reference_cases(st.integers(2, 5)))
def test_run_equals_the_reference_byte_for_byte(case):
    assert_run_equals_reference(*case)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the head_dim=1 Gram F^T F is not k-ordered (ROADMAP.md, item 5)")
@settings(max_examples=50, deadline=None)
@given(case=reference_cases(st.just(1)))
# One head, one token: every row attends to the one value, so the covariances are rounding
# noise, and the run's Gram reads 0.0 where the k-ordered one reads 7.9e-31.
@example(case=(ExperimentConfig(heads=1, head_dim=1, positions=5, tokens=1, timesteps=1,
                                perturbation=3.0, apply_asi=False, blend=BlendConfig(n=0)), 1))
def test_run_at_head_dim_1_equals_the_reference_byte_for_byte(case):
    assert_run_equals_reference(*case)


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
    assert np.array_equal(scaled.spatial_mask, base.spatial_mask)
    assert np.array_equal(scaled.fused_mask, base.fused_mask)


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


# Direct kernel calls: each public kernel with every argument drawn either good or bad.
# Good values are tiny and their arrays read-only; no drawn array holds more than 3**5 entries.
WEIGHT = Matrix(Rng(5).normals(4).reshape(2, 2))
GOOD = {
    "block": Rng(1).normals(12).reshape(2, 3, 2),
    "kv": Rng(2).normals(8).reshape(2, 2, 2),
    "mask": Rng(3).uniforms(12).reshape(2, 3, 2) < 0.5,
    "head": np.array([True, False]),
    "cfg": BlendConfig(n=1),
    "eps": 1e-5,
    "matrix": Matrix(Rng(4).normals(6).reshape(3, 2)),
    "t": 2,
    "t_prev": 1,
    "sched": make_schedule(4),
    "count": 5,
    "values": [[1.0, 2.0], [3.0, 4.0]],
    "weight": WEIGHT,
    "heads": 1,
    "head_dim": 2,
    "params": AttentionParams(w_q=WEIGHT, w_k=WEIGHT, w_v=WEIGHT, heads=1, head_dim=2),
    "rng": Rng(6),
    "beta": make_schedule(4).beta,
    "alpha_bar": make_schedule(4).alpha_bar,
    "config": ExperimentConfig(heads=2, head_dim=2, positions=3, tokens=2, timesteps=2,
                               blend=BlendConfig(n=1)),
    "settings": [("n", "2"), ("alpha", "0.5")],
}
for value in GOOD.values():
    if isinstance(value, np.ndarray):
        value.flags.writeable = False


def softmax_on_a_copy(a):
    # softmax_rows writes its argument, so it gets a writable copy of a drawn array.
    return softmax_rows(np.array(a) if isinstance(a, np.ndarray) else a)


def save_in_a_temporary_directory(array):
    with tempfile.TemporaryDirectory() as tmp:
        save_tensor(Path(tmp) / "t.asit", array)


def run_in_a_temporary_directory(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(cfg, ExperimentConfig):
            cfg = dataclasses.replace(cfg, dump_dir=Path(tmp))
        run_pipeline(cfg)


KERNELS = {
    "siamese_attend": (siamese_attend, ("block", "kv", "kv", "kv", "kv")),
    "covariance": (covariance, ("block",)),
    "head_distances": (head_distances, ("block", "block")),
    "adain": (adain, ("block", "block", "eps")),
    "blend": (blend, ("block", "block", "mask", "cfg")),
    "fuse_masks": (fuse_masks, ("head", "mask")),
    "extract_spatial_mask": (extract_spatial_mask, ("block", "cfg")),
    "asi_layer": (asi_layer, ("block", "kv", "kv", "kv", "kv", "cfg")),
    "ddim_step": (ddim_step, ("matrix", "matrix", "t", "t_prev", "sched")),
    "forward_noise": (forward_noise, ("matrix", "t", "matrix", "sched")),
    "Rng.normals": (lambda count: Rng(0).normals(count), ("count",)),
    "Matrix": (Matrix, ("values",)),
    "merge_heads": (merge_heads, ("block",)),
    "softmax_rows": (softmax_on_a_copy, ("block",)),
    "extract_head_mask": (extract_head_mask, ("block", "block", "cfg")),
    "matmul": (matmul, ("matrix", "weight")),
    "randn_matrix": (randn_matrix, ("rng", "count", "count")),
    "Rng": (Rng, ("count",)),
    "AttentionParams": (AttentionParams, ("weight", "weight", "weight", "heads", "head_dim")),
    "project_q": (project_q, ("matrix", "params")),
    "project_kv": (project_kv, ("matrix", "params")),
    "NoiseSchedule": (NoiseSchedule, ("beta", "alpha_bar")),
    "save_tensor": (save_in_a_temporary_directory, ("block",)),
    "synth_inputs": (synth_inputs, ("config",)),
    "run_pipeline": (run_in_a_temporary_directory, ("config",)),
    "configure": (configure, ("config", "settings")),
}
DTYPES = [np.float64, np.float32, np.bool_, np.int64, np.complex128, np.str_, object]


@st.composite
def small_arrays(draw):
    """An array of rank 0 to 5, each axis 0 to 3 long (some empty), of any listed dtype."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=5)))
    values = Rng(draw(SEEDS)).normals(math.prod(shape)).reshape(shape)
    return values.astype(draw(st.sampled_from(DTYPES)))


def with_entry(good: np.ndarray, index: int, value: float) -> np.ndarray:
    bad = good.copy()
    bad.flat[index] = value
    return bad


def reshaped(good: np.ndarray):
    """The good array with another dtype, an axis more or less, an axis emptied, or (a float
    array) one entry NaN, Inf or -Inf."""
    non_finite = st.builds(with_entry, st.just(good), st.integers(0, good.size - 1),
                           st.sampled_from([np.nan, np.inf, -np.inf]))
    return st.one_of(
        st.sampled_from(DTYPES).map(good.astype),
        st.sampled_from([good[None], good[0], good[:0], good[..., :0]]),
        *([non_finite] if good.dtype == np.float64 else []),
    )


def arguments(role: str):
    good = GOOD[role]
    bad = st.one_of(
        small_arrays(), small_arrays().map(np.ndarray.tolist),
        st.none(), st.booleans(), st.integers(-3, 64), st.floats(), st.text(max_size=2),
        st.sampled_from([
            [[1.0, 2.0], [3.0]], [[True, False]], [], 2.5, np.float64(2.0), np.int64(3),
            2**61, 2**70, BlendConfig(), make_schedule(2), Matrix([[1.0]]),
            types.SimpleNamespace(data=GOOD["mask"]),
        ]),
    )
    return st.one_of(st.just(good), reshaped(good) if isinstance(good, np.ndarray) else bad, bad)


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_direct_kernel_call_ends_in_a_named_error(name, data):
    kernel, roles = KERNELS[name]
    args = [data.draw(arguments(role), label=role) for role in roles]
    try:
        kernel(*args)
    except AsiError:
        pass
    except MemoryError:  # documented: a count of draws no array can hold
        assert name in ("Rng.normals", "randn_matrix")
        assert max(a for a in args if isinstance(a, int)) >= 2**61


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: ddim_step(np.ones((2, 2)), GOOD["matrix"], 2, 1, GOOD["sched"]),
                 ShapeError, "^latent vs noise: latent must be a Matrix, got float64 array$",
                 id="ddim_step-array-latent"),
    pytest.param(lambda: forward_noise(np.ones((2, 2)), 1, GOOD["matrix"], GOOD["sched"]),
                 ShapeError, "^forward_noise: latent must be a Matrix, got float64 array$",
                 id="forward_noise-array-latent"),
    pytest.param(lambda: forward_noise(GOOD["matrix"], 1, None, GOOD["sched"]),
                 ShapeError, "^forward_noise: noise must be a Matrix, got NoneType$",
                 id="forward_noise-no-noise"),
    pytest.param(lambda: ddim_step(GOOD["matrix"], GOOD["matrix"], 2, 1, None),
                 ConfigError, "^latent vs noise: sched must be a NoiseSchedule, got NoneType$",
                 id="ddim_step-no-schedule"),
    pytest.param(lambda: ddim_invert(GOOD["matrix"], GOOD["matrix"], {"steps": 4}, 2),
                 ConfigError, "^latent vs noise: sched must be a NoiseSchedule, got dict$",
                 id="ddim_invert-dict-schedule"),
    pytest.param(lambda: NoiseSchedule(beta=None, alpha_bar=None),
                 ShapeError, "^NoiseSchedule: beta must be a float64 array, got NoneType$",
                 id="NoiseSchedule-none"),
    pytest.param(lambda: NoiseSchedule(beta=np.zeros(1), alpha_bar=np.array([1.0, -0.5])),
                 ScheduleError, r"^NoiseSchedule: alpha_bar entries must lie in \[0, 1\]$",
                 id="NoiseSchedule-negative"),
    pytest.param(lambda: AttentionParams(w_q=np.eye(2), w_k=WEIGHT, w_v=WEIGHT, heads=1,
                                         head_dim=2),
                 ShapeError, "^AttentionParams: w_q must be a Matrix, got float64 array$",
                 id="AttentionParams-array-weight"),
    pytest.param(lambda: project_q(np.ones((3, 2)), GOOD["params"]),
                 ShapeError, "^project_q: spatial must be a Matrix, got float64 array$",
                 id="project_q-array"),
    pytest.param(lambda: project_q(GOOD["matrix"], None),
                 ConfigError, "^project_q: params must be an AttentionParams, got NoneType$",
                 id="project_q-no-params"),
    pytest.param(lambda: project_kv(np.ones((3, 2)), GOOD["params"]),
                 ShapeError, "^project_kv: prompt must be a Matrix, got float64 array$",
                 id="project_kv-array"),
    pytest.param(lambda: randn_matrix(None, 2, 2),
                 ConfigError, "^randn_matrix: rng must be a Rng, got NoneType$",
                 id="randn_matrix-no-rng"),
    pytest.param(lambda: randn_matrix(Rng(0), np.int64(3), 2**62),
                 MemoryError, "^cannot draw", id="randn_matrix-int64-rows"),
    pytest.param(lambda: save_in_a_temporary_directory(np.array(["a"])),
                 DumpFormatError, "<U1 values have no encoding in the dump format$",
                 id="save_tensor-strings"),
    pytest.param(lambda: save_in_a_temporary_directory([[1.0], [2.0, 3.0]]),
                 DumpFormatError, "ragged input has no encoding", id="save_tensor-ragged"),
    pytest.param(lambda: synth_inputs(None),
                 ConfigError, "^synth_inputs: cfg must be an ExperimentConfig, got NoneType$",
                 id="synth_inputs-none"),
    pytest.param(lambda: run_pipeline(None),
                 ConfigError, "^run_pipeline: cfg must be an ExperimentConfig, got NoneType$",
                 id="run_pipeline-none"),
    pytest.param(lambda: configure(None, []),
                 ConfigError, "^configure: cfg must be an ExperimentConfig, got NoneType$",
                 id="configure-none"),
    pytest.param(lambda: configure(GOOD["config"], ["n"]),
                 ConfigError, r"^configure: settings must be \(key, value\) pairs",
                 id="configure-no-pair"),
    pytest.param(lambda: configure(GOOD["config"], [(["n"], "1")]),
                 ConfigError, r"^unknown config key \['n'\]$", id="configure-list-key"),
    pytest.param(lambda: dump_trajectory(None, GOOD["sched"], "unused"),
                 ShapeError, "^dump_trajectory: trajectory must be a list, got NoneType$",
                 id="dump_trajectory-none"),
    pytest.param(lambda: dump_trajectory([1], GOOD["sched"], "unused"),
                 ShapeError, "^dump_trajectory: trajectory entry must be a LatentState, got int$",
                 id="dump_trajectory-int-state"),
    pytest.param(lambda: dump_trajectory([LatentState(0, GOOD["matrix"])], None, "unused"),
                 ConfigError, "^dump_trajectory: sched must be a NoiseSchedule, got NoneType$",
                 id="dump_trajectory-no-schedule"),
    pytest.param(lambda: dump_trajectory([LatentState(0, None)], GOOD["sched"], "unused"),
                 ShapeError, "^dump_trajectory: latent must be a Matrix, got NoneType$",
                 id="dump_trajectory-no-latent"),
    pytest.param(lambda: dump_trajectory([], GOOD["sched"], None),
                 ConfigError,
                 "^dump_trajectory: out_dir must be a str or a str os.PathLike, got None$",
                 id="dump_trajectory-no-directory"),
    pytest.param(lambda: sweep(GOOD["config"], "n", 5),
                 ConfigError, "^sweep needs a non-empty list of values, got 5$", id="sweep-int"),
])
def test_an_entry_point_names_its_bad_argument(call, error, match):
    with pytest.raises(error, match=match):
        call()


# The stages that take float blocks, with one block holding one NaN, Inf or -Inf entry.
NON_FINITE_STAGES = ["siamese_attend", "covariance", "head_distances", "adain", "blend",
                     "asi_layer", "softmax_rows", "extract_head_mask", "merge_heads"]


# The stages that scan their blocks' entries, with one finite entry near the float64 limit.
LARGE_VALUE_STAGES = ["covariance", "head_distances", "adain", "blend", "extract_head_mask"]


@pytest.mark.parametrize("name", LARGE_VALUE_STAGES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), value=st.floats(1e160, 1.7e308), sign=st.sampled_from([1.0, -1.0]))
def test_a_block_near_the_float64_limit_ends_in_a_non_finite_error(name, data, value, sign):
    # Its square overflows; under the suite's warnings-as-errors, a warning on the way fails.
    kernel, roles = KERNELS[name]
    args = [GOOD[role] for role in roles]
    i = data.draw(st.sampled_from([i for i, role in enumerate(roles) if role == "block"]))
    args[i] = with_entry(args[i], data.draw(st.integers(0, args[i].size - 1)), sign * value)
    with pytest.raises(NonFiniteError):
        kernel(*args)


@pytest.mark.parametrize("name", NON_FINITE_STAGES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_a_non_finite_block_ends_in_a_non_finite_error(name, data, value):
    # NumPy warnings are errors here, so a stage that warns on the way fails too.
    kernel, roles = KERNELS[name]
    args = [GOOD[role] for role in roles]
    i = data.draw(st.sampled_from([i for i, role in enumerate(roles) if role in ("block", "kv")]))
    args[i] = with_entry(args[i], data.draw(st.integers(0, args[i].size - 1)), value)
    try:
        out = kernel(*args)
    except NonFiniteError:
        return
    # The layer scans no entry of its blocks: it names a non-finite value where it reaches the
    # head distances, and an Inf key whose logits are all finite or -Inf reaches none.
    assert name == "asi_layer" and np.isinf(value)
    assert all(np.isfinite(block).all() for block in (out.f_out, out.f_s, out.f_c))
