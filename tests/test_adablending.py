import dataclasses
import math
import re
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asi import numeric
from asi.adablending import (
    AsiLayerResult,
    BlendConfig,
    adain,
    asi_layer,
    blend,
    covariance,
    extract_head_mask,
    extract_spatial_mask,
    fuse_masks,
    head_distances,
    _select_top_heads,
)
from asi.errors import ConfigError, DegenerateInputError, NonFiniteError, ShapeError
from asi.harness import ExperimentConfig
from asi.numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows
from asi.sica import AttentionParams, merge_heads, project_kv, project_q, siamese_attend

from oracles import (
    float_spatial_mask,
    mean_std_adain,
    reference_attention,
    two_pass_covariance,
)

bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def feature_blocks(draw, min_rows=2, max_rows=8, min_cols=1, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = draw(st.lists(bounded, min_size=rows * cols, max_size=rows * cols))
    return np.array(data).reshape(rows, cols)


def random_feature_map(rng: Rng, heads: int, m: int, d: int) -> np.ndarray:
    return rng.normals(heads * m * d).reshape(heads, m, d)


class TestCovariance:
    def test_identical_rows_give_zero(self):
        f = np.array([[2.0, -1.0, 3.0]] * 4)
        assert np.array_equal(covariance(f), np.zeros((3, 3)))

    def test_small_example_against_two_pass_oracle(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        cov = covariance(f)
        assert np.array_equal(cov, [[4.0, 4.0], [4.0, 4.0]])
        assert np.abs(cov - two_pass_covariance(f)).max() < 1e-12

    def test_row_permutation_invariance(self):
        rng = Rng(20)
        f = randn_matrix(rng, 6, 3).a
        permuted = f[[5, 3, 1, 4, 0, 2]]
        assert np.abs(covariance(f) - covariance(permuted)).max() < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(DegenerateInputError):
            covariance(np.array([[1.0, 2.0]]))

    @given(feature_blocks())
    @settings(max_examples=60)
    def test_matches_two_pass_oracle(self, f):
        cov = covariance(f)
        oracle = two_pass_covariance(f)
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(cov - oracle).max() / scale < 1e-9

    @given(feature_blocks())
    @settings(max_examples=60)
    def test_symmetric_and_psd(self, f):
        cov = covariance(f)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestHeadDistance:

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_quartic_homogeneity(self, c):
        rng = Rng(23)
        a, b = randn_matrix(rng, 8, 3).a, randn_matrix(rng, 8, 3).a
        base = head_distances(a, b)
        scaled = head_distances(c * a, c * b)
        assert abs(scaled - c**4 * base) < 1e-9 * max(1.0, abs(scaled))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            head_distances(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_overflow_is_an_error_not_inf(self):
        # Finite blocks whose covariance gap squares past float64 range.
        big, unit = np.array([[1e80], [-1e80]]), np.array([[1.0], [-1.0]])
        with pytest.raises(NonFiniteError, match="finite"):
            head_distances(big, unit)
        with pytest.raises(NonFiniteError, match="finite"):
            head_distances(np.stack([unit, big]), np.stack([unit, unit]))

    def test_non_finite_block_is_an_error(self):
        q, k_s, v_s, k_c, v_c = synth_layer_inputs(seed=5)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        nan_f, nan_v = f_s.copy(), v_s.copy()
        nan_f[1, 2, 0] = nan_v[1, 0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="finite"):
            head_distances(nan_f, f_c)
        with pytest.raises(NonFiniteError, match="finite"):
            asi_layer(q, k_s, nan_v, k_c, v_c, BlendConfig())


class TestHeadMaskExtraction:
    def build_maps_with_distances(self, per_head_scales):
        # Per head, f_c is a fixed block and f_s scales its deviations, so the
        # covariance gap (and the distance ranking) tracks the scale.
        rng = Rng(25)
        base = randn_matrix(rng, 10, 3)
        f_c = np.stack([base.a] * len(per_head_scales))
        f_s = np.stack([base.a * s for s in per_head_scales])
        return f_s, f_c

    def test_boundaries(self):
        f_s, f_c = self.build_maps_with_distances([1.5, 2.0, 0.4])
        assert extract_head_mask(f_s, f_c, BlendConfig(n=3)).tolist() == [True] * 3
        assert extract_head_mask(f_s, f_c, BlendConfig(n=0)).tolist() == [False] * 3

    def test_n_larger_than_heads_is_config_error(self):
        f_s, f_c = self.build_maps_with_distances([1.0, 2.0])
        with pytest.raises(ConfigError):
            extract_head_mask(f_s, f_c, BlendConfig(n=3))

    def test_selection_invariant_under_common_scaling(self):
        f_s, f_c = self.build_maps_with_distances([1.3, 0.2, 3.0, 1.01])
        mask = extract_head_mask(f_s, f_c, BlendConfig(n=2))
        scaled = extract_head_mask(2.5 * f_s, 2.5 * f_c, BlendConfig(n=2))
        assert np.array_equal(mask, scaled)

class TestPerStepHeadSelection:
    # Three heads at four sampler steps, one column of distances per step: a
    # tie in step 0, step 1 all tied at step 0's maximum, a zero in step 2.
    DISTANCES = np.array([[0.5, 2.0, 0.5], [2.0, 2.0, 2.0], [0.0, 1.0, 0.5], [1.0, 0.5, 0.5]]).T
    EXPECTED = {  # per step, as DISTANCES.T
        0: [[0, 0, 0]] * 4,
        1: [[0, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]],
        2: [[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 1, 0]],
        3: [[1, 1, 1]] * 4,
    }

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_each_step_selects_its_own_top_n(self, n):
        selected = _select_top_heads(self.DISTANCES, n)
        per_step = [_select_top_heads(column, n) for column in self.DISTANCES.T]
        assert np.array_equal(selected, np.stack(per_step, axis=1))
        assert selected.T.astype(int).tolist() == self.EXPECTED[n]
        assert selected.dtype == bool and not selected.flags.writeable

    def test_n_above_the_head_count_is_config_error(self):
        with pytest.raises(ConfigError, match="exceeds head count 3"):
            _select_top_heads(self.DISTANCES, 4)


class TestSpatialMaskExtraction:

    def test_alpha_one_keeps_argmax(self):
        f_c = np.array([[[1.0], [0.25], [0.99]]])
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=1.0))
        # nothing is strictly greater than the max itself
        assert np.array_equal(mask[0, :, 0], [1.0, 1.0, 1.0])

    def test_zeros_shrink_as_alpha_grows_on_positive_features(self):
        rng = Rng(28)
        f_c = np.abs(rng.normals(3 * 10 * 4)).reshape(3, 10, 4) + 0.01
        zero_counts = []
        for alpha in (0.3, 0.5, 0.7, 0.9, 1.1):
            mask = extract_spatial_mask(f_c, BlendConfig(alpha=alpha))
            zero_counts.append(int((mask == 0.0).sum()))
        assert zero_counts == sorted(zero_counts, reverse=True)


# Masks of a (2, 2, 2) block that are no array, and the kind each error names: a list,
# None, and a wrapper holding the block as .data (test_masks_must_be_bool has the dtypes).
BAD_MASKS = [
    pytest.param(np.ones((2, 2, 2), dtype=bool).tolist(), "list", id="list"),
    pytest.param(None, "NoneType", id="None"),
    pytest.param(types.SimpleNamespace(data=np.ones((2, 2, 2), dtype=bool)), "SimpleNamespace",
                 id="wrapper"),
]


class TestMaskFusion:
    def test_selected_head_absorbs_spatial(self):
        spatial = np.array([[[False, True], [True, False]]])
        fused = fuse_masks(np.array([True]), spatial)
        assert np.array_equal(fused, np.ones((1, 2, 2)))

    def test_unselected_head_passes_spatial_through(self):
        spatial = np.array([[[False, True], [True, False]]])
        fused = fuse_masks(np.array([False]), spatial)
        assert np.array_equal(fused, spatial)

    def test_matches_boolean_oracle(self):
        rng = Rng(29)
        head = rng.uniforms(4) < 0.5
        spatial = (rng.uniforms(4 * 5 * 3) < 0.5).reshape(4, 5, 3)
        fused = fuse_masks(head, spatial)
        for i in range(4):
            for p in range(5):
                for c in range(3):
                    expected = 1.0 if (head[i] or spatial[i, p, c] == 1.0) else 0.0
                    assert fused[i, p, c] == expected

    @pytest.mark.parametrize("data", [np.zeros((1, 2, 2)), np.ones((1, 2, 2), dtype=np.int64)])
    def test_masks_must_be_bool(self, data):
        # fuse_masks checks its spatial mask and blend its mask where they enter.
        f = np.ones(data.shape)
        with pytest.raises(ShapeError, match=f"^fuse_masks: mask must be a bool array, "
                                             f"got {data.dtype} array$"):
            fuse_masks(np.array([True]), data)
        with pytest.raises(ShapeError, match=f"^blend: mask must be a bool array, "
                                             f"got {data.dtype} array$"):
            blend(f, f, data, BlendConfig())

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 1, 2, 2)])
    def test_masks_must_be_three_or_four_dimensional(self, shape):
        mask, f = np.zeros(shape, dtype=bool), np.ones((1, 2, 2))
        with pytest.raises(ShapeError, match=r"^fuse_masks: mask needs 3 to 4 non-empty "
                                             r"dimensions, got \(.*\)$"):
            fuse_masks(np.zeros(shape[:-2], dtype=bool), mask)
        with pytest.raises(ShapeError, match=r"^blend: mask needs 3 to 4 non-empty dimensions"):
            blend(f, f, mask, BlendConfig())
        # Features of that rank are no (h, [steps,] m, d) block to blend either.
        with pytest.raises(ShapeError, match=r"^blend: block 1 needs 3 to 4 non-empty "
                                             r"dimensions"):
            blend(np.ones(shape), np.ones(shape), mask, BlendConfig())

    def test_an_empty_spatial_mask_is_shape_error(self):
        with pytest.raises(ShapeError, match=r"^fuse_masks: mask needs 3 to 4 non-empty "
                                             r"dimensions, got \(2, 0, 3\)$"):
            fuse_masks(np.ones(2, dtype=bool), np.ones((2, 0, 3), dtype=bool))

    def test_mask_makers_take_only_three_or_four_dimensional_blocks(self):
        # The spatial extractor and the layer make masks, so they check the rank first.
        q, k = np.ones((2, 1, 1, 3, 2)), np.ones((2, 4, 2))
        with pytest.raises(ShapeError, match=r"^extract_spatial_mask: block 1 needs 3 to 4 "):
            extract_spatial_mask(q, BlendConfig())
        with pytest.raises(ShapeError, match=r"^asi_layer: q needs 3 to 4 "):
            asi_layer(q, k, k, k, k, BlendConfig(n=1))

    def test_mask_is_read_only_and_leaves_caller_array_writable(self):
        f_s, f_c = (random_feature_map(Rng(seed), 2, 3, 2) for seed in (1, 2))
        a = np.zeros(f_c.shape, dtype=bool)
        masks = [extract_spatial_mask(f_c, BlendConfig()), fuse_masks(np.array([True, False]), a)]
        layer = asi_layer(*synth_layer_inputs(heads=2), BlendConfig(n=1))
        masks += [layer.spatial_mask, layer.fused_mask]
        assert all(mask.dtype == bool and not mask.flags.writeable for mask in masks)
        blend(f_c, f_s, a, BlendConfig())
        assert a.flags.writeable and not a.any()

    def test_head_count_mismatch_either_way(self):
        spatial = np.zeros((2, 2, 2), dtype=bool)
        for head in (np.array([True]), np.array([True, False, True])):
            with pytest.raises(ShapeError, match="heads"):
                fuse_masks(head, spatial)

    @pytest.mark.parametrize("head", [np.ones(2), np.array([1, 0]), [True, False]])
    def test_head_mask_must_be_a_bool_array(self, head):
        with pytest.raises(ShapeError, match="bool"):
            fuse_masks(head, np.zeros((2, 2, 2), dtype=bool))

    @pytest.mark.parametrize("spatial, kind", BAD_MASKS)
    def test_spatial_mask_must_be_a_bool_array(self, spatial, kind):
        with pytest.raises(ShapeError, match=f"^fuse_masks: mask must be a bool array, got {kind}$"):
            fuse_masks(np.array([True, False]), spatial)


class TestAdain:
    def test_known_channel_transfer(self):
        # content channel [0, 2]: mean 1, population std 1
        # style channel [10, 14]: mean 12, population std 2
        out = adain(np.array([[0.0], [2.0]]), np.array([[10.0], [14.0]]), eps=1e-12)
        assert np.abs(out - [[10.0], [14.0]]).max() < 1e-9

    def test_constant_content_channel_maps_to_style_mean(self):
        out = adain(np.array([[5.0], [5.0]]), np.array([[10.0], [14.0]]), eps=1e-5)
        assert np.array_equal(out, [[12.0], [12.0]])

    def test_self_normalization_identity_scales_with_eps(self):
        f = randn_matrix(Rng(30), 12, 5).a
        tiny = np.abs(adain(f, f, eps=1e-9) - f).max()
        assert tiny < 1e-6
        # at the default eps the deviation is of order eps, not below 1e-6
        default = np.abs(adain(f, f, eps=1e-5) - f).max()
        assert default < 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adain(np.zeros((3, 2)), np.zeros((2, 2)), eps=1e-5)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf, True, "x", None])
    def test_eps_must_be_a_finite_number_above_zero(self, eps):
        # As in BlendConfig; eps=0 would divide a constant channel's zero deviation by zero.
        with pytest.raises(ConfigError, match="eps"):
            adain(np.array([[5.0], [5.0]]), np.array([[10.0], [14.0]]), eps=eps)


class TestBlend:
    def _setup(self, seed=32, heads=3, m=6, d=4):
        rng = Rng(seed)
        f_c = random_feature_map(rng, heads, m, d)
        f_s = random_feature_map(rng, heads, m, d)
        return f_c, f_s

    def test_zero_mask_preserves_content_bitwise(self):
        f_c, f_s = self._setup()
        mask = np.zeros(f_c.shape, dtype=bool)
        out = blend(f_c, f_s, mask, BlendConfig())
        assert np.array_equal(out, f_c)

    def test_style_equals_content_is_noop(self):
        f_c, _ = self._setup(seed=34)
        cfg = BlendConfig(eps=1e-9)
        mask = (Rng(1).uniforms(f_c.size) < 0.5).reshape(f_c.shape)
        out = blend(f_c, f_c, mask, cfg)
        assert np.abs(out - f_c).max() < 1e-6

    def test_mask_shape_mismatch(self):
        f_c, f_s = self._setup()
        with pytest.raises(ShapeError):
            blend(f_c, f_s, np.zeros((1, 2, 2), dtype=bool), BlendConfig())

    @pytest.mark.parametrize("mask, kind", BAD_MASKS)
    def test_mask_must_be_a_bool_array(self, mask, kind):
        f_c, f_s = np.ones((2, 2, 2)), np.ones((2, 2, 2))
        with pytest.raises(ShapeError, match=f"^blend: mask must be a bool array, got {kind}$"):
            blend(f_c, f_s, mask, BlendConfig())

    def test_holds_at_most_two_blocks_besides_its_operands(self):
        f_c, f_s = self._setup(heads=4, m=256, d=8)
        mask = np.ones(f_c.shape, dtype=bool)
        tracemalloc.start()
        try:
            blend(f_c, f_s, mask, BlendConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two at a time: a deviation and its squares, then the content deviation
        # (AdaIN's result, built in place) and the blended output. The style
        # deviation is dropped before the content's is made.
        assert peak <= 2.5 * f_c.nbytes


class TestWholeBlock:
    @pytest.mark.parametrize(
        "h, m, d, t_s, t_c",
        [
            pytest.param(1, 2, 1, 1, 1, id="1-2-1-1"),
            pytest.param(3, 17, 5, 7, 7, id="3-17-5-7"),
            pytest.param(8, 1024, 40, 77, 77, id="8-1024-40-77"),
            pytest.param(16, 256, 16, 16, 16, id="16-256-16-16"),
            pytest.param(3, 17, 5, 2, 9, id="3-17-5-ragged-2-9"),
        ],
    )
    def test_equals_per_head_bitwise(self, h, m, d, t_s, t_c):
        rng = Rng(35)
        q = random_feature_map(rng, h, m, d)
        k_s, v_s = (random_feature_map(rng, h, t_s, d) for _ in range(2))
        k_c, v_c = (random_feature_map(rng, h, t_c, d) for _ in range(2))
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        distances = head_distances(f_s, f_c)
        cov = covariance(f_c)
        step_cov = covariance(np.stack([f_s, f_c], axis=1))  # (h, 2, m, d): a step axis
        cfg = BlendConfig()
        out = blend(f_c, f_s, np.ones(f_c.shape, dtype=bool), cfg)
        scale = 1.0 / math.sqrt(d)
        for i in range(h):
            for f, k, v in ((f_s, k_s, v_s), (f_c, k_c, v_c)):
                weights = softmax_rows(matmul(Matrix(q[i]), Matrix(k[i].T)).a * scale)
                assert np.array_equal(f[i], matmul(Matrix(weights), Matrix(v[i])).a)
            assert distances[i] == head_distances(f_s[i], f_c[i])
            assert np.array_equal(cov[i], covariance(f_c[i]))
            for j, f in enumerate((f_s, f_c)):
                assert np.array_equal(step_cov[i, j], covariance(f[i]))
            assert np.array_equal(out[i], adain(f_c[i], f_s[i], cfg.eps))


class TestBlockContract:
    def test_returned_blocks_are_read_only_c_contiguous_float64(self):
        rng = Rng(36)
        heads, d = 3, 4
        weights = (randn_matrix(rng, heads * d, heads * d) for _ in range(3))
        params = AttentionParams(*weights, heads=heads, head_dim=d)
        q = project_q(randn_matrix(rng, 5, heads * d), params)
        k_s, v_s = project_kv(randn_matrix(rng, 2, heads * d), params)
        k_c, v_c = project_kv(randn_matrix(rng, 3, heads * d), params)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        cfg = BlendConfig(n=1)
        result = asi_layer(q, k_s, v_s, k_c, v_c, cfg)
        # project_q returns the (h, m, d) view of the C-ordered Q^T that attention reads.
        assert q.dtype == np.float64 and not q.flags.writeable
        assert q.transpose(0, 2, 1).flags.c_contiguous
        blocks = {
            "project_kv k": k_s,
            "project_kv v": v_s,
            "siamese_attend f_s": f_s,
            "siamese_attend f_c": f_c,
            "blend": blend(f_c, f_s, result.fused_mask, cfg),
            "asi_layer f_out": result.f_out,
            "asi_layer f_s": result.f_s,
            "asi_layer f_c": result.f_c,
        }
        for name, block in blocks.items():
            assert block.dtype == np.float64, name
            assert block.flags.c_contiguous, name
            assert not block.flags.writeable, name
        head_mask = result.head_mask
        assert head_mask.dtype == bool and head_mask.shape == (heads,)
        assert not head_mask.flags.writeable


# An (h, m, d) block and its keys and values, then blocks of each lower rank;
# slicing an axis to length 0 gives an empty block.
BLOCK, KV = np.ones((2, 3, 4)), np.ones((2, 5, 4))
HEAD, ROW, SCALAR = np.ones((3, 4)), np.ones(4), np.array(1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: covariance(SCALAR), id="covariance-0d"),
    pytest.param(lambda: covariance(ROW), id="covariance-1d"),
    pytest.param(lambda: head_distances(SCALAR, SCALAR), id="head_distances-0d"),
    pytest.param(lambda: head_distances(ROW, ROW), id="head_distances-1d"),
    pytest.param(lambda: adain(SCALAR, SCALAR, 1e-5), id="adain-0d"),
    pytest.param(lambda: adain(ROW, ROW, 1e-5), id="adain-1d"),
    pytest.param(lambda: siamese_attend(BLOCK[:, 0], KV, KV, KV, KV), id="attention-2d-q"),
    pytest.param(lambda: siamese_attend(BLOCK, KV[0], KV, KV, KV), id="attention-2d-k"),
    pytest.param(lambda: siamese_attend(BLOCK, KV, KV[0], KV, KV), id="attention-2d-v"),
    pytest.param(lambda: merge_heads(ROW), id="merge_heads-1d"),
    pytest.param(lambda: merge_heads(HEAD), id="merge_heads-2d"),
    pytest.param(lambda: extract_head_mask(HEAD, HEAD, BlendConfig(n=1)), id="head_mask-2d"),
    pytest.param(lambda: extract_head_mask(ROW, ROW, BlendConfig(n=1)), id="head_mask-1d"),
    pytest.param(lambda: extract_spatial_mask(ROW, BlendConfig()), id="spatial_mask-1d"),
    pytest.param(lambda: covariance(HEAD[:, :0]), id="covariance-empty-d"),
    pytest.param(lambda: head_distances(BLOCK[..., :0], BLOCK[..., :0]), id="distances-empty-d"),
    pytest.param(lambda: adain(BLOCK[:, :0], BLOCK[:, :0], 1e-5), id="adain-empty-m"),
    pytest.param(lambda: siamese_attend(BLOCK, KV, KV, KV[:, :0], KV[:, :0]),
                 id="attention-empty-t"),
    pytest.param(lambda: siamese_attend(BLOCK[:, :0], KV, KV, KV, KV), id="attention-empty-m"),
    pytest.param(lambda: merge_heads(BLOCK[..., :0]), id="merge_heads-empty-d"),
    pytest.param(lambda: merge_heads(BLOCK[:, :0]), id="merge_heads-empty-m"),
])
def test_wrong_rank_or_empty_block_is_shape_error(call):
    with pytest.raises(ShapeError):
        call()


MASK = np.ones(BLOCK.shape, dtype=bool)


# Each adablending stage, called with one bad block in place of a feature block.
STAGE_CALLS = [
    pytest.param(lambda bad: covariance(bad), id="covariance"),
    pytest.param(lambda bad: head_distances(bad, BLOCK), id="head_distances-first"),
    pytest.param(lambda bad: head_distances(BLOCK, bad), id="head_distances-second"),
    pytest.param(lambda bad: adain(bad, BLOCK, 1e-5), id="adain-content"),
    pytest.param(lambda bad: adain(BLOCK, bad, 1e-5), id="adain-style"),
    pytest.param(lambda bad: blend(bad, BLOCK, MASK, BlendConfig()), id="blend-content"),
    pytest.param(lambda bad: blend(BLOCK, bad, MASK, BlendConfig()), id="blend-style"),
    pytest.param(lambda bad: extract_head_mask(bad, BLOCK, BlendConfig(n=1)), id="head_mask"),
    pytest.param(lambda bad: extract_spatial_mask(bad, BlendConfig()), id="spatial_mask"),
]


@pytest.mark.parametrize("call", [
    *STAGE_CALLS, pytest.param(lambda bad: merge_heads(bad), id="merge_heads")])
@pytest.mark.parametrize("bad, kind", [(BLOCK.tolist(), "list"), (None, "NoneType")])
def test_non_array_block_is_shape_error_naming_its_type(call, bad, kind):
    with pytest.raises(ShapeError, match=f"got {kind}$"):
        call(bad)


@pytest.mark.parametrize("call", STAGE_CALLS)
@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.complex128, np.str_])
def test_block_of_another_dtype_is_shape_error_naming_it(call, dtype):
    # A bool block's einsum is logical: covariance([[1, 0], [0, 1], [1, 1]]) as bools would
    # come out [[-1/6, -1/6], [-1/6, -1/6]], not [[1/3, -1/6], [-1/6, 1/3]], without an error.
    bad = BLOCK.astype(dtype)
    with pytest.raises(ShapeError, match=f"must be a float64 array, got {re.escape(str(bad.dtype))} "
                                         f"array$"):
        call(bad)


@pytest.mark.parametrize("cfg", [None, {"n": 1}, dataclasses.asdict(BlendConfig())])
def test_blend_and_asi_layer_take_only_a_blend_config(cfg):
    q, k_s, v_s, k_c, v_c = synth_layer_inputs()
    kind = type(cfg).__name__
    with pytest.raises(ConfigError, match=f"^blend: cfg must be a BlendConfig, got {kind}$"):
        blend(BLOCK, BLOCK, MASK, cfg)
    with pytest.raises(ConfigError, match=f"^asi_layer: cfg must be a BlendConfig, got {kind}$"):
        asi_layer(q, k_s, v_s, k_c, v_c, cfg)



@pytest.mark.parametrize("cfg", [None, {"n": 1}, ExperimentConfig()],
                         ids=["None", "dict", "ExperimentConfig"])
def test_mask_extractors_take_only_a_blend_config(cfg):
    kind = type(cfg).__name__
    with pytest.raises(ConfigError,
                       match=f"^extract_head_mask: cfg must be a BlendConfig, got {kind}$"):
        extract_head_mask(BLOCK, BLOCK, cfg)
    with pytest.raises(ConfigError,
                       match=f"^extract_spatial_mask: cfg must be a BlendConfig, got {kind}$"):
        extract_spatial_mask(BLOCK, cfg)

def synth_layer_inputs(seed=0, heads=4, m=16, d=8, tokens=4):
    rng = Rng(seed)
    q = rng.normals(heads * m * d).reshape(heads, m, d)
    k_s = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    v_s = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    k_c = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    v_c = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    return q, k_s, v_s, k_c, v_c


class TestAsiLayer:
    def test_composition_matches_explicit_steps_bitwise(self):
        q, k_s, v_s, k_c, v_c = synth_layer_inputs(seed=0)
        cfg = BlendConfig(n=2)
        result = asi_layer(q, k_s, v_s, k_c, v_c, cfg)

        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        head = extract_head_mask(f_s, f_c, cfg)
        spatial = extract_spatial_mask(f_c, cfg)
        fused = fuse_masks(head, spatial)
        expected = blend(f_c, f_s, fused, cfg)

        assert np.array_equal(result.f_s, f_s)
        assert np.array_equal(result.f_c, f_c)
        assert np.array_equal(result.head_mask, head)
        assert np.array_equal(result.spatial_mask, spatial)
        assert np.array_equal(result.fused_mask, fused)
        assert np.array_equal(result.f_out, expected)

    def test_degenerate_style_matches_single_track(self):
        q, k_c, v_c, _, _ = synth_layer_inputs(seed=1)
        cfg = BlendConfig(n=2, eps=1e-9)
        result = asi_layer(q, k_c, v_c, k_c, v_c, cfg)
        assert np.array_equal(result.f_s, result.f_c)
        assert np.abs(result.f_out - result.f_c).max() < 1e-6
        for i in range(len(q)):
            single = reference_attention(q[i], k_c[i], v_c[i])
            assert np.abs(result.f_out[i] - single).max() < 1e-6

    def test_fully_masked_off_blending_returns_content(self):
        # constant positive values make every content activation strictly
        # exceed 0.7 times its channel peak, forcing an all-zero spatial mask
        q, k_s, v_s, k_c, _ = synth_layer_inputs(seed=2)
        v_c = np.full(v_s.shape, 7.0)
        result = asi_layer(q, k_s, v_s, k_c, v_c, BlendConfig(n=0))
        assert np.array_equal(result.spatial_mask, np.zeros(result.f_c.shape))
        assert np.array_equal(result.fused_mask, np.zeros(result.f_c.shape))
        assert np.array_equal(result.f_out, result.f_c)

    def test_distances_exposed_per_head(self):
        q, k_s, v_s, k_c, v_c = synth_layer_inputs(seed=3)
        result = asi_layer(q, k_s, v_s, k_c, v_c, BlendConfig(n=1))
        assert result.distances.shape == (len(q),)
        assert (result.distances >= 0.0).all()
        assert result.distances.max() > 0.0

    def test_n_exceeding_heads_raises(self):
        q, k_s, v_s, k_c, v_c = synth_layer_inputs(seed=4, heads=2)
        with pytest.raises(ConfigError):
            asi_layer(q, k_s, v_s, k_c, v_c, BlendConfig(n=3))

    def test_step_axis_equals_one_step_calls_bitwise(self):
        # An (h, steps, m, d) query block against one (h, m, d) call per step.
        _, k_s, v_s, k_c, v_c = synth_layer_inputs(seed=6)
        q = Rng(7).normals(4 * 3 * 16 * 8).reshape(4, 3, 16, 8)
        cfg = BlendConfig(n=2)
        result = asi_layer(q, k_s, v_s, k_c, v_c, cfg)
        for i in range(3):
            alone = asi_layer(np.ascontiguousarray(q[:, i]), k_s, v_s, k_c, v_c, cfg)
            for field in dataclasses.fields(AsiLayerResult):
                got, want = getattr(result, field.name), getattr(alone, field.name)
                assert_same_bits(got[:, i], want)


@st.composite
def edge_layer_inputs(draw):
    """asi_layer operands at the shape edges m=2, d=1, L=1, h in {1, 3}."""
    heads = draw(st.sampled_from([1, 3]))
    m, d, tokens = 2, 1, 1

    def block(rows):
        data = draw(st.lists(bounded, min_size=heads * rows * d, max_size=heads * rows * d))
        return np.array(data).reshape(heads, rows, d)

    return block(m), block(tokens), block(tokens), block(tokens), block(tokens)


class TestAsiLayerShapeEdges:
    @given(operands=edge_layer_inputs(), select_all=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_layer_invariants(self, operands, select_all):
        q = operands[0]
        n = len(q) if select_all else 0
        cfg = BlendConfig(n=n)
        result = asi_layer(*operands, cfg)
        preserved = result.fused_mask == 0.0
        assert np.array_equal(result.f_out[preserved], result.f_c[preserved])
        for i in range(len(q)):
            styled = adain(result.f_c[i], result.f_s[i], cfg.eps)
            blended = ~preserved[i]
            assert np.array_equal(result.f_out[i][blended], styled[blended])
        assert result.head_mask.sum() == n
        if select_all:
            assert result.fused_mask.all()


class TestBlendConfig:
    def test_defaults(self):
        cfg = BlendConfig()
        assert (cfg.n, cfg.alpha, cfg.eps) == (6, 0.7, 1e-5)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n=-1), dict(alpha=0.0), dict(alpha=-1.0), dict(eps=0.0)],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BlendConfig(**kwargs)

    @pytest.mark.parametrize("n", [True, 2.5, 4.0])
    def test_non_integer_n_is_config_error(self, n):
        with pytest.raises(ConfigError, match="^n must be an integer"):
            BlendConfig(n=n)

    @pytest.mark.parametrize("name, value", [("alpha", True), ("alpha", "0.5"), ("eps", None),
                                             ("eps", True)])
    def test_mistyped_float_is_config_error_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
            BlendConfig(**{name: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = BlendConfig(n=np.int64(2), alpha=np.float32(0.5), eps=np.float64(1e-5))
        assert (cfg.n, cfg.alpha, cfg.eps) == (2, 0.5, 1e-5)
        assert (type(cfg.n), type(cfg.alpha), type(cfg.eps)) == (int, float, float)
        assert repr(cfg) == "BlendConfig(n=2, alpha=0.5, eps=1e-05)"

    @pytest.mark.parametrize("name, value", [
        ("n", np.bool_(True)), ("n", np.float64(2.0)), ("alpha", np.bool_(True)),
        ("alpha", np.float32("inf")), ("alpha", np.float32("nan")), ("eps", np.float16(0)),
        ("eps", np.longdouble("1e400")),
    ])
    def test_bad_numpy_scalars_are_config_errors_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            BlendConfig(**{name: value})


# The three benchmark workload shapes (small_sweep, sd_block, mid_bypass), a
# ragged block and the smallest block that has a covariance.
BITWISE_SHAPES = [
    pytest.param(8, 16, 8, id="h8-m16-d8"),
    pytest.param(8, 1024, 40, id="h8-m1024-d40"),
    pytest.param(16, 256, 16, id="h16-m256-d16"),
    pytest.param(3, 17, 5, id="h3-m17-d5"),
    pytest.param(1, 2, 1, id="h1-m2-d1"),
]


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("h, m, d", BITWISE_SHAPES)
class TestBitwiseAgainstEarlierForms:
    """Each rewritten kernel gives the bits of the form it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e8])
    def test_adain_equals_mean_std_formula(self, h, m, d, scale):
        rng = Rng(36)
        f_c = random_feature_map(rng, h, m, d) * scale + 0.5 * scale
        f_s = random_feature_map(rng, h, m, d) * (3.0 * scale) - scale
        cfg = BlendConfig()
        out = blend(f_c, f_s, np.ones(f_c.shape, dtype=bool), cfg)
        assert_same_bits(out, mean_std_adain(f_c, f_s, cfg.eps))

    def _tied_block(self, h, m, d):
        # Positive-peak channels get one entry exactly at the threshold alpha * max.
        f_c = random_feature_map(Rng(37), h, m, d)
        peaks = f_c.max(axis=1)
        for i, c in zip(*np.nonzero(peaks > 0)):
            f_c[i, (f_c[i, :, c].argmax() + 1) % m, c] = 0.5 * peaks[i, c]
        assert (f_c == 0.5 * f_c.max(axis=1, keepdims=True)).any()
        return f_c

    def test_spatial_mask_equals_float_form_with_ties(self, h, m, d):
        f_c = self._tied_block(h, m, d)
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=0.5))
        assert_same_bits(mask, float_spatial_mask(f_c, 0.5) == 1.0)

    def test_spatial_mask_equals_float_form_with_nan(self, h, m, d):
        f_c = self._tied_block(h, m, d)
        f_c.reshape(-1)[::7] = np.nan
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=0.5))
        assert_same_bits(mask, float_spatial_mask(f_c, 0.5) == 1.0)

    def test_fused_mask_equals_float_form(self, h, m, d):
        f_c = self._tied_block(h, m, d)
        head = np.arange(h) % 2 == 1
        fused = fuse_masks(head, extract_spatial_mask(f_c, BlendConfig(alpha=0.5)))
        float_head = head.astype(np.float64)[:, None, None]
        assert_same_bits(fused, np.maximum(float_head, float_spatial_mask(f_c, 0.5)) == 1.0)


def _helper_halves(monkeypatch) -> list:
    """A list of the (lo, hi) head ranges that the helper thread runs from now on."""
    halves = []
    run_half = numeric._run_half

    def recorded(body, lo, hi):
        if threading.current_thread() is not threading.main_thread():
            halves.append((lo, hi))
        run_half(body, lo, hi)

    monkeypatch.setattr(numeric, "_run_half", recorded)
    return halves


class TestSplitKernels:
    """head_distances split by heads has the bits it has whole; the other stages run whole.

    Each kernel runs once as on one CPU and once as on two. Where
    head_distances splits, the helper thread runs the upper half of the
    heads; at head_dim=1 its Gram has one column, and it runs whole. Of the
    public stages, only head_distances splits on its own: the run reaches it
    with blending off. Attention, the blend and the merge split only inside
    the pipeline's layer (asi_layer, or the bypass stack), so called on
    their own they hand nothing to the helper at any size.
    """

    @pytest.mark.parametrize("h, steps, m, d, t, split", [
        pytest.param(8, 8, 16, 8, 4, False, id="small_sweep"),  # one chunk
        pytest.param(8, 1, 1024, 40, 77, True, id="sd_block"),
        pytest.param(16, 1, 256, 16, 16, True, id="mid_bypass"),
        pytest.param(3, 1, 1024, 40, 77, True, id="h3"),
        pytest.param(5, 1, 1024, 40, 77, True, id="h5"),
        pytest.param(7, 1, 1024, 40, 77, True, id="h7"),
        # The Gram of 2**20 multiply-adds has one column at d=1, and stays whole.
        pytest.param(4, 1, 1 << 18, 1, 2, False, id="d1"),
    ])
    def test_split_bits_equal_the_whole_kernels(self, monkeypatch, h, steps, m, d, t, split):
        gen = np.random.default_rng(h * m + d)
        q, f_s, f_c = (gen.standard_normal((h, steps, m, d)) for _ in range(3))
        k, v = gen.standard_normal((h, t, d)), gen.standard_normal((h, t, d))
        mask = gen.random(f_c.shape) < 0.5
        kernels = (lambda: head_distances(f_s, f_c), lambda: siamese_attend(q, k, v, k, v)[0],
                   lambda: blend(f_c, f_s, mask, BlendConfig()))
        for kernel, splits in zip(kernels, (split, False, False)):
            monkeypatch.setattr(numeric, "_CPUS", 1)
            whole = kernel()
            monkeypatch.setattr(numeric, "_CPUS", 2)
            halves = _helper_halves(monkeypatch)
            assert_same_bits(kernel(), whole)
            assert halves == ([(h // 2, h)] if splits else [])

    # The mask stages are one to three passes over their block, short of _MIN_SPLIT at
    # every benchmark size (sd_block's 327,680 entries x 3 passes), so they run whole.
    @pytest.mark.parametrize("h, steps, m, d", [
        pytest.param(8, 8, 16, 8, id="small_sweep"),
        pytest.param(8, 1, 1024, 40, id="sd_block"),
        pytest.param(16, 1, 256, 16, id="mid_bypass"),
        pytest.param(5, 1, 1024, 40, id="h5"),
        pytest.param(4, 1, 1 << 18, 1, id="d1"),
    ])
    def test_split_masks_equal_the_whole_masks(self, monkeypatch, h, steps, m, d):
        gen = np.random.default_rng(h * m + d)
        f_c = gen.standard_normal((h, steps, m, d))
        f_c.reshape(-1)[::97] = np.nan  # a NaN entry blends
        spatial = gen.random(f_c.shape) < 0.5
        head = gen.random((h, steps)) < 0.5
        kernels = (lambda: extract_spatial_mask(f_c, BlendConfig(alpha=0.5)),
                   lambda: fuse_masks(head, spatial))
        for kernel in kernels:
            monkeypatch.setattr(numeric, "_CPUS", 1)
            whole = kernel()
            monkeypatch.setattr(numeric, "_CPUS", 2)
            halves = _helper_halves(monkeypatch)
            assert_same_bits(kernel(), whole)
            assert halves == []
        per_step = [float_spatial_mask(f_c[:, i], 0.5) for i in range(steps)]
        assert_same_bits(extract_spatial_mask(f_c, BlendConfig(alpha=0.5)),
                         np.stack(per_step, axis=1) == 1.0)

    # The merge is one transposing copy and its check, whole at any size: only a run with
    # blending on and two or more layers a step merges, and no benchmark workload does.
    @pytest.mark.parametrize("shape", [
        pytest.param((8, 1, 1024, 40), id="sd_block"),
        pytest.param((16, 1, 256, 16), id="mid_bypass"),
        pytest.param((8, 2, 1024, 40), id="two_steps"),
        pytest.param((8, 5, 341, 40), id="odd_rows"),  # 1,705 rows
    ])
    def test_merge_runs_whole_with_the_bits_of_the_earlier_form(self, monkeypatch, shape):
        block = np.random.default_rng(len(shape)).standard_normal(shape)
        h, d = shape[0], shape[-1]
        monkeypatch.setattr(numeric, "_CPUS", 1)
        whole = merge_heads(block).a
        monkeypatch.setattr(numeric, "_CPUS", 2)
        halves = _helper_halves(monkeypatch)
        assert_same_bits(merge_heads(block).a, whole)
        assert halves == []
        assert_same_bits(whole, np.moveaxis(block, 0, -2).reshape(-1, h * d))  # the earlier form
        assert not whole.flags.writeable and whole.flags.c_contiguous

    @pytest.mark.parametrize("row", [5, 1500])  # in the first step, in the second
    def test_nan_anywhere_in_a_merge_is_the_same_error(self, monkeypatch, row):
        block = np.ones((8, 2, 1024, 40))
        block[3, row // 1024, row % 1024, 7] = np.nan
        monkeypatch.setattr(numeric, "_CPUS", 2)
        with pytest.raises(NonFiniteError, match=r"^Matrix entries must be finite \(no NaN/Inf\)$"):
            merge_heads(block)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.complex128])
    def test_merge_names_a_block_that_is_not_float64(self, dtype):
        block = np.arange(24).reshape(2, 3, 4).astype(dtype)
        with pytest.raises(ShapeError, match=f"^merge_heads: block must be a float64 array, "
                                             f"got {np.dtype(dtype)} array$"):
            merge_heads(block)

    # (h, steps, m, d, t, the layer's hand-offs on two CPUs): its first split hands off
    # from 2**20 multiply-adds (entries x 2 (t_s + t_c + d)), its second with blend's.
    @pytest.mark.parametrize("h, steps, m, d, t, handed", [
        pytest.param(8, 50, 16, 8, 4, 1, id="small_sweep"),  # 51,200 x 32; x 8 stays whole
        pytest.param(16, 1, 256, 16, 16, 2, id="mid_bypass"),
        pytest.param(8, 1, 1024, 40, 77, 2, id="sd_block"),
        pytest.param(5, 1, 1024, 40, 77, 2, id="h5"),
        pytest.param(4, 1, 1 << 16, 1, 2, 0, id="d1"),  # the Gram has one column
        pytest.param(8, 1, 1, 40, 77, 0, id="one_row"),  # no covariance: both raise
    ])
    def test_layer_equals_its_stages_composed(self, monkeypatch, h, steps, m, d, t, handed):
        gen = np.random.default_rng(h * m + d)
        q = gen.standard_normal((h, steps, m, d))
        kv = tuple(gen.standard_normal((4, h, t, d)))
        cfg = BlendConfig(n=2, alpha=0.5)
        for cpus in (1, 2):
            monkeypatch.setattr(numeric, "_CPUS", cpus)
            if m == 1:
                for call in (lambda: asi_layer(q, *kv, cfg),
                             lambda: head_distances(*siamese_attend(q, *kv))):
                    with pytest.raises(DegenerateInputError, match="^covariance needs at least "
                                                                   "2 rows, got 1$"):
                        call()
                continue
            halves = _helper_halves(monkeypatch)
            result = asi_layer(q, *kv, cfg)
            assert halves == [(h // 2, h)] * (handed if cpus == 2 else 0)
            f_s, f_c = siamese_attend(q, *kv)
            distances = head_distances(f_s, f_c)
            head_mask = _select_top_heads(distances, cfg.n)
            spatial = extract_spatial_mask(f_c, cfg)
            fused = fuse_masks(head_mask, spatial)
            stages = AsiLayerResult(blend(f_c, f_s, fused, cfg), f_s, f_c, distances, head_mask,
                                    spatial, fused)
            for field in dataclasses.fields(AsiLayerResult):
                got, want = getattr(result, field.name), getattr(stages, field.name)
                assert_same_bits(got, want)
