import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asi.adablending import (
    BlendConfig,
    BlendMask,
    adain,
    asi_layer,
    blend,
    covariance,
    extract_head_mask,
    extract_spatial_mask,
    fuse_masks,
    head_distance,
    head_distances,
)
from asi.errors import ConfigError, DegenerateInputError, NonFiniteError, ShapeError
from asi.numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows
from asi.sica import AttentionParams, attend, project_kv, project_q, siamese_attend

from oracles import frobenius_sq, reference_attention, two_pass_covariance

bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def feature_blocks(draw, min_rows=2, max_rows=8, min_cols=1, max_cols=5):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    data = draw(st.lists(bounded, min_size=rows * cols, max_size=rows * cols))
    return Matrix(np.array(data).reshape(rows, cols))


def random_block(rng: Rng, rows: int, cols: int, scale=1.0, shift=0.0) -> Matrix:
    return Matrix(randn_matrix(rng, rows, cols).a * scale + shift)


def random_feature_map(rng: Rng, heads: int, m: int, d: int) -> np.ndarray:
    return rng.normals(heads * m * d).reshape(heads, m, d)


class TestCovariance:
    def test_identical_rows_give_zero(self):
        f = Matrix([[2.0, -1.0, 3.0]] * 4)
        assert np.array_equal(covariance(f).a, np.zeros((3, 3)))

    def test_small_example_against_two_pass_oracle(self):
        f = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        cov = covariance(f).a
        assert np.array_equal(cov, [[4.0, 4.0], [4.0, 4.0]])
        assert np.abs(cov - two_pass_covariance(f.a)).max() < 1e-12

    def test_row_permutation_invariance(self):
        rng = Rng(20)
        f = randn_matrix(rng, 6, 3)
        permuted = Matrix(f.a[[5, 3, 1, 4, 0, 2]])
        assert np.abs(covariance(f).a - covariance(permuted).a).max() < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(DegenerateInputError):
            covariance(Matrix([[1.0, 2.0]]))

    @given(feature_blocks())
    @settings(max_examples=60)
    def test_matches_two_pass_oracle(self, f):
        cov = covariance(f).a
        oracle = two_pass_covariance(f.a)
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(cov - oracle).max() / scale < 1e-9

    @given(feature_blocks())
    @settings(max_examples=60)
    def test_symmetric_and_psd(self, f):
        cov = covariance(f).a
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestHeadDistance:
    def test_self_distance_is_exactly_zero(self):
        f = randn_matrix(Rng(21), 7, 4)
        assert head_distance(f, f) == 0.0

    def test_symmetric(self):
        rng = Rng(22)
        a, b = randn_matrix(rng, 6, 3), randn_matrix(rng, 6, 3)
        assert head_distance(a, b) == head_distance(b, a)

    def test_known_value_with_4d2_denominator(self):
        # covariance of the varying block is [[4,4],[4,4]]; the constant block
        # has zero covariance, so the squared Frobenius gap is 4*16 = 64 and
        # the normalizer is 4 * 2**2 = 16.
        varying = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        constant = Matrix([[7.0, 9.0]] * 3)
        ell = head_distance(varying, constant)
        assert ell == frobenius_sq(covariance(varying).a) / 16.0
        assert ell == 4.0

    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_quartic_homogeneity(self, c):
        rng = Rng(23)
        a, b = randn_matrix(rng, 8, 3), randn_matrix(rng, 8, 3)
        base = head_distance(a, b)
        scaled = head_distance(Matrix(c * a.a), Matrix(c * b.a))
        assert abs(scaled - c**4 * base) < 1e-9 * max(1.0, abs(scaled))

    def test_translation_invariance(self):
        rng = Rng(24)
        a, b = randn_matrix(rng, 8, 3), randn_matrix(rng, 8, 3)
        offset = np.array([[10.0, -4.0, 2.5]])
        base = head_distance(a, b)
        assert abs(head_distance(Matrix(a.a + offset), b) - base) < 1e-9
        assert abs(head_distance(a, Matrix(b.a + offset)) - base) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            head_distance(Matrix(np.zeros((3, 2))), Matrix(np.zeros((3, 3))))

    def test_overflow_is_an_error_not_inf(self):
        # Finite blocks whose covariance gap squares past float64 range.
        big, unit = np.array([[1e80], [-1e80]]), np.array([[1.0], [-1.0]])
        with pytest.raises(NonFiniteError, match="finite"):
            head_distance(Matrix(big), Matrix(unit))
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

    def test_top_n_matches_sort_oracle(self):
        f_s, f_c = self.build_maps_with_distances([1.3, 1.05, 2.0, 0.5])
        ell = head_distances(f_s, f_c)
        mask = extract_head_mask(f_s, f_c, BlendConfig(n=2))
        expected = set(sorted(range(4), key=lambda i: (-ell[i], i))[:2])
        assert set(np.flatnonzero(mask)) == expected
        assert mask.sum() == 2

    def test_boundaries(self):
        f_s, f_c = self.build_maps_with_distances([1.5, 2.0, 0.4])
        assert extract_head_mask(f_s, f_c, BlendConfig(n=3)).tolist() == [True] * 3
        assert extract_head_mask(f_s, f_c, BlendConfig(n=0)).tolist() == [False] * 3

    def test_ties_break_toward_lower_index(self):
        # heads 0 and 1 are exact copies, so their distances tie bitwise
        rng = Rng(26)
        a, b = randn_matrix(rng, 8, 2), randn_matrix(rng, 8, 2)
        f_s = np.stack([a.a, a.a, b.a * 0.01])
        f_c = np.stack([b.a, b.a, b.a * 0.0101])
        ell = head_distances(f_s, f_c)
        assert ell[0] == ell[1] and ell[2] < ell[0]
        mask = extract_head_mask(f_s, f_c, BlendConfig(n=1))
        assert mask.tolist() == [True, False, False]

    def test_n_larger_than_heads_is_config_error(self):
        f_s, f_c = self.build_maps_with_distances([1.0, 2.0])
        with pytest.raises(ConfigError):
            extract_head_mask(f_s, f_c, BlendConfig(n=3))

    def test_selection_invariant_under_common_scaling(self):
        f_s, f_c = self.build_maps_with_distances([1.3, 0.2, 3.0, 1.01])
        mask = extract_head_mask(f_s, f_c, BlendConfig(n=2))
        scaled = extract_head_mask(2.5 * f_s, 2.5 * f_c, BlendConfig(n=2))
        assert np.array_equal(mask, scaled)

    def test_dense_materialization(self):
        mask = np.array([True, False])
        dense = fuse_masks(mask, BlendMask(np.zeros((2, 3, 2)))).data
        assert dense.shape == (2, 3, 2)
        assert np.array_equal(dense[0], np.ones((3, 2)))
        assert np.array_equal(dense[1], np.zeros((3, 2)))


class TestSpatialMaskExtraction:
    def test_constructed_channels(self):
        # channel 0 thresholds at 0.7: only strict exceeders drop out;
        # channel 1 is constant positive: everything strictly exceeds 0.7 * 2;
        # channel 2 has a negative peak: threshold 0.7 * -1 lies above the max.
        f_c = np.array([[[1.0, 2.0, -1.0], [0.5, 2.0, -2.0], [0.8, 2.0, -3.0]]])
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=0.7))
        assert np.array_equal(mask.data[0, :, 0], [0.0, 1.0, 0.0])
        assert np.array_equal(mask.data[0, :, 1], [0.0, 0.0, 0.0])
        assert np.array_equal(mask.data[0, :, 2], [1.0, 1.0, 1.0])

    def test_alpha_one_keeps_argmax(self):
        f_c = np.array([[[1.0], [0.25], [0.99]]])
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=1.0))
        # nothing is strictly greater than the max itself
        assert np.array_equal(mask.data[0, :, 0], [1.0, 1.0, 1.0])

    def test_argmax_zeroed_for_positive_peak(self):
        rng = Rng(27)
        f_c = np.abs(rng.normals(2 * 6 * 3)).reshape(2, 6, 3) + 0.05
        mask = extract_spatial_mask(f_c, BlendConfig(alpha=0.7))
        for i in range(2):
            for c in range(3):
                assert mask.data[i, f_c[i, :, c].argmax(), c] == 0.0

    def test_zeros_shrink_as_alpha_grows_on_positive_features(self):
        rng = Rng(28)
        f_c = np.abs(rng.normals(3 * 10 * 4)).reshape(3, 10, 4) + 0.01
        zero_counts = []
        for alpha in (0.3, 0.5, 0.7, 0.9, 1.1):
            mask = extract_spatial_mask(f_c, BlendConfig(alpha=alpha))
            zero_counts.append(int((mask.data == 0.0).sum()))
        assert zero_counts == sorted(zero_counts, reverse=True)


class TestMaskFusion:
    def test_selected_head_absorbs_spatial(self):
        spatial = BlendMask(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        fused = fuse_masks(np.array([True]), spatial)
        assert np.array_equal(fused.data, np.ones((1, 2, 2)))

    def test_unselected_head_passes_spatial_through(self):
        spatial = BlendMask(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        fused = fuse_masks(np.array([False]), spatial)
        assert np.array_equal(fused.data, spatial.data)

    def test_matches_boolean_oracle(self):
        rng = Rng(29)
        head = rng.uniforms(4) < 0.5
        spatial = BlendMask((rng.uniforms(4 * 5 * 3) < 0.5).astype(float).reshape(4, 5, 3))
        fused = fuse_masks(head, spatial)
        for i in range(4):
            for p in range(5):
                for c in range(3):
                    expected = 1.0 if (head[i] or spatial.data[i, p, c] == 1.0) else 0.0
                    assert fused.data[i, p, c] == expected

    def test_head_count_mismatch(self):
        spatial = BlendMask(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            fuse_masks(np.array([True]), spatial)

    def test_masks_must_be_binary(self):
        with pytest.raises(ValueError):
            BlendMask(np.full((1, 2, 2), 0.5))
        with pytest.raises(ValueError):
            BlendMask(np.full((1, 2, 2), 2.0))


class TestAdain:
    def test_known_channel_transfer(self):
        # content channel [0, 2]: mean 1, population std 1
        # style channel [10, 14]: mean 12, population std 2
        out = adain(Matrix([[0.0], [2.0]]), Matrix([[10.0], [14.0]]), eps=1e-12)
        assert np.abs(out.a - [[10.0], [14.0]]).max() < 1e-9

    def test_constant_content_channel_maps_to_style_mean(self):
        out = adain(Matrix([[5.0], [5.0]]), Matrix([[10.0], [14.0]]), eps=1e-5)
        assert np.array_equal(out.a, [[12.0], [12.0]])

    def test_self_normalization_identity_scales_with_eps(self):
        f = randn_matrix(Rng(30), 12, 5)
        tiny = np.abs(adain(f, f, eps=1e-9).a - f.a).max()
        assert tiny < 1e-6
        # at the default eps the deviation is of order eps, not below 1e-6
        default = np.abs(adain(f, f, eps=1e-5).a - f.a).max()
        assert default < 1e-3

    def test_moment_transfer_over_seeded_cases(self):
        rng = Rng(31)
        checked = 0
        for _ in range(100):
            f_c = random_block(rng, 16, 4, scale=float(1.0 + rng.uniform()))
            f_s = random_block(rng, 16, 4, scale=float(0.5 + 2.0 * rng.uniform()), shift=1.0)
            if f_c.a.std(axis=0).min() <= 1e-3:
                continue
            out = adain(f_c, f_s, eps=1e-5).a
            assert np.abs(out.mean(axis=0) - f_s.a.mean(axis=0)).max() < 1e-6
            assert np.abs(out.std(axis=0) - f_s.a.std(axis=0)).max() < 1e-4
            checked += 1
        assert checked >= 95

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adain(Matrix(np.zeros((3, 2))), Matrix(np.zeros((2, 2))), eps=1e-5)


class TestBlend:
    def _setup(self, seed=32, heads=3, m=6, d=4):
        rng = Rng(seed)
        f_c = random_feature_map(rng, heads, m, d)
        f_s = random_feature_map(rng, heads, m, d)
        return f_c, f_s

    def test_zero_mask_preserves_content_bitwise(self):
        f_c, f_s = self._setup()
        mask = BlendMask(np.zeros(f_c.shape))
        out = blend(f_c, f_s, mask, BlendConfig())
        assert np.array_equal(out, f_c)

    def test_ones_mask_is_pure_adain(self):
        f_c, f_s = self._setup()
        cfg = BlendConfig()
        mask = BlendMask(np.ones(f_c.shape))
        out = blend(f_c, f_s, mask, cfg)
        for i in range(len(f_c)):
            assert np.array_equal(out[i], adain(Matrix(f_c[i]), Matrix(f_s[i]), cfg.eps).a)

    def test_every_output_value_comes_from_one_side(self):
        f_c, f_s = self._setup(seed=33)
        cfg = BlendConfig(n=1)
        head = extract_head_mask(f_s, f_c, cfg)
        fused = fuse_masks(head, extract_spatial_mask(f_c, cfg))
        out = blend(f_c, f_s, fused, cfg)
        for i in range(len(f_c)):
            styled = adain(Matrix(f_c[i]), Matrix(f_s[i]), cfg.eps).a
            from_content = out[i] == f_c[i]
            from_style = out[i] == styled
            assert (from_content | from_style).all()
            # and the mask decides which
            assert np.array_equal(np.where(fused.data[i] == 1.0, styled, f_c[i]), out[i])

    def test_style_equals_content_is_noop(self):
        f_c, _ = self._setup(seed=34)
        cfg = BlendConfig(eps=1e-9)
        mask = BlendMask((Rng(1).uniforms(f_c.size) < 0.5).astype(float).reshape(f_c.shape))
        out = blend(f_c, f_c, mask, cfg)
        assert np.abs(out - f_c).max() < 1e-6

    def test_mask_shape_mismatch(self):
        f_c, f_s = self._setup()
        with pytest.raises(ShapeError):
            blend(f_c, f_s, BlendMask(np.zeros((1, 2, 2))), BlendConfig())


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
        assert np.array_equal(attend(q, k_s, v_s), f_s)
        assert np.array_equal(attend(q, k_c, v_c), f_c)
        distances = head_distances(f_s, f_c)
        cfg = BlendConfig()
        out = blend(f_c, f_s, BlendMask(np.ones(f_c.shape)), cfg)
        scale = 1.0 / math.sqrt(d)
        for i in range(h):
            for f, k, v in ((f_s, k_s, v_s), (f_c, k_c, v_c)):
                weights = softmax_rows(matmul(Matrix(q[i]), Matrix(k[i].T)).a * scale)
                assert np.array_equal(f[i], matmul(Matrix(weights), Matrix(v[i])).a)
            assert distances[i] == head_distance(Matrix(f_s[i]), Matrix(f_c[i]))
            assert np.array_equal(out[i], adain(Matrix(f_c[i]), Matrix(f_s[i]), cfg.eps).a)


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
        blocks = {
            "project_q": q,
            "project_kv k": k_s,
            "project_kv v": v_s,
            "attend": attend(q, k_c, v_c),
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
        assert np.array_equal(result.spatial_mask.data, spatial.data)
        assert np.array_equal(result.fused_mask.data, fused.data)
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
        assert np.array_equal(result.spatial_mask.data, np.zeros(result.f_c.shape))
        assert np.array_equal(result.fused_mask.data, np.zeros(result.f_c.shape))
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
        preserved = result.fused_mask.data == 0.0
        assert np.array_equal(result.f_out[preserved], result.f_c[preserved])
        for i in range(len(q)):
            styled = adain(Matrix(result.f_c[i]), Matrix(result.f_s[i]), cfg.eps).a
            blended = ~preserved[i]
            assert np.array_equal(result.f_out[i][blended], styled[blended])
        assert result.head_mask.sum() == n
        if select_all:
            assert result.fused_mask.blended_fraction == 1.0


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
