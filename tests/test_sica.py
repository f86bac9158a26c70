import numpy as np
import pytest

from asi.errors import ShapeError
from asi.numeric import Matrix, Rng, randn_matrix
from asi.sica import (
    AttentionParams,
    attend,
    merge_heads,
    project_kv,
    project_q,
    siamese_attend,
)

from oracles import project_and_split, reference_attention


def identity_params(heads: int, head_dim: int) -> AttentionParams:
    eye = Matrix(np.eye(heads * head_dim))
    return AttentionParams(w_q=eye, w_k=eye, w_v=eye, heads=heads, head_dim=head_dim)


def random_params(rng: Rng, heads: int, head_dim: int) -> AttentionParams:
    md = heads * head_dim
    return AttentionParams(
        w_q=randn_matrix(rng, md, md),
        w_k=randn_matrix(rng, md, md),
        w_v=randn_matrix(rng, md, md),
        heads=heads,
        head_dim=head_dim,
    )


def random_feature_map(rng: Rng, heads: int, positions: int, head_dim: int) -> np.ndarray:
    return rng.normals(heads * positions * head_dim).reshape(heads, positions, head_dim)


class TestAttentionParams:
    def test_rejects_mismatched_projection(self):
        eye = Matrix(np.eye(4))
        with pytest.raises(ShapeError, match="w_k"):
            AttentionParams(w_q=eye, w_k=Matrix(np.eye(3)), w_v=eye, heads=2, head_dim=2)

    def test_model_dim(self):
        assert identity_params(2, 3).model_dim == 6

    @pytest.mark.parametrize("heads, head_dim", [(True, 2), (2.0, 1), (1, "2"), (2, 1.0)])
    def test_non_integer_dimensions_are_shape_errors_naming_the_value(self, heads, head_dim):
        eye = Matrix(np.eye(2))
        with pytest.raises(ShapeError, match=f"got {heads!r}, {head_dim!r}"):
            AttentionParams(w_q=eye, w_k=eye, w_v=eye, heads=heads, head_dim=head_dim)

    def test_numpy_integer_dimensions_are_fine(self):
        eye = Matrix(np.eye(2))
        params = AttentionParams(w_q=eye, w_k=eye, w_v=eye, heads=np.int64(2), head_dim=np.int32(1))
        assert params.model_dim == 2


class TestProjections:
    def test_identity_projection_single_head(self):
        spatial = randn_matrix(Rng(3), 4, 3)
        q = project_q(spatial, identity_params(1, 3))
        assert np.array_equal(q[0], spatial.a)

    def test_identity_projection_splits_heads(self):
        q = project_q(Matrix([[1.0, 2.0, 3.0, 4.0]]), identity_params(2, 2))
        assert np.array_equal(q[0], [[1.0, 2.0]])
        assert np.array_equal(q[1], [[3.0, 4.0]])

    def test_merge_heads_inverts_split(self):
        rng = Rng(1)
        flat = randn_matrix(rng, 5, 12)
        q = project_q(flat, identity_params(3, 4))
        assert np.array_equal(merge_heads(q).a, flat.a)

    def test_projection_matches_loop_oracle(self):
        rng = Rng(4)
        params = random_params(rng, 2, 2)
        spatial = randn_matrix(rng, 3, 4)
        q = project_q(spatial, params)
        expected = project_and_split(spatial.a, params.w_q.a, heads=2)
        assert np.abs(q - expected).max() < 1e-12

    def test_kv_identity(self):
        prompt = randn_matrix(Rng(5), 3, 4)
        k, v = project_kv(prompt, identity_params(1, 4))
        assert np.array_equal(k[0], prompt.a)
        assert np.array_equal(v[0], prompt.a)

    def test_equal_prompts_give_equal_kv(self):
        rng = Rng(6)
        params = random_params(rng, 2, 3)
        prompt = randn_matrix(rng, 4, 6)
        k1, v1 = project_kv(prompt, params)
        k2, v2 = project_kv(Matrix(prompt.a.copy()), params)
        assert np.array_equal(k1, k2)
        assert np.array_equal(v1, v2)

    def test_kv_matches_loop_oracle(self):
        rng = Rng(7)
        params = random_params(rng, 2, 3)
        prompt = randn_matrix(rng, 5, 6)
        k, v = project_kv(prompt, params)
        assert np.abs(k - project_and_split(prompt.a, params.w_k.a, 2)).max() < 1e-12
        assert np.abs(v - project_and_split(prompt.a, params.w_v.a, 2)).max() < 1e-12

    def test_wrong_channel_count_raises(self):
        with pytest.raises(ShapeError):
            project_q(Matrix(np.zeros((2, 5))), identity_params(2, 2))
        with pytest.raises(ShapeError):
            project_kv(Matrix(np.zeros((2, 5))), identity_params(2, 2))


def random_tracks(seed, heads=2, m=3, d=2, tokens_style=2, tokens_content=4):
    rng = Rng(seed)
    q = random_feature_map(rng, heads, m, d)
    k_s = random_feature_map(rng, heads, tokens_style, d)
    v_s = random_feature_map(rng, heads, tokens_style, d)
    k_c = random_feature_map(rng, heads, tokens_content, d)
    v_c = random_feature_map(rng, heads, tokens_content, d)
    return q, k_s, v_s, k_c, v_c


def stacked_step_queries(seed, heads=3, d=2, m=5, steps=4):
    # Queries of `steps` latents projected together and viewed as (h, steps, m, d),
    # with each latent's own projection and keys and values for every head.
    rng = Rng(seed)
    params = random_params(rng, heads, d)
    latents = [randn_matrix(rng, m, heads * d) for _ in range(steps)]
    stacked = Matrix(np.concatenate([z.a for z in latents]))
    q = project_q(stacked, params).reshape(heads, steps, m, d)
    k, v = project_kv(randn_matrix(rng, 7, heads * d), params)
    return q, [project_q(z, params) for z in latents], k, v


class TestStepAxis:
    def test_attend_equals_one_call_per_step_bitwise(self):
        q, per_step, k, v = stacked_step_queries(14)
        out = attend(q, k, v)
        assert out.shape == q.shape and out.flags.c_contiguous and not out.flags.writeable
        for i, q_i in enumerate(per_step):
            assert q[:, i].tobytes() == q_i.tobytes()
            assert out[:, i].tobytes() == attend(q_i, k, v).tobytes()

    def test_merge_heads_stacks_the_steps_row_wise(self):
        q, per_step, k, v = stacked_step_queries(15)
        out = attend(q, k, v)
        expected = np.concatenate([merge_heads(attend(q_i, k, v)).a for q_i in per_step])
        assert merge_heads(out).a.tobytes() == expected.tobytes()


class TestSiameseAttend:
    def test_identical_kv_collapses_tracks(self):
        q, k_s, v_s, _, _ = random_tracks(0)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_s, v_s)
        assert np.array_equal(f_s, f_c)

    def test_zero_queries_average_values(self):
        _, k_s, v_s, k_c, v_c = random_tracks(1)
        q = np.zeros((2, 3, 2))
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        for i in range(2):
            assert np.abs(f_s[i] - v_s[i].mean(axis=0)).max() < 1e-12
            assert np.abs(f_c[i] - v_c[i].mean(axis=0)).max() < 1e-12

    def test_matches_reference_single_track_per_branch(self):
        q, k_s, v_s, k_c, v_c = random_tracks(0)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        for i in range(len(q)):
            assert np.abs(f_s[i] - reference_attention(q[i], k_s[i], v_s[i])).max() < 1e-12
            assert np.abs(f_c[i] - reference_attention(q[i], k_c[i], v_c[i])).max() < 1e-12

    def test_ragged_token_counts_are_fine(self):
        q, k_s, v_s, k_c, v_c = random_tracks(2, tokens_style=1, tokens_content=5)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        assert f_s.shape == f_c.shape == (2, 3, 2)
        # a single style token gets weight 1: output rows equal the value row
        for i in range(2):
            assert np.abs(f_s[i] - v_s[i][0]).max() < 1e-12

    def test_token_permutation_invariance(self):
        q, k_s, v_s, k_c, v_c = random_tracks(4, tokens_style=5)
        perm = [4, 2, 0, 3, 1]
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        g_s, g_c = siamese_attend(q, k_s[:, perm, :], v_s[:, perm, :], k_c, v_c)
        assert np.abs(g_s - f_s).max() < 1e-12
        assert np.array_equal(g_c, f_c)

    def test_swapping_pairs_swaps_outputs(self):
        q, k_s, v_s, k_c, v_c = random_tracks(5)
        f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
        g_s, g_c = siamese_attend(q, k_c, v_c, k_s, v_s)
        assert np.array_equal(g_s, f_c)
        assert np.array_equal(g_c, f_s)

    def test_head_count_mismatch_raises(self):
        q, k_s, v_s, k_c, v_c = random_tracks(6)
        bad = np.zeros((3, 2, 2))
        with pytest.raises(ShapeError):
            siamese_attend(q, bad, v_s, k_c, v_c)
        with pytest.raises(ShapeError):
            attend(q, bad, v_s)

    def test_kv_token_mismatch_raises(self):
        q, k_s, v_s, k_c, v_c = random_tracks(7)
        with pytest.raises(ShapeError):
            siamese_attend(q, k_s, v_s[:, :1, :], k_c, v_c)
        with pytest.raises(ShapeError):
            attend(q, k_s, v_s[:, :1, :])

    def test_head_dim_mismatch_raises(self):
        q, k_s, v_s, k_c, v_c = random_tracks(8)
        wide = np.zeros((2, 2, 3))
        with pytest.raises(ShapeError):
            siamese_attend(q, k_s, v_s, wide, wide)
        with pytest.raises(ShapeError):
            attend(q, wide, wide)
