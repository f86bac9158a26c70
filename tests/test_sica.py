import numpy as np
import pytest

from asi import numeric, sica
from asi.errors import ShapeError
from asi.numeric import Matrix, Rng, randn_matrix
from asi.sica import (
    AttentionParams,
    merge_heads,
    project_kv,
    project_q,
    siamese_attend,
)

from oracles import k_ordered_contract, project_and_split, reference_attention


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



class TestQueryLayout:
    """project_q makes Q^T = W_q^T X^T, the (h, d, m) block attention reads, by heads.

    Each entry is the sum of W_q[k, j] X[i, k] in k order, bit for bit as
    the row product X W_q split into heads, whether or not the heads split
    over two threads. With one row the product would have one column, whose
    order einsum does not pin, so that row is projected as X W_q.
    """

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("heads, head_dim, rows", [
        (8, 8, 800),  # small_sweep: the default run's 50-step block
        (8, 40, 1024),  # sd_block
        (16, 16, 256),  # mid_bypass
        (1, 8, 129),  # one head
        (3, 1, 17),  # head_dim=1
        (5, 7, 183),  # ragged
        (2, 3, 1),  # one row
    ])
    def test_bits_of_the_k_ordered_row_product_split_into_heads(self, monkeypatch, cpus,
                                                                 heads, head_dim, rows):
        monkeypatch.setattr(numeric, "_CPUS", cpus)
        gen = np.random.default_rng(heads * head_dim + rows)
        md = heads * head_dim
        # Magnitudes over 16 orders, so that another summation order shows in the bits.
        spatial = Matrix(gen.standard_normal((rows, md)) * 10.0 ** gen.uniform(-8, 8, (rows, md)))
        params = AttentionParams(*(Matrix(gen.standard_normal((md, md))) for _ in range(3)),
                                 heads=heads, head_dim=head_dim)
        q = project_q(spatial, params)
        split = lambda flat: flat.reshape(rows, heads, head_dim).transpose(1, 0, 2)
        oracle = np.ascontiguousarray(split(k_ordered_contract(spatial.a, params.w_q.a)))
        parent = np.ascontiguousarray(split(numeric.matmul(spatial, params.w_q).a))
        assert q.shape == (heads, rows, head_dim) and q.dtype == np.float64
        assert np.ascontiguousarray(q).tobytes() == oracle.tobytes() == parent.tobytes()
        assert not q.flags.writeable and q.base is not None  # a read-only view
        assert q.transpose(0, 2, 1).flags.c_contiguous  # of the C-ordered Q^T

    def test_the_transposed_weight_is_made_once_per_params(self):
        params = random_params(Rng(9), 2, 3)
        spatial = randn_matrix(Rng(10), 4, 6)
        project_q(spatial, params)
        wt = params._w_qt
        project_q(spatial, params)
        assert params._w_qt is wt and not wt.flags.writeable
        assert wt.flags.c_contiguous and np.array_equal(wt, params.w_q.a.T)

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
    def test_siamese_attend_equals_one_call_per_step_bitwise(self):
        q, per_step, k, v = stacked_step_queries(14)
        k_c, v_c = k[:, :3] * 2.0, v[:, :3].copy()  # a content track of its own, fewer tokens
        f_s, f_c = siamese_attend(q, k, v, k_c, v_c)
        for out in (f_s, f_c):
            assert out.shape == q.shape and out.flags.c_contiguous and not out.flags.writeable
        for i, q_i in enumerate(per_step):
            assert q[:, i].tobytes() == q_i.tobytes()
            g_s, g_c = siamese_attend(q_i, k, v, k_c, v_c)
            assert f_s[:, i].tobytes() == g_s.tobytes()
            assert f_c[:, i].tobytes() == g_c.tobytes()

    def test_merge_heads_stacks_the_steps_row_wise(self):
        q, per_step, k, v = stacked_step_queries(15)
        out = siamese_attend(q, k, v, k, v)[0]
        expected = np.concatenate([merge_heads(siamese_attend(q_i, k, v, k, v)[0]).a
                                   for q_i in per_step])
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
            siamese_attend(q, k_s, v_s, k_c, bad)

    def test_kv_token_mismatch_raises(self):
        q, k_s, v_s, k_c, v_c = random_tracks(7)
        with pytest.raises(ShapeError):
            siamese_attend(q, k_s, v_s[:, :1, :], k_c, v_c)
        with pytest.raises(ShapeError):
            siamese_attend(q, k_s, v_s, k_c[:, :1, :], v_c)

    def test_head_dim_mismatch_raises(self):
        q, k_s, v_s, k_c, v_c = random_tracks(8)
        wide = np.zeros((2, 2, 3))
        with pytest.raises(ShapeError):
            siamese_attend(q, k_s, v_s, wide, wide)
        with pytest.raises(ShapeError):
            siamese_attend(q, wide, wide, k_c, v_c)


class TestAttentionOperands:
    @pytest.mark.parametrize("arg", ["q", "k_s", "v_s", "k_c", "v_c"])
    @pytest.mark.parametrize("bad, kind", [
        ([[[0.0, 1.0]]], "list"),
        (None, "NoneType"),
        (3, "int"),
        (np.ones((2, 2, 2), dtype=np.int64), "int64 array"),
        (np.ones((2, 2, 2), dtype=complex), "complex128 array"),
    ])
    def test_non_float64_operand_is_shape_error_naming_it(self, arg, bad, kind):
        q, k_s, v_s, k_c, v_c = random_tracks(9)
        operands = {"q": q, "k_s": k_s, "v_s": v_s, "k_c": k_c, "v_c": v_c, arg: bad}
        with pytest.raises(ShapeError, match=f"^siamese_attend: {arg} must be a float64 array, "
                                             f"got {kind}$"):
            siamese_attend(**operands)


class TestHeadDimOne:
    """At head_dim=1 with two or more query rows, both products of attention are k-ordered.

    Neither has its reduced axis innermost in both operands: K Q^T reduces
    over d, innermost in K but not in the contiguous Q^T, and V^T P over t,
    innermost in V^T but not in P. With a single query row both have it
    innermost in both, and that order is not pinned; the pipeline's blocks
    hold two or more rows, as positions >= 2.
    """

    @pytest.mark.parametrize("heads, rows, tokens", [
        (1, 2, 77), (3, 17, 7), (3, 17, 77), (8, 1024, 77),
    ])
    def test_every_product_equals_the_k_ordered_oracle(self, monkeypatch, heads, rows, tokens):
        contract, checked = numeric._contract, []

        def k_ordered(a, b, out=None):
            result = contract(a, b, out)
            assert result.tobytes() == k_ordered_contract(a, b).tobytes(), (a.shape, b.shape)
            checked.append((a.shape, b.shape))
            return result

        monkeypatch.setattr(sica, "_contract", k_ordered)
        rng = Rng(heads * rows + tokens)
        q = random_feature_map(rng, heads, rows, 1)
        k, v = (random_feature_map(rng, heads, tokens, 1) for _ in range(2))
        f_s, f_c = siamese_attend(q, k, v, k, v)
        assert checked == [((heads, tokens, 1), (heads, 1, rows)),  # logits as K Q^T
                           ((heads, 1, tokens), (heads, tokens, rows))] * 2  # output as V^T P
        assert f_s.tobytes() == f_c.tobytes()
        assert f_s.shape == q.shape and f_s.flags.c_contiguous and not f_s.flags.writeable
