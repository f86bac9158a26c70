import csv
import threading

import numpy as np
import pytest

from asi import numeric
from asi.ddim import (
    LatentState,
    NoiseSchedule,
    ddim_generate,
    ddim_invert,
    ddim_step,
    forward_noise,
    make_schedule,
)
from asi.errors import ConfigError, NonFiniteError, ScheduleError, ShapeError, TimestepError
from asi.harness import dump_trajectory
from asi.numeric import Matrix, Rng, randn_matrix
from asi.tensorio import load_tensor

from oracles import fresh_ddim_step

mpmath = pytest.importorskip("mpmath")


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        assert np.array_equal(sched.beta, [0.5])
        assert sched.bar(1) == 0.5
        assert sched.bar(0) == 1.0

    def test_two_step_cumulative_product(self):
        sched = make_schedule(2, 0.1, 0.2)
        assert np.allclose(sched.beta, [0.1, 0.2])
        assert abs(sched.bar(1) - 0.9) < 1e-15
        assert abs(sched.bar(2) - 0.72) < 1e-15

    def test_alpha_bar_strictly_decreasing(self):
        sched = make_schedule(50)
        assert (np.diff(sched.alpha_bar) < 0).all()
        assert sched.alpha_bar[0] == 1.0

    @pytest.mark.parametrize(
        "args",
        [(0, 0.1, 0.2), (5, 0.0, 0.2), (5, 0.3, 0.2), (5, 0.1, 1.0), (2.5, 0.1, 0.2),
         (True, 0.1, 0.2), ("5", 0.1, 0.2), (5, "a", 0.2), (5, None, 0.2), (5, 0.1, "a"),
         (5, 0.1, None)],
    )
    def test_invalid_ranges(self, args):
        with pytest.raises(ConfigError):
            make_schedule(*args)

    def test_bar_range_checked(self):
        sched = make_schedule(5)
        with pytest.raises(TimestepError):
            sched.bar(6)
        with pytest.raises(TimestepError):
            sched.bar(-1)

    @pytest.mark.parametrize("t", [2.5, True])
    def test_bar_rejects_a_non_integer_timestep_by_name(self, t):
        with pytest.raises(TimestepError, match=f"timestep must be an integer, got {t!r}"):
            make_schedule(5).bar(t)

    def test_bar_takes_numpy_integers(self):
        sched = make_schedule(5)
        assert sched.bar(np.int64(2)) == sched.bar(2)


class TestForwardNoise:
    def test_t_zero_is_identity(self):
        rng = Rng(40)
        x0, eps = randn_matrix(rng, 3, 4), randn_matrix(rng, 3, 4)
        out = forward_noise(x0, 0, eps, make_schedule(10))
        assert np.array_equal(out.a, x0.a)

    def test_scalar_closed_form(self):
        # alpha_bar = 0.25 after two steps of beta = 0.5
        sched = make_schedule(2, 0.5, 0.5)
        assert sched.bar(2) == 0.25
        out = forward_noise(Matrix([[1.0]]), 2, Matrix([[2.0]]), sched)
        expected = mpmath.sqrt("0.25") * 1 + mpmath.sqrt(1 - mpmath.mpf("0.25")) * 2
        assert abs(out.a[0, 0] - float(expected)) < 1e-15
        assert abs(out.a[0, 0] - 2.232050) < 1e-5

    def test_zero_noise_shrinks_deterministically(self):
        rng = Rng(41)
        x0 = randn_matrix(rng, 2, 2)
        sched = make_schedule(4)
        out = forward_noise(x0, 3, Matrix(np.zeros((2, 2))), sched)
        assert np.array_equal(out.a, np.sqrt(sched.bar(3)) * x0.a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_noise(Matrix(np.zeros((2, 2))), 1, Matrix(np.zeros((3, 2))), make_schedule(2))

    def test_variance_preservation(self):
        rng = Rng(42)
        n = 10_000
        x0 = Matrix(rng.normals(n).reshape(n, 1))
        eps = Matrix(rng.normals(n).reshape(n, 1))
        sched = make_schedule(10, 0.05, 0.3)
        for t in (1, 5, 10):
            ab = sched.bar(t)
            x_t = forward_noise(x0, t, eps, sched)
            expected = ab * x0.a.var() + (1.0 - ab)
            assert abs(x_t.a.var() - expected) / expected < 0.05


class TestCleanEstimate:
    """A step down to t_prev=0, where alpha_bar is 1, is the clean estimate."""

    def test_inverts_forward_noise_at_every_t(self):
        rng = Rng(43)
        x0, eps = randn_matrix(rng, 4, 5), randn_matrix(rng, 4, 5)
        sched = make_schedule(20)
        for t in range(1, 21):
            x_t = forward_noise(x0, t, eps, sched)
            assert np.abs(ddim_step(x_t, eps, t, 0, sched).a - x0.a).max() < 1e-10

    def test_zero_eps_prediction(self):
        sched = make_schedule(3)
        x_t = Matrix([[2.0, -1.0]])
        out = ddim_step(x_t, Matrix(np.zeros((1, 2))), 2, 0, sched)
        assert np.array_equal(out.a, x_t.a / np.sqrt(sched.bar(2)))

    def test_scalar_case(self):
        # alpha_bar = 0.64 -> sqrt terms 0.8 and 0.6
        sched = make_schedule(1, 0.36, 0.36)
        out = ddim_step(Matrix([[2.0]]), Matrix([[0.5]]), 1, 0, sched)
        assert abs(out.a[0, 0] - 2.125) < 1e-12


class TestDdimStep:
    def test_true_noise_lands_on_forward_trajectory(self):
        rng = Rng(44)
        x0, eps = randn_matrix(rng, 3, 3), randn_matrix(rng, 3, 3)
        sched = make_schedule(30)
        for t in range(2, 31, 7):
            x_t = forward_noise(x0, t, eps, sched)
            stepped = ddim_step(x_t, eps, t, t - 1, sched)
            target = forward_noise(x0, t - 1, eps, sched)
            assert np.abs(stepped.a - target.a).max() < 1e-10

    def test_terminal_step_returns_clean_estimate(self):
        rng = Rng(45)
        x0, eps = randn_matrix(rng, 2, 4), randn_matrix(rng, 2, 4)
        sched = make_schedule(5)
        x_t = forward_noise(x0, 5, eps, sched)
        out = ddim_step(x_t, eps, 5, 0, sched)
        ab = sched.bar(5)
        assert np.array_equal(out.a, (x_t.a - np.sqrt(1.0 - ab) * eps.a) / np.sqrt(ab))

    def test_scalar_case_matches_high_precision(self):
        sched = make_schedule(2, 0.19, 0.19)
        x_t, eps = Matrix([[1.5]]), Matrix([[-0.25]])
        out = ddim_step(x_t, eps, 2, 1, sched)
        ab_t = mpmath.mpf("0.81") * mpmath.mpf("0.81")
        ab_prev = mpmath.mpf("0.81")
        x0_hat = (mpmath.mpf("1.5") - mpmath.sqrt(1 - ab_t) * mpmath.mpf("-0.25")) / mpmath.sqrt(ab_t)
        expected = mpmath.sqrt(ab_prev) * x0_hat + mpmath.sqrt(1 - ab_prev) * mpmath.mpf("-0.25")
        assert abs(out.a[0, 0] - float(expected)) < 1e-14

    def test_timestep_ordering_enforced(self):
        sched = make_schedule(5)
        x = Matrix(np.zeros((1, 1)))
        for t, t_prev in [(3, 3), (2, 4), (6, 1), (0, -1), (2.5, 1), ("3", 1), (3, None)]:
            with pytest.raises(TimestepError):
                ddim_step(x, x, t, t_prev, sched)


class TestStepErrors:
    @staticmethod
    def schedule(*alpha_bar):
        return NoiseSchedule(beta=np.zeros(len(alpha_bar)), alpha_bar=np.array([1.0, *alpha_bar]))

    @pytest.mark.parametrize("t_prev", [0, 1])
    def test_overflowing_clean_estimate_is_non_finite_error(self, t_prev):
        # sqrt(5e-301) is about 7e-151, so 1e200 / 7e-151 overflows float64.
        sched = self.schedule(0.5, 5e-301)
        x_t, eps = Matrix([[1e200, 1.0]]), Matrix(np.zeros((1, 2)))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ddim_step(x_t, eps, 2, t_prev, sched)

    def test_vanishing_alpha_bar_is_schedule_error(self):
        sched = self.schedule(0.5, 0.0)
        x = Matrix([[1.0, 2.0]])
        with pytest.raises(ScheduleError):
            ddim_step(x, x, 2, 1, sched)
        with pytest.raises(ScheduleError):
            ddim_step(x, x, 2, 0, sched)


class TestSplitJump:
    """A sampler rung split over both CPUs by rows has the bits it has whole."""

    @pytest.mark.parametrize("rows, cols, split", [
        (1024, 320, True),  # sd_block: 7 passes over 327,680 entries
        (256, 256, False),  # mid_bypass: 458,752 entry-passes, below the split threshold
        (1025, 320, True),  # an odd row count
        (16, 64, False),  # small_sweep
    ])
    def test_split_rung_equals_the_whole_rung(self, monkeypatch, rows, cols, split):
        rng = Rng(rows)
        x, eps = randn_matrix(rng, rows, cols), randn_matrix(rng, rows, cols)
        sched = make_schedule(10)
        monkeypatch.setattr(numeric, "_CPUS", 1)
        whole = ddim_step(x, eps, 7, 6, sched).a.tobytes()
        monkeypatch.setattr(numeric, "_CPUS", 2)
        halves = _helper_halves(monkeypatch)
        assert ddim_step(x, eps, 7, 6, sched).a.tobytes() == whole
        assert halves == ([(rows // 2, rows)] if split else [])

    @pytest.mark.parametrize("row", [3, 1000])  # in the caller's half, in the helper's
    def test_overflow_in_either_half_is_the_same_error(self, monkeypatch, row):
        x = np.zeros((1024, 320))
        x[row] = np.finfo(float).max  # divided by sqrt(alpha_bar) < 1, it overflows
        monkeypatch.setattr(numeric, "_CPUS", 2)
        halves = _helper_halves(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match=r"^Matrix entries must be finite \(no NaN/Inf\)$"):
            ddim_step(Matrix(x), Matrix(np.zeros((1024, 320))), 10, 9, make_schedule(10))
        assert halves == [(512, 1024)]


def _helper_halves(monkeypatch) -> list:
    """A list of the (lo, hi) row ranges that the helper thread runs from now on."""
    halves = []
    run_half = numeric._run_half

    def recorded(body, lo, hi):
        if threading.current_thread() is not threading.main_thread():
            halves.append((lo, hi))
        run_half(body, lo, hi)

    monkeypatch.setattr(numeric, "_run_half", recorded)
    return halves


# Latents of the three benchmark workloads (positions x heads * head_dim), a
# ragged one and the smallest one.
LATENT_SHAPES = [(16, 64), (1024, 320), (256, 256), (17, 15), (2, 1)]


@pytest.mark.parametrize("rows, cols", LATENT_SHAPES)
class TestBitwiseAgainstEarlierForms:
    """The one-buffer sampler rung gives the bits of the two-Matrix form it replaced."""

    def test_step_equals_fresh_temporaries(self, rows, cols):
        rng = Rng(47)
        x0, eps = randn_matrix(rng, rows, cols), randn_matrix(rng, rows, cols)
        sched = make_schedule(50)
        for t, t_prev in [(50, 49), (37, 12), (5, 0), (1, 0)]:
            x_t = forward_noise(x0, t, eps, sched)
            out = ddim_step(x_t, eps, t, t_prev, sched).a
            expected = fresh_ddim_step(x_t.a, eps.a, sched.bar(t), sched.bar(t_prev))
            assert out.tobytes() == expected.tobytes()
            composed = forward_noise(ddim_step(x_t, eps, t, 0, sched), t_prev, eps, sched)
            assert out.tobytes() == composed.a.tobytes()

    def test_forward_noise_equals_fresh_temporaries(self, rows, cols):
        rng = Rng(48)
        x0, eps = randn_matrix(rng, rows, cols), randn_matrix(rng, rows, cols)
        sched = make_schedule(10)
        for t in (0, 3, 10):
            ab = sched.bar(t)
            expected = np.sqrt(ab) * x0.a + np.sqrt(1.0 - ab) * eps.a
            assert forward_noise(x0, t, eps, sched).a.tobytes() == expected.tobytes()

    def test_walks_equal_fresh_temporaries(self, rows, cols):
        x0, noise = make_oracle(seed=49, rows=rows, cols=cols)
        sched = make_schedule(10)
        up = ddim_invert(x0, noise, sched, 10)
        down = ddim_generate(up[-1].x, noise, sched, 10)
        for walk in (up, down):
            for prev, state in zip(walk[:-1], walk[1:]):
                ab_from, ab_to = sched.bar(prev.t), sched.bar(state.t)
                expected = fresh_ddim_step(prev.x.a, noise.a, ab_from, ab_to)
                assert state.x.a.tobytes() == expected.tobytes()


def make_oracle(seed=46, rows=4, cols=6):
    rng = Rng(seed)
    x0 = randn_matrix(rng, rows, cols)
    noise = randn_matrix(rng, rows, cols)
    return x0, noise


class TestInversion:
    def test_zero_steps_trajectory_is_input(self):
        x0, noise = make_oracle()
        traj = ddim_invert(x0, noise, make_schedule(10), 0)
        assert len(traj) == 1
        assert traj[0].t == 0
        assert np.array_equal(traj[0].x.a, x0.a)

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_trajectory_length_and_rungs(self, steps):
        x0, noise = make_oracle()
        traj = ddim_invert(x0, noise, make_schedule(10), steps)
        assert len(traj) == steps + 1
        ts = [state.t for state in traj]
        assert ts[0] == 0 and ts[-1] == 10
        assert ts == sorted(set(ts))

    @pytest.mark.parametrize("steps", [0, 1, 10])
    def test_last_only_keeps_the_final_state_alone(self, steps):
        x0, noise = make_oracle()
        sched = make_schedule(10)
        (top,) = ddim_invert(x0, noise, sched, steps, last_only=True)
        final = ddim_invert(x0, noise, sched, steps)[-1]
        assert top.t == final.t
        assert top.x.a.tobytes() == final.x.a.tobytes()

    def test_generation_inverts_every_intermediate_state(self):
        x0, noise = make_oracle(seed=47)
        sched = make_schedule(40)
        up = ddim_invert(x0, noise, sched, 20)
        down = ddim_generate(up[-1].x, noise, sched, 20)
        up_by_t = {state.t: state.x.a for state in up}
        assert sorted(up_by_t) == sorted(state.t for state in down)
        for state in down:
            assert np.abs(state.x.a - up_by_t[state.t]).max() < 1e-8

    def test_inverted_states_live_on_forward_trajectory(self):
        x0, noise = make_oracle(seed=48)
        sched = make_schedule(25)
        for state in ddim_invert(x0, noise, sched, 25):
            expected = forward_noise(x0, state.t, noise, sched)
            assert np.abs(state.x.a - expected.a).max() < 1e-10

    @pytest.mark.parametrize("steps", [6, -1, 2.5, True, "2"])
    def test_steps_out_of_range(self, steps):
        x0, noise = make_oracle()
        sched = make_schedule(5)
        with pytest.raises(ConfigError, match="steps"):
            ddim_invert(x0, noise, sched, steps)
        with pytest.raises(ConfigError, match="steps"):
            ddim_generate(x0, noise, sched, steps)

    def test_numpy_integer_counts_stay_allowed(self):
        x0, noise = make_oracle()
        sched = make_schedule(np.int64(5))
        [top] = ddim_invert(x0, noise, sched, np.int64(5), last_only=True)
        expected = ddim_invert(x0, noise, make_schedule(5), 5)[-1]
        assert top.x.a.tobytes() == expected.x.a.tobytes()

    @pytest.mark.parametrize("walk", [
        ddim_invert,
        ddim_generate,
        lambda x, eps, sched, steps: ddim_step(x, eps, steps, 0, sched),
    ], ids=["invert", "generate", "step"])
    def test_noise_of_another_shape_names_both_shapes(self, walk):
        _, noise = make_oracle(rows=2, cols=2)
        with pytest.raises(ShapeError, match="latent vs noise: shapes differ, 3x2 vs 2x2"):
            walk(Matrix(np.zeros((3, 2))), noise, make_schedule(4), 2)

    @pytest.mark.parametrize("walk", [ddim_invert, ddim_generate])
    def test_a_walk_of_no_steps_still_checks_the_noise_shape(self, walk):
        _, noise = make_oracle(rows=2, cols=2)
        with pytest.raises(ShapeError, match="latent vs noise: shapes differ, 3x2 vs 2x2"):
            walk(Matrix(np.zeros((3, 2))), noise, make_schedule(4), 0)


class TestTrajectoryDump:
    def test_dump_files_and_manifest(self, tmp_path):
        x0, noise = make_oracle(seed=49, rows=2, cols=3)
        sched = make_schedule(8)
        traj = ddim_invert(x0, noise, sched, 4)
        manifest = dump_trajectory(traj, sched, tmp_path)
        with manifest.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for state, row in zip(traj, rows):
            assert int(row["t"]) == state.t
            assert float(row["alpha_bar"]) == sched.bar(state.t)
            loaded = load_tensor(tmp_path / row["file"])
            assert np.array_equal(loaded, state.x.a.astype(np.float32).astype(np.float64))

    def test_overwrite_semantics(self, tmp_path):
        x0, noise = make_oracle(seed=50, rows=2, cols=2)
        sched = make_schedule(4)
        traj = ddim_invert(x0, noise, sched, 2)
        first = dump_trajectory(traj, sched, tmp_path).read_bytes()
        second = dump_trajectory(traj, sched, tmp_path).read_bytes()
        assert first == second

    def test_shorter_dump_leaves_no_earlier_steps(self, tmp_path):
        x0, noise = make_oracle(seed=51, rows=2, cols=2)
        for timesteps, sub in ((8, "shared"), (4, "shared"), (4, "fresh")):
            sched = make_schedule(timesteps)
            dump_trajectory(ddim_invert(x0, noise, sched, timesteps), sched, tmp_path / sub)

        def files(sub):
            return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

        assert files("shared") == files("fresh")


def test_latent_state_is_frozen():
    state = LatentState(3, Matrix(np.zeros((1, 1))))
    with pytest.raises(AttributeError):
        state.t = 4
