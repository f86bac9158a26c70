"""Acceptance suite: every release criterion at its pinned tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``); a
failing criterion also fails its test the normal way.
"""

import dataclasses
import functools
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from asi.adablending import (
    BlendConfig,
    adain,
    asi_layer,
    blend,
    covariance,
    extract_head_mask,
    extract_spatial_mask,
    fuse_masks,
    head_distances,
)
from asi.ddim import OracleDenoiser, ddim_generate, ddim_invert, forward_noise, make_schedule
from asi.harness import ExperimentConfig, run_pipeline, sweep, synth_inputs
from asi.numeric import Matrix, Rng, matmul, randn_matrix, softmax_rows
from asi.sica import project_kv, project_q, siamese_attend

from oracles import two_pass_covariance

GOLDEN = Path(__file__).parent / "golden"


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {desc}")

        return wrapper

    return decorate


@criterion(1, "covariance matches the two-pass mean-centered oracle (rel err < 1e-9)")
def test_criterion_01_covariance_oracle_equivalence():
    def two_pass_fast(f):
        centered = f - f.mean(axis=0, keepdims=True)
        return centered.T.dot(centered) / (f.shape[0] - 1)

    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for case in range(200):
        m = int(rng.integers(2, 65))
        d = int(rng.integers(1, 17))
        f = rng.standard_normal((m, d)) * float(0.5 + rng.random() * 3.0)
        got = covariance(f)
        oracle = two_pass_fast(f)
        if case < 5:  # anchor the fast oracle to the loop-based one
            assert np.abs(oracle - two_pass_covariance(f)).max() < 1e-12
        num = math.sqrt(((got - oracle) ** 2).sum())
        den = max(math.sqrt((oracle**2).sum()), 1e-300)
        assert num / den < 1e-9, f"case {case}: m={m} d={d} rel err {num/den}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"covariance sweep took {elapsed:.2f}s"


@criterion(2, "head-distance identities and the 4d^2 normalizer")
def test_criterion_02_head_distance_identities():
    rng = Rng(200)
    a = randn_matrix(rng, 12, 5)
    b = randn_matrix(rng, 12, 5)
    assert head_distances(a.a, a.a) == 0.0
    assert head_distances(a.a, b.a) == head_distances(b.a, a.a)
    shift = np.array([[4.0, -2.0, 0.5, 9.0, -1.25]])
    assert abs(head_distances(a.a + shift, b.a) - head_distances(a.a, b.a)) < 1e-9
    assert abs(head_distances(a.a, b.a + shift) - head_distances(a.a, b.a)) < 1e-9
    # known covariances: gap [[4,4],[4,4]] vs zero, so Frobenius^2 = 64 and
    # the normalizer must be 4 * d**2 = 16
    varying = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    constant = Matrix([[7.0, 9.0]] * 3)
    assert head_distances(varying.a, constant.a) == 64.0 / 16.0


@criterion(3, "top-n head selection with n=6, h=8, and lowest-index tie-break")
def test_criterion_03_top_n_selection():
    rng = Rng(300)
    base = randn_matrix(rng, 20, 4)
    scales = [1.4, 0.2, 2.2, 1.01, 3.0, 0.6, 1.8, 0.95]
    f_c = np.stack([base.a] * 8)
    f_s = np.stack([base.a * s for s in scales])
    cfg = BlendConfig(n=6)
    mask = extract_head_mask(f_s, f_c, cfg)
    assert mask.sum() == 6
    ell = head_distances(f_s, f_c)
    oracle = set(sorted(range(8), key=lambda i: (-ell[i], i))[:6])
    assert set(np.flatnonzero(mask)) == oracle
    # constructed tie: heads 0 and 1 are bitwise copies
    tied_s = np.stack([base.a * 2.0, base.a * 2.0, base.a * 0.5])
    tied_c = np.stack([base.a] * 3)
    tied_ell = head_distances(tied_s, tied_c)
    assert tied_ell[0] == tied_ell[1]
    tied = extract_head_mask(tied_s, tied_c, BlendConfig(n=1))
    assert tied.tolist() == [True, False, False]


@criterion(4, "spatial mask zeros exactly the strict exceeders of 0.7 * channel max")
def test_criterion_04_spatial_mask_threshold():
    cfg = BlendConfig(alpha=0.7)
    channels = np.array(
        [
            [1.0, 2.0, -1.0, 0.69],
            [0.5, 2.0, -2.0, 0.71],
            [0.8, 2.0, -3.0, 1.0],
            [0.7, 2.0, -0.5, 0.0],
        ]
    )
    f_c = channels[None, :, :]
    mask = extract_spatial_mask(f_c, cfg)
    peaks = channels.max(axis=0)
    expected = np.where(channels > 0.7 * peaks, 0.0, 1.0)
    assert np.array_equal(mask.data[0], expected)
    for c in range(channels.shape[1]):
        if peaks[c] > 0:
            assert mask.data[0, channels[:, c].argmax(), c] == 0.0
    # randomized reinforcement of the argmax clause
    rng = Rng(400)
    rand = np.abs(rng.normals(4 * 10 * 6)).reshape(4, 10, 6) + 1e-3
    rand_mask = extract_spatial_mask(rand, cfg)
    for i in range(4):
        for c in range(6):
            assert rand_mask.data[i, rand[i, :, c].argmax(), c] == 0.0


@criterion(5, "adain transfers style moments (mean < 1e-6, std < 1e-4) on 100 cases")
def test_criterion_05_adain_moment_transfer():
    rng = Rng(500)
    for case in range(100):
        scale_c = float(0.5 + 2.0 * rng.uniform())
        scale_s = float(0.5 + 2.0 * rng.uniform())
        f_c = Matrix(randn_matrix(rng, 24, 5).a * scale_c)
        f_s = Matrix(randn_matrix(rng, 24, 5).a * scale_s + 0.75)
        assert f_c.a.std(axis=0).min() > 1e-3  # precondition holds by construction
        out = adain(f_c.a, f_s.a, eps=1e-5)
        mean_err = np.abs(out.mean(axis=0) - f_s.a.mean(axis=0)).max()
        std_err = np.abs(out.std(axis=0) - f_s.a.std(axis=0)).max()
        assert mean_err < 1e-6, f"case {case}: mean error {mean_err}"
        assert std_err < 1e-4, f"case {case}: std error {std_err}"


@criterion(6, "blend is exact interpolation and harness preserved_mse is exactly 0")
def test_criterion_06_blend_interpolation_exactness(tmp_path):
    rng = Rng(600)
    f_c = rng.normals(4 * 12 * 6).reshape(4, 12, 6)
    f_s = rng.normals(4 * 12 * 6).reshape(4, 12, 6)
    cfg = BlendConfig(n=2)
    fused = fuse_masks(extract_head_mask(f_s, f_c, cfg), extract_spatial_mask(f_c, cfg))
    out = blend(f_c, f_s, fused, cfg)
    for i in range(4):
        styled = adain(f_c[i], f_s[i], cfg.eps)
        zero = fused.data[i] == 0.0
        one = fused.data[i] == 1.0
        assert np.array_equal(out[i][zero], f_c[i][zero])
        assert np.array_equal(out[i][one], styled[one])
    for seed in (0, 7):
        report = run_pipeline(
            ExperimentConfig(seed=seed, timesteps=3, dump_dir=tmp_path / f"s{seed}")
        )
        assert report.preserved_mse == 0.0


@criterion(7, "degenerate style is a no-op through the full layer (inf-norm < 1e-6)")
def test_criterion_07_degenerate_style_noop():
    # eps = 1e-9 keeps the self-normalization perturbation below the 1e-6
    # budget; at the default 1e-5 the deviation is of order eps by design
    cfg = ExperimentConfig(perturbation=0.0, blend=BlendConfig(eps=1e-9))
    inputs = synth_inputs(cfg)
    q = project_q(inputs.spatial, inputs.params)
    k_s, v_s = project_kv(inputs.style_prompt, inputs.params)
    k_c, v_c = project_kv(inputs.content_prompt, inputs.params)
    result = asi_layer(q, k_s, v_s, k_c, v_c, cfg.blend)
    assert np.array_equal(result.f_s, result.f_c)
    assert np.abs(result.f_out - result.f_c).max() < 1e-6


@criterion(8, "track isolation: V_s x3 scales F_s x3, F_c bitwise; rows sum to 1")
def test_criterion_08_sica_track_isolation():
    rng = Rng(800)
    heads, m, d, tokens = 4, 10, 6, 5
    q = rng.normals(heads * m * d).reshape(heads, m, d)
    k_s = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    v_s = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    k_c = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    v_c = rng.normals(heads * tokens * d).reshape(heads, tokens, d)
    f_s, f_c = siamese_attend(q, k_s, v_s, k_c, v_c)
    f_s3, f_c3 = siamese_attend(q, k_s, 3.0 * v_s, k_c, v_c)
    assert np.abs(f_s3 - 3.0 * f_s).max() < 1e-12
    assert np.array_equal(f_c3, f_c)
    scale = 1.0 / math.sqrt(d)
    for k in (k_s, k_c):
        for i in range(heads):
            weights = softmax_rows(matmul(Matrix(q[i]), Matrix(k[i].T)).a * scale)
            assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9


@criterion(9, "50-step invert-then-generate roundtrip: max abs error < 1e-6, < 1s")
def test_criterion_09_ddim_perfect_inversion():
    rng = Rng(900)
    x0 = randn_matrix(rng, 16, 64)
    noise = randn_matrix(rng, 16, 64)
    sched = make_schedule(50)
    denoiser = OracleDenoiser(true_noise=noise)
    start = time.perf_counter()
    up = ddim_invert(x0, denoiser, sched, 50)
    down = ddim_generate(up[-1].x, denoiser, sched, 50)
    elapsed = time.perf_counter() - start
    error = np.abs(down[-1].x.a - x0.a).max()
    assert error < 1e-6, f"roundtrip error {error}"
    assert elapsed < 1.0, f"roundtrip took {elapsed:.3f}s"


@criterion(10, "forward-noise closed form: ab=0.25, x0=1, eps=2 -> 2.232050 +- 1e-5")
def test_criterion_10_forward_noise_closed_form():
    mpmath = pytest.importorskip("mpmath")
    sched = make_schedule(2, 0.5, 0.5)
    assert sched.bar(2) == 0.25
    out = forward_noise(Matrix([[1.0]]), 2, Matrix([[2.0]]), sched)
    value = out.a[0, 0]
    assert abs(value - 2.232050) < 1e-5
    exact = mpmath.sqrt(mpmath.mpf(1) / 4) + mpmath.sqrt(mpmath.mpf(3) / 4) * 2
    assert abs(value - float(exact)) < 1e-12


@criterion(11, "seed-0 default run reproduces the committed goldens byte for byte")
def test_criterion_11_determinism_regression(tmp_path):
    cfg = ExperimentConfig(dump_dir=tmp_path / "a")
    run_pipeline(cfg)
    run_pipeline(dataclasses.replace(cfg, dump_dir=tmp_path / "b"))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    golden_report = (GOLDEN / "report.csv").read_bytes()
    assert (tmp_path / "a" / "report.csv").read_bytes() == golden_report

    manifest = {}
    for line in (GOLDEN / "run_manifest.sha256").read_text().splitlines():
        digest, name = line.split("  ")
        manifest[name] = digest
    assert set(manifest) == set(names)
    for name in names:
        digest = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        assert digest == manifest[name], f"{name} drifted from its golden digest"

    # thread-count independence: the same run under different BLAS/OMP pools
    env_base = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    reports = []
    for threads, sub in (("1", "t1"), ("4", "t4")):
        env = {
            **env_base,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "asi.cli", "run", "--set", f"dump_dir={out_dir}"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out_dir / "report.csv").read_bytes())
    assert reports[0] == reports[1] == golden_report


@criterion(12, "blended fraction >= n/h and is monotone under the n sweep")
def test_criterion_12_mask_fusion_consequence(tmp_path):
    cfg = ExperimentConfig(timesteps=3, dump_dir=tmp_path / "sweep")
    reports = sweep(cfg, "n", list(range(0, 9)))
    fractions = [r.blended_fraction for r in reports]
    for n, report in zip(range(0, 9), reports):
        assert report.blended_fraction >= n / cfg.heads
    assert fractions == sorted(fractions)
