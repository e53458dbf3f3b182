import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgimage import _kernels, experiments
from wgimage.cli import main
from wgimage.config import build_experiment, load_config
from wgimage.estimate import HardThreshold, estimator_matrix, heuristic_eps, sensing_matrix
from wgimage.experiments import _trial_noise, localization_error_rates, receiver_data, trial_block
from wgimage.synth import source_amplitudes

ROOT = Path(__file__).resolve().parent.parent
CFG_DIR = ROOT / "configs"


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(3)
    N, M, T, nx, nz = 6, 20, 40, 31, 17
    G = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    p = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    W = 0.1 * (rng.standard_normal((T, M)) + 1j * rng.standard_normal((T, M)))
    beta = np.sort(rng.uniform(0.2, 1.0, N))[::-1].copy()
    E = np.exp(1j * np.outer(np.linspace(50, 80, nx), beta))
    PT = rng.standard_normal((N, nz))
    return G, p, W, beta, E, PT


def test_numpy_matches_direct_evaluation(workload):
    G, p, W, beta, E, PT = workload
    out = _kernels.peak_search(G, p, W, beta, E, PT)
    for t in (0, 7, 39):
        a = G @ (p + W[t])
        img = np.abs((E * (2j * beta * np.conj(a))) @ PT)
        ix, iz = np.unravel_index(np.argmax(img), img.shape)
        assert tuple(out[t]) == (ix, iz)


def test_tie_breaks_to_first_flat_index():
    # two exactly equal maxima: row-major order picks the first
    G = np.eye(1, dtype=complex)
    p = np.array([1.0 + 0j])
    W = np.zeros((1, 1), complex)
    beta = np.array([1.0])
    E = np.array([[1.0 + 0j], [1.0 + 0j]])
    PT = np.array([[1.0, 1.0]])
    out = _kernels.peak_search(G, p, W, beta, E, PT)
    assert tuple(out[0]) == (0, 0)


def _planted_ties(extra_modes):
    """Peaks of the planted-tie image below, padded with modes whose
    profiles vanish on the grid: 3 + extra_modes modes in all."""
    # c = 2i conj(a) = 1 in every mode, so every image value is exact.
    # Row z=0 has the larger bound (25 against 16) and is visited first;
    # its max 16 sits at x=1 (flat index 2). Row z=1 ties it at x=0 and
    # x=1, so the later row wins on flat index 1, within it at x=0.
    N = 3 + extra_modes
    a = np.full(N, 0.5j)
    E = np.zeros((3, N), dtype=complex)
    E[:, :3] = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    E[:, 3:] = 1.0
    PT = np.zeros((N, 2))
    PT[:3] = [[2.0, 4.0], [2.0, 0.0], [1.0, 0.0]]
    out = _kernels.peak_search(np.eye(N, dtype=complex), a, np.zeros((2, N), complex),
                               np.ones(N), E, PT)
    # the same image with the rows swapped: the tie now falls in the first row
    swapped = _kernels.peak_search(np.eye(N, dtype=complex), a, np.zeros((1, N), complex),
                                   np.ones(N), E, PT[:, ::-1].copy())
    return out.tolist(), swapped.tolist()


def test_planted_ties_resolve_to_first_flat_index():
    assert _planted_ties(0) == ([[0, 1], [0, 1]], [[0, 0]])


def test_planted_ties_on_linear_lift():
    # 9 modes: above QUADRATIC_MAX_MODES, so the rows go through the linear lift
    assert 3 + 6 > _kernels.QUADRATIC_MAX_MODES
    assert _planted_ties(6) == ([[0, 1], [0, 1]], [[0, 0]])


def test_all_zero_image_peaks_at_origin(workload):
    G, p, W, beta, E, PT = workload
    out = _kernels.peak_search(np.zeros_like(G), p, W, beta, E, PT)
    assert out.shape == (W.shape[0], 2) and out.dtype == np.int64
    assert not out.any()


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 12), nx=st.integers(1, 12), nz=st.integers(1, 12),
       T=st.integers(1, 2 * _kernels.ROW_CHUNK + 5),
       scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]), unit=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_peak_search_equals_full_image_argmax(N, nx, nz, T, scale, unit, seed):
    # N crosses QUADRATIC_MAX_MODES, so both row lifts run. Range factors
    # are either the unit phases e^{i beta x} that mc-rate passes or
    # arbitrary complex ones: the row bound carries max_x |E[x, j]|. One
    # unit-phase mode gives an image constant in x, whose ties only
    # rounding breaks, so unit draws have two modes or more.
    assume(N > 1 or not unit)
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    M = N + 2
    G, p, W = cplx(N, M), cplx(M), scale * cplx(T, M)
    beta, PT = rng.uniform(0.1, 1.0, N), rng.standard_normal((N, nz))
    E = np.exp(1j * np.outer(np.linspace(50.0, 150.0, nx), beta)) if unit else cplx(nx, N)
    out = _kernels.peak_search(G, p, W, beta, E, PT)
    C = 2j * beta * np.conj((p + W) @ G.T)
    ref = [divmod(int(np.argmax(np.abs((E * c) @ PT))), nz) for c in C]
    assert out.tolist() == [list(r) for r in ref]


def test_peak_search_deterministic(workload):
    a = _kernels.peak_search(*workload)
    b = _kernels.peak_search(*workload)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2024, 2**64 + 5, 2**128 - 1])
def test_trial_noise_equals_fresh_philox(seed):
    # the reused, reset generator draws what a fresh one keyed on
    # (seed, t) draws, whatever was drawn before it
    for m, t in [(20, 0), (1, 1), (1000, 5), (20, 999), (20, 0)]:
        rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
        ref = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert _trial_noise(m, seed, t).tobytes() == ref.tobytes()


def test_trial_noise_keyed_on_seed_and_trial_pair():
    # 2024 ^ 1 == 2025 ^ 0: a key of seed XOR t gave these two one draw
    assert not np.array_equal(_trial_noise(20, 2024, 1), _trial_noise(20, 2025, 0))


def test_trial_noise_deterministic_per_seed_and_trial():
    z = _trial_noise(20, 42, 3)
    assert np.array_equal(z, _trial_noise(20, 42, 3))
    assert not np.array_equal(z, _trial_noise(20, 43, 3))
    assert not np.array_equal(z, _trial_noise(20, 42, 4))


def _receiver_data(name, sigmas):
    """A shipped config's ExperimentConfig and its receiver data at sigmas."""
    ecfg = build_experiment(load_config(CFG_DIR / f"{name}.cfg"))
    return ecfg, receiver_data(ecfg.ms, ecfg.source, ecfg.geometry.points, sigmas, ecfg.reg)


def test_zero_sigma_adds_no_noise():
    _, (_, p, (c,), _) = _receiver_data("vertical", [0.0])
    assert c == 0.0
    assert np.array_equal(p + c * _trial_noise(p.size, 1, 0), p)


def test_receiver_data_scales_and_regularizers():
    # p = B a_o; at each sigma s_meas = sigma max|p| scales the unit noise
    # by s_meas / sqrt(2), and the regularizer is chosen at s_meas
    sigmas = [0.0, 1e-3, 0.3]
    ecfg, (sm, p, scales, regs) = _receiver_data("planar_lhs", sigmas)
    a_o = source_amplitudes(ecfg.ms, ecfg.source)
    assert np.array_equal(p, sensing_matrix(ecfg.ms, ecfg.geometry.points).B @ a_o)
    for sigma, c, reg in zip(sigmas, scales, regs):
        s_meas = sigma * np.abs(p).max()
        assert c == s_meas / np.sqrt(2.0)
        assert reg.eps == heuristic_eps(s_meas, a_o)


def test_noise_statistics():
    # unit noise: zero mean, E|Z|^2 = 2, independent samples; the noise
    # s_meas / sqrt(2) Z then has per-sample variance s_meas^2
    k = 100_000
    z = _trial_noise(k, 7, 0)
    se = 1 / np.sqrt(k)
    assert abs(z.real.mean()) < 5 * se and abs(z.imag.mean()) < 5 * se
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.02)
    s_meas = 0.3
    assert np.mean(np.abs(s_meas / np.sqrt(2.0) * z) ** 2) == pytest.approx(s_meas ** 2, rel=0.02)
    # adjacent-sample cross-correlation vanishes
    cross = np.mean(z[:-1] * np.conj(z[1:]))
    assert abs(cross) < 10 / np.sqrt(k)


@pytest.mark.parametrize("name", ["vertical", "planar_lhs", "parabolic"])
def test_image_adds_trial_zero_of_mc_rate(name, monkeypatch, tmp_path):
    # the data image estimates from equal, bit for bit, p + W[0] of a
    # one-trial mc-rate at the same sigma and seed, and its regularizer
    # gives the G mc-rate searches with: vertical has a real SVD,
    # planar_lhs a complex one, parabolic the graded guide
    seen = {}

    def spy(key, fn):
        def record(*args):
            seen[key] = [np.copy(x) if isinstance(x, np.ndarray) else x for x in args]
            return fn(*args)
        return record

    monkeypatch.setattr(experiments, "svd_estimate", spy("image", experiments.svd_estimate))
    monkeypatch.setattr(experiments, "estimator_matrix",
                        spy("estimator", experiments.estimator_matrix))
    monkeypatch.setattr(experiments._kernels, "peak_search", spy("mc", _kernels.peak_search))
    argv = ["--config", str(CFG_DIR / f"{name}.cfg"), "--sigma", "1e-3", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["image", *argv]) == 0
        assert main(["mc-rate", "--trials", "1", *argv]) == 0
    data, sm, reg = seen["image"]
    G, p, W = seen["mc"][:3]
    assert W.shape == (1, p.size)
    assert np.array_equal(data, p + W[0])
    assert reg.eps == seen["estimator"][1].eps > 0
    assert np.array_equal(G, estimator_matrix(sm, reg))


def _reference_filter(reg, s_meas, a_o, s):
    """psi(s) of a RegPolicy written out: Tikhonov s / (s^2 + eps^2) or the
    hard threshold (1/s) 1{s > eps}, at the fixed eps or at
    s_meas sqrt(N) / ||a_o||."""
    eps = s_meas * np.sqrt(a_o.size) / np.linalg.norm(a_o) if reg.eps is None else reg.eps
    if reg.kind is HardThreshold:
        return np.where(s > eps, 1.0 / s, 0.0)
    return 1.0 / s if eps == 0 else s / (s * s + eps * eps)


def _reference_error_rates(ecfg, trials):
    """The per-sigma Monte Carlo loop: a fresh draw per sigma and trial,
    one complex GEMV and one complex image GEMM per trial, argmax of the
    modulus."""
    ms, src, grid, seed = ecfg.ms, ecfg.source, ecfg.grid, ecfg.seed
    sm = sensing_matrix(ms, ecfg.geometry.points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    E = np.exp(1j * np.outer(grid.x, ms.beta))
    PT = ms.profile_matrix(grid.z).T.astype(complex)
    half2 = (0.5 * ms.lambda_o) ** 2
    rates = []
    for sig in np.asarray(ecfg.sigmas, dtype=float):
        s_meas = sig * np.abs(p).max()
        G = (sm.V * _reference_filter(ecfg.reg, s_meas, a_o, sm.s)) @ sm.U.conj().T
        misses = 0
        for t in range(trials):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
            w = s_meas / np.sqrt(2.0) * (rng.standard_normal(p.size)
                                         + 1j * rng.standard_normal(p.size))
            a = G @ (p + w)
            img = np.abs((E * (2j * ms.beta * np.conj(a))) @ PT)
            ix, iz = np.unravel_index(np.argmax(img), img.shape)
            misses += (grid.x[ix] - src.x_o) ** 2 + (grid.z[iz] - src.z_o) ** 2 > half2
        rates.append(misses / trials)
    return np.array(rates)


@pytest.mark.parametrize("name, entries, blocks, rest", [
    pytest.param("vertical", {}, 0, 131, id="vertical"),
    pytest.param("parabolic", {}, 0, 131, id="parabolic"),
    pytest.param("horizontal", {}, 0, 131, id="horizontal"),
    pytest.param("planar_lhs_w07", {}, 1, 3, id="planar_lhs_w07"),
    pytest.param("planar_lhs_1000", {}, 1, 1, id="planar_lhs_1000"),
    pytest.param("planar_lhs_1000", {}, 1, _kernels.AMPLITUDE_CHUNK + 1,
                 id="planar_lhs_1000-merged-chunk"),
    pytest.param("vertical", {"reg.kind": "hard"}, 0, 131, id="vertical-hard"),
    pytest.param("vertical", {"reg.eps": "1e-9"}, 0, 131, id="vertical-eps1e-9"),
])
def test_error_rates_match_per_sigma_reference(name, entries, blocks, rest):
    # blocks full trial blocks of the config's receiver count, then rest
    # trials: one partial block (M = 20, 131 trials), two blocks with a
    # partial last one (M = 20, 6403 trials), a last block of one trial
    # (M = 1000, 129 trials) and one whose single amplitude chunk holds a
    # merged one-row remainder (M = 1000, 161 trials). parabolic has a
    # sigma-0 level in its list.
    cfg = load_config(CFG_DIR / f"{name}.cfg")
    for key, value in entries.items():
        cfg[key] = value
    ecfg = build_experiment(cfg)
    trials = blocks * trial_block(len(ecfg.geometry.points)) + rest
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas, trials,
        ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    ref = _reference_error_rates(ecfg, trials)
    assert rates.tobytes() == ref.tobytes()
    assert 0 < ref.sum() < len(ref)  # the curves are not trivially all 0 or 1


def _amplitude_inputs(name, trials):
    """(G, p, W) of a config at its last sigma, W holding the scaled noise
    of trials 0 .. trials - 1 at seed 7."""
    ecfg = build_experiment(load_config(CFG_DIR / f"{name}.cfg"))
    sm, p, (c,), (reg,) = receiver_data(ecfg.ms, ecfg.source, ecfg.geometry.points,
                                        ecfg.sigmas[-1:], ecfg.reg)
    W = c * np.array([_trial_noise(p.size, 7, t) for t in range(trials)])
    return estimator_matrix(sm, reg), p, W


@pytest.mark.parametrize("name", ["vertical", "planar_lhs_1000", "parabolic"])
def test_amplitudes_of_every_trial_slice_keep_their_bits(name):
    # any slice of trials, a single trial included, recomputes the
    # amplitudes it has inside a block (at the config's last sigma)
    G, p, W = _amplitude_inputs(name, 8)
    block = _kernels.amplitudes(G, p, W)
    for i in range(8):
        for j in range(i + 1, 9):
            assert _kernels.amplitudes(G, p, W[i:j]).tobytes() == block[i:j].tobytes(), (i, j)


def test_chunked_amplitudes_equal_one_product():
    # row chunks, a merged one-row remainder included, give the bits of
    # the single GEMM (p + W) @ G.T; one trial those of the two-row product
    G, p, W = _amplitude_inputs("planar_lhs_1000", 129)
    c = _kernels.AMPLITUDE_CHUNK
    for T in (1, 2, 3, c - 1, c, c + 1, c + 2, 2 * c + 1, 128, 129):
        X = p + W[:T]
        ref = (np.concatenate((X, X)) @ G.T)[:1] if T == 1 else X @ G.T
        assert _kernels.amplitudes(G, p, W[:T]).tobytes() == ref.tobytes(), T


def test_error_rate_loop_holds_under_three_noise_blocks():
    # the loop holds one block of unit noise, one scaled copy and a chunk
    # of p + W, whatever the trial count: at M = 1000 a block is 128 trials
    ecfg = build_experiment(load_config(CFG_DIR / "planar_lhs_1000.cfg"))
    M = len(ecfg.geometry.points)
    block_bytes = trial_block(M) * M * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        localization_error_rates(ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas,
                                 2 * trial_block(M), ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * block_bytes, peak


def test_bench_kernels_output_parses():
    # perfbench/crosscheck_kernels.py reads the numpy line with this regex
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--trials", "8", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert re.search(r"^numpy\s*:.*\(([\d.]+) us/trial\)", out, re.M)
