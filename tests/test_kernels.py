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

import wgimage as wg
from wgimage import _kernels, experiments
from wgimage._kernels import trial_block
from wgimage.cli import main
from wgimage.config import build_experiment, load_config
from wgimage.estimate import (HardThreshold, filtered_basis, heuristic_eps, mse_decomposition,
                              sensing_matrix)
from wgimage.experiments import _trial_noise, localization_error_rates, receiver_data
from wgimage.image import grid_factors, migrate
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
        assert out[t] == np.argmax(img)


def test_tie_breaks_to_first_flat_index():
    # two exactly equal maxima: row-major order picks the first
    G = np.eye(1, dtype=complex)
    p = np.array([1.0 + 0j])
    W = np.zeros((1, 1), complex)
    beta = np.array([1.0])
    E = np.array([[1.0 + 0j], [1.0 + 0j]])
    PT = np.array([[1.0, 1.0]])
    out = _kernels.peak_search(G, p, W, beta, E, PT)
    assert out.tolist() == [0]


def _planted_ties(extra_modes):
    """Flat peaks of the planted-tie image below, padded with modes whose
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
    # each is the full image's argmax, the image being |E @ PT| at c = 1
    img = np.abs(E @ PT)
    assert out.tolist() == [np.argmax(img)] * 2 and swapped.tolist() == [np.argmax(img[:, ::-1])]
    return out.tolist(), swapped.tolist()


def test_planted_ties_resolve_to_first_flat_index():
    assert _planted_ties(0) == ([1, 1], [0])


def test_planted_ties_on_linear_lift():
    # 9 modes: above QUADRATIC_MAX_MODES, so the rows go through the linear lift
    assert 3 + 6 > _kernels.QUADRATIC_MAX_MODES
    assert _planted_ties(6) == ([1, 1], [0])


def test_all_zero_image_peaks_at_origin(workload):
    G, p, W, beta, E, PT = workload
    out = _kernels.peak_search(np.zeros_like(G), p, W, beta, E, PT)
    assert out.shape == (W.shape[0],) and out.dtype == np.int64
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
    assert out.tolist() == [np.argmax(np.abs((E * c) @ PT)) for c in C]


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
    _, (_, y0, (c,), _) = _receiver_data("vertical", [0.0])
    assert c == 0.0
    assert np.array_equal(y0 + c * _trial_noise(y0.size, 1, 0), y0)


def test_receiver_data_scales_and_regularizers():
    # y0 = U^dag B a_o; at each sigma s_meas = sigma max|B a_o| scales the
    # unit noise by s_meas / sqrt(2), and the regularizer is chosen at s_meas
    sigmas = [0.0, 1e-3, 0.3]
    ecfg, (sm, y0, scales, regs) = _receiver_data("planar_lhs", sigmas)
    a_o = source_amplitudes(ecfg.ms, ecfg.source)
    ref = sensing_matrix(ecfg.ms, ecfg.geometry.points)
    p = ref.B @ a_o
    assert np.array_equal(y0, ref.U.conj().T @ p)
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
    # image estimates H (y0 + c Z_0), and a one-trial mc-rate at the same
    # sigma and seed searches H (y0 + W[0]) with W[0] = c Z_0, y0 = U^dag p
    # and the H of image's regularizer, all bit for bit: vertical has a
    # real SVD, planar_lhs a complex one, parabolic the graded guide
    seen = {}

    def spy(key, fn):
        def record(*args):
            seen.setdefault(key, []).append(
                [np.copy(x) if isinstance(x, np.ndarray) else x for x in args])
            return fn(*args)
        return record

    monkeypatch.setattr(experiments, "migrate", spy("image", experiments.migrate))
    monkeypatch.setattr(experiments, "filtered_basis", spy("basis", experiments.filtered_basis))
    monkeypatch.setattr(experiments._kernels, "peak_search", spy("mc", _kernels.peak_search))
    argv = ["--config", str(CFG_DIR / f"{name}.cfg"), "--sigma", "1e-3", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["image", *argv]) == 0
        assert main(["mc-rate", "--trials", "1", *argv]) == 0
    ecfg, (sm, y0, (c,), (reg,)) = _receiver_data(name, [1e-3])
    (a, *_), = seen["image"]
    (H, y0_mc, W, *_), = seen["mc"]
    (V, s, reg_image), (_, _, reg_mc) = seen["basis"]
    assert W.shape == (1, sm.s.size)
    assert np.array_equal(W[0], c * _trial_noise(sm.s.size, ecfg.seed, 0))
    assert np.array_equal(y0_mc, y0)
    assert np.array_equal(y0, sm.U.conj().T @ (sm.B @ source_amplitudes(ecfg.ms, ecfg.source)))
    assert reg_image.eps == reg_mc.eps == reg.eps > 0
    assert np.array_equal(H, filtered_basis(V, s, reg_image))
    assert np.array_equal(a, H @ (y0_mc + W[0]))


def _reference_filter(reg, s_meas, a_o, s):
    """psi(s) of a RegPolicy written out: Tikhonov s / (s^2 + eps^2) or the
    hard threshold (1/s) 1{s > eps}, at the fixed eps or at
    s_meas sqrt(N) / ||a_o||."""
    eps = s_meas * np.sqrt(a_o.size) / np.linalg.norm(a_o) if reg.eps is None else reg.eps
    if reg.kind is HardThreshold:
        return np.where(s > eps, 1.0 / s, 0.0)
    return 1.0 / s if eps == 0 else s / (s * s + eps * eps)


def _reference_error_rates(ecfg, trials):
    """The per-sigma Monte Carlo loop: a fresh generator and N-wide draw
    per sigma and trial on y0 = U^dag p, one complex GEMV and one complex
    image GEMM per trial, argmax of the modulus."""
    ms, src, grid, seed = ecfg.ms, ecfg.source, ecfg.grid, ecfg.seed
    sm = sensing_matrix(ms, ecfg.geometry.points)
    a_o = source_amplitudes(ms, src)
    p = sm.B @ a_o
    y0 = sm.U.conj().T @ p
    n = y0.size
    E = np.exp(1j * np.outer(grid.x, ms.beta))
    PT = ms.profile_matrix(grid.z).T.astype(complex)
    half2 = (0.5 * ms.lambda_o) ** 2
    rates = []
    for sig in np.asarray(ecfg.sigmas, dtype=float):
        s_meas = sig * np.abs(p).max()
        G = sm.V * _reference_filter(ecfg.reg, s_meas, a_o, sm.s)
        misses = 0
        for t in range(trials):
            rng = np.random.Generator(np.random.Philox(key=seed, counter=t << 128))
            w = s_meas / np.sqrt(2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            a = G @ (y0 + w)
            img = np.abs((E * (2j * ms.beta * np.conj(a))) @ PT)
            ix, iz = np.unravel_index(np.argmax(img), img.shape)
            misses += (grid.x[ix] - src.x_o) ** 2 + (grid.z[iz] - src.z_o) ** 2 > half2
        rates.append(misses / trials)
    return np.array(rates)


@pytest.mark.parametrize("name, entries, block, blocks, rest", [
    pytest.param("vertical", {}, None, 0, 131, id="vertical"),
    pytest.param("parabolic", {}, None, 0, 131, id="parabolic"),
    pytest.param("horizontal", {}, None, 0, 131, id="horizontal"),
    pytest.param("planar_lhs_w07", {}, 96, 1, 3, id="planar_lhs_w07"),
    pytest.param("planar_lhs_1000", {}, 64, 1, 1, id="planar_lhs_1000"),
    pytest.param("planar_lhs_1000", {}, 64, 2, 5, id="planar_lhs_1000-three-blocks"),
    pytest.param("vertical", {"reg.kind": "hard"}, None, 0, 131, id="vertical-hard"),
    pytest.param("vertical", {"reg.eps": "1e-9"}, None, 0, 131, id="vertical-eps1e-9"),
])
def test_error_rates_match_per_sigma_reference(name, entries, block, blocks, rest,
                                               monkeypatch):
    # blocks full trial blocks, then rest trials: one partial block of
    # the shipped size (131 trials), and, with blocks cut to `block`
    # trials, two blocks with a partial last one (99 trials), a last
    # block of one trial (65 trials) and three blocks (133 trials).
    # parabolic has a sigma-0 level in its list.
    cfg = load_config(CFG_DIR / f"{name}.cfg")
    for key, value in entries.items():
        cfg[key] = value
    ecfg = build_experiment(cfg)
    n, nz = ecfg.ms.n_modes, ecfg.grid.z.size
    if block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_WORKING_SET",
                            block * _kernels.BLOCK_WORKING_SET // trial_block(n, nz))
    assert block is None or trial_block(n, nz) == block
    trials = blocks * trial_block(n, nz) + rest
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas, trials,
        ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    ref = _reference_error_rates(ecfg, trials)
    assert rates.tobytes() == ref.tobytes()
    assert 0 < ref.sum() < len(ref)  # the curves are not trivially all 0 or 1


def _amplitude_inputs(name, trials):
    """(H, y0, W) that mc-rate passes the kernel for a config at its last
    sigma, W holding the scaled unit noise of trials 0 .. trials - 1 at
    seed 7."""
    ecfg = build_experiment(load_config(CFG_DIR / f"{name}.cfg"))
    sm, y0, (c,), (reg,) = receiver_data(ecfg.ms, ecfg.source, ecfg.geometry.points,
                                         ecfg.sigmas[-1:], ecfg.reg)
    Z = np.array([_trial_noise(y0.size, 7, t) for t in range(trials)])
    return filtered_basis(sm.V, sm.s, reg), y0, c * Z


@pytest.mark.parametrize("name", ["vertical", "planar_lhs_1000", "parabolic"])
def test_amplitudes_of_every_trial_slice_keep_their_bits(name):
    # the block's amplitudes are the one product (p + W) @ G.T, and any
    # slice of trials, a single trial included, recomputes the bits it
    # has inside the block (at the config's last sigma, on the N-wide
    # inputs of mc-rate: vertical's H is real, the others complex)
    G, p, W = _amplitude_inputs(name, 200)
    block = _kernels.amplitudes(G, p, W)
    assert block.tobytes() == ((p + W) @ G.T).tobytes()
    slices = [(i, j) for i in range(8) for j in range(i + 1, 9)]
    slices += [(i, i + 1) for i in range(200)] + [(0, 199), (1, 200), (37, 164)]
    for i, j in slices:
        assert _kernels.amplitudes(G, p, W[i:j]).tobytes() == block[i:j].tobytes(), (i, j)


def _loop_peak(ecfg, trials):
    """tracemalloc peak of the Monte Carlo loop over `trials` trials."""
    tracemalloc.start()
    try:
        localization_error_rates(ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas,
                                 trials, ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_error_rate_loop_holds_under_three_noise_blocks():
    # the loop holds no M-wide noise, only N-wide blocks: at M = 1000,
    # 256 trials peak below one block of 128 trials of M-wide noise
    ecfg = build_experiment(load_config(CFG_DIR / "planar_lhs_1000.cfg"))
    block_bytes = 128 * len(ecfg.geometry.points) * np.dtype(complex).itemsize
    peak = _loop_peak(ecfg, 256)
    assert peak < block_bytes, peak


def test_error_rate_loop_peak_holds_over_many_blocks():
    # blocks are sized by the peak search's working set, not by noise
    # values: about four blocks' worth of trials peak near 1000 trials
    cfg = load_config(CFG_DIR / "vertical.cfg")
    cfg["noise.sigmas"] = "1e-6"
    ecfg = build_experiment(cfg)
    trials = 5000
    assert trials >= 3 * trial_block(ecfg.ms.n_modes, ecfg.grid.z.size) > 1000
    _trial_noise(1, 0, 0)  # the first draw imports numpy.random: not the loop's memory
    peak, base = _loop_peak(ecfg, trials), _loop_peak(ecfg, 1000)
    assert peak < 1.5 * base, (peak, base)


@pytest.mark.parametrize("name", ["vertical", "planar_lhs", "planar_lhs_1000",
                                  "planar_lhs_w07", "horizontal", "parabolic"])
def test_shipped_configs_search_1000_trials_in_one_call(name):
    ecfg = build_experiment(load_config(CFG_DIR / f"{name}.cfg"))
    assert trial_block(ecfg.ms.n_modes, ecfg.grid.z.size) >= 1000


@pytest.mark.parametrize("case", ["vertical", "dd_L40"])
def test_peak_search_call_holds_its_block_budget(case):
    # trial_block's memory model: one peak_search call over a block of
    # trial_block(N, nz) trials peaks below 24 B per trial for each of its
    # nz row bounds and each column of its row lift (N^2 quadratic, 2N
    # linear); the _kernels text reads 21.6 B at N = 6 (vertical,
    # quadratic lift) and 22.8 B at N = 12 (the L = 40 guide, linear lift)
    if case == "vertical":
        ecfg = build_experiment(load_config(CFG_DIR / "vertical.cfg"))
        ms, grid = ecfg.ms, ecfg.grid
    else:
        ms = wg.solve_modes(wg.HomogeneousDD(L=40.0), 1.0)
        grid = wg.default_grid(ms)
    E, PT = grid_factors(ms, grid)
    N, nz = PT.shape
    quadratic = N <= _kernels.QUADRATIC_MAX_MODES
    assert quadratic == (case == "vertical")
    T = trial_block(N, nz)
    rng = np.random.default_rng(11)
    G, p, W = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for shape in [(N, N), N, (T, N)])
    tracemalloc.start()
    try:
        _kernels.peak_search(G, p, W, ms.beta, E, PT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * T * (nz + (N * N if quadratic else 2 * N)), peak


@pytest.mark.parametrize("case", ["vertical", "dd_L40"])
def test_row_lifts_match_migrate(case):
    # every row of both lifts against the image `migrate` forms from the
    # same amplitudes: the quadratic lift's |I|^2 within N^2 eps U(z),
    # the linear lift's [Re I | Im I] within 2N eps sqrt(U(z)), so its
    # |I|^2 within 4N eps U(z) (the bounds of the _kernels text); vertical
    # has 6 modes, the L = 40 guide 12
    if case == "vertical":
        ecfg = build_experiment(load_config(CFG_DIR / "vertical.cfg"))
        ms, grid = ecfg.ms, ecfg.grid
        A = _kernels.amplitudes(*_amplitude_inputs("vertical", 6))
    else:
        ms = wg.solve_modes(wg.HomogeneousDD(L=40.0), 1.0)
        grid = wg.default_grid(ms)
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, ms.n_modes)) + 1j * rng.standard_normal((6, ms.n_modes))
    N, eps = ms.n_modes, np.finfo(float).eps
    assert (case == "vertical") == (N <= _kernels.QUADRATIC_MAX_MODES)
    E, PT = grid_factors(ms, grid)
    nx = E.shape[0]
    C = 2j * ms.beta * np.conj(A)
    U = np.square((np.abs(C) * np.abs(E).max(axis=0)) @ np.abs(PT))  # row bounds, no slack
    quadratic = _kernels._quadratic_lift(C, E, PT)
    linear = _kernels._linear_lift(C, E, PT)
    for t, a in enumerate(A):
        ref = migrate(a, ms, grid).values.T  # (nz, nx)
        Q, P, F = quadratic
        err = np.abs((Q[t] * P) @ F - np.abs(ref) ** 2)
        assert np.all(err <= N * N * eps * U[t, :, None]), (t, (err / U[t, :, None]).max())
        Q, P, F = linear
        rows = (Q[t] * P) @ F
        err = np.abs(rows - np.concatenate([ref.real, ref.imag], axis=1))
        assert np.all(err <= 2 * N * eps * np.sqrt(U[t, :, None])), t
        err = np.abs(rows[:, :nx] ** 2 + rows[:, nx:] ** 2 - np.abs(ref) ** 2)
        assert np.all(err <= 4 * N * eps * U[t, :, None]), t


@pytest.mark.parametrize("name, sigmas", [
    pytest.param("vertical", [0.0, 1e-7, 1e-5], id="vertical"),
    pytest.param("planar_lhs_1000", [0.0, 1e-5, 1e-3], id="planar_lhs_1000"),
])
def test_kernel_amplitude_error_matches_mse_decomposition(name, sigmas, monkeypatch):
    # the mean of |a_t - a_o|^2 over the amplitudes the kernel forms from
    # the N-wide draws is the analytic bias^2 + variance at per-receiver
    # noise s_meas (the noise s_meas / sqrt(2) Z_t on U^dag p), within
    # four standard errors of the mean; at sigma 0 the error is the
    # rounding of plain inversion, below (N eps cond(B))^2 |a_o|^2
    seen = []

    def record(G, p, W, beta, E, PT):
        seen.append(_kernels.amplitudes(G, p, W))
        return np.zeros(W.shape[0], dtype=np.int64)

    monkeypatch.setattr(experiments._kernels, "peak_search", record)
    ecfg, (sm, _, _, regs) = _receiver_data(name, sigmas)
    trials = 1000
    localization_error_rates(ecfg.ms, ecfg.source, ecfg.geometry.points, sigmas, trials,
                             ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    a_o = source_amplitudes(ecfg.ms, ecfg.source)
    p = sm.B @ a_o
    for sigma, A, reg in zip(sigmas, seen, regs):
        err = np.sum(np.abs(A - a_o) ** 2, axis=1)
        if sigma == 0:
            floor = (a_o.size * np.finfo(float).eps * sm.s[0] / sm.s[-1]) ** 2
            assert err.max() < floor * np.sum(np.abs(a_o) ** 2), err.max()
            continue
        mse = mse_decomposition(sm, a_o, sigma * np.abs(p).max(), reg).mse
        se = err.std(ddof=1) / np.sqrt(trials)
        assert abs(err.mean() / mse - 1) < 4 * se / mse, (sigma, err.mean(), mse, se)


def test_bench_kernels_output_parses():
    # perfbench/crosscheck_kernels.py reads the numpy line with this regex
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--trials", "8", "--repeats", "1"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert re.search(r"^numpy\s*:.*\(([\d.]+) us/trial\)", out, re.M)
