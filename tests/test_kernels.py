from pathlib import Path

import numpy as np
import pytest

from wgimage import _kernels
from wgimage.config import build_experiment, load_config
from wgimage.estimate import sensing_matrix
from wgimage.experiments import TRIAL_BLOCK, _filter_for, localization_error_rates
from wgimage.synth import source_amplitudes

CFG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def test_peak_search_deterministic(workload):
    a = _kernels.peak_search(*workload)
    b = _kernels.peak_search(*workload)
    assert np.array_equal(a, b)


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
        G = (sm.V * _filter_for(ecfg.reg, s_meas, a_o, sm.s)) @ sm.U.conj().T
        misses = 0
        for t in range(trials):
            rng = np.random.Generator(np.random.Philox(key=seed ^ t))
            w = s_meas / np.sqrt(2.0) * (rng.standard_normal(p.size)
                                         + 1j * rng.standard_normal(p.size))
            a = G @ (p + w)
            img = np.abs((E * (2j * ms.beta * np.conj(a))) @ PT)
            ix, iz = np.unravel_index(np.argmax(img), img.shape)
            misses += (grid.x[ix] - src.x_o) ** 2 + (grid.z[iz] - src.z_o) ** 2 > half2
        rates.append(misses / trials)
    return np.array(rates)


@pytest.mark.parametrize("name", ["vertical", "parabolic"])
def test_error_rates_match_per_sigma_reference(name):
    # a partial last block, and (parabolic) a sigma-0 level in the list
    trials = TRIAL_BLOCK + 3
    ecfg = build_experiment(load_config(CFG_DIR / f"{name}.cfg"))
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, ecfg.sigmas, trials,
        ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    ref = _reference_error_rates(ecfg, trials)
    assert rates.tobytes() == ref.tobytes()
    assert 0 < ref.sum() < len(ref)  # the curves are not trivially all 0 or 1
