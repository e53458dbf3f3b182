import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgimage as wg
from wgimage.modes import hermite_functions
from wgimage.synth import array_samples


def test_mode_count_homogeneous_dd(ms_dd20):
    assert ms_dd20.n_modes == 6
    assert np.allclose(ms_dd20.alpha, np.pi * np.arange(1, 7) / 20.0)


def test_mode_count_parabolic(ms_parab10):
    assert ms_parab10.n_modes == 5
    j = np.arange(5)
    assert np.allclose(ms_parab10.beta, np.sqrt(1.0 - (2 * j + 1) / 10.0))


def test_below_cutoff_raises():
    with pytest.raises(wg.NoGuidedModes):
        wg.solve_modes(wg.HomogeneousDD(L=20.0), 0.1)


def test_eval_mode_antinode(ms_dd20):
    # phi_1(L/2) = sqrt(2/L) sin(pi/2)
    assert ms_dd20.profile_matrix(10.0)[:, 0] == pytest.approx(np.sqrt(0.1), rel=1e-14)


def test_parabolic_profile_at_origin(ms_parab10):
    want = (ms_parab10.k_o / 10.0) ** 0.25 * np.pi ** -0.25
    assert ms_parab10.profile_matrix(0.0)[:, 0] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("spec", [
    wg.HomogeneousDD(L=20.0),
    wg.HomogeneousDN(L=20.0),
    wg.Parabolic(L=10.0),
])
def test_orthonormality(spec):
    # Gauss-Legendre nodes of a full-support aperture: [0, L], or for the
    # parabolic model a window past the last turning point where the
    # Gaussian envelope exp(-s^2/2) has decayed below 1e-12
    ms = wg.solve_modes(spec, 1.0)
    if isinstance(spec, wg.Parabolic):
        half = (np.sqrt(2.0 * ms.n_modes + 1.0) + 8.0) / np.sqrt(ms.k_o / spec.L)
        seg = (0.0, half)
    else:
        seg = (spec.L / 2, spec.L / 2)
    pts, w = array_samples(wg.Dense(0.0, (seg,)), ms.lambda_o)
    P = ms.profile_matrix(pts[:, 1])
    gram = 2.0 * seg[1] * P.T @ (w[:, None] * P)
    tol = 1e-10 if isinstance(spec, (wg.HomogeneousDD, wg.HomogeneousDN)) else 1e-8
    assert np.abs(gram - np.eye(ms.n_modes)).max() < tol


def test_dispersion_relation(ms_dd20, ms_parab10):
    for ms in (ms_dd20, ms_parab10):
        assert np.abs(ms.alpha**2 + ms.beta**2 - ms.k_o**2).max() < 1e-12


def test_beta_strictly_decreasing(ms_dd20, ms_parab10):
    for ms in (ms_dd20, ms_parab10):
        assert np.all(ms.beta > 0)
        assert np.all(np.diff(ms.beta) < 0)


@pytest.mark.parametrize("spec", [
    wg.HomogeneousDD(L=20.0),
    wg.HomogeneousDN(L=20.0),
    wg.Parabolic(L=10.0),
])
def test_first_derivative_matches_finite_differences(spec):
    ms = wg.solve_modes(spec, 1.0)
    rng = np.random.default_rng(5)
    z = rng.uniform(1.0, 9.0, 50)
    h = 1e-6
    d1 = ms.profile_matrix(z, q=1)
    fd = (ms.profile_matrix(z + h) - ms.profile_matrix(z - h)) / (2 * h)
    assert np.abs(d1 - fd).max() / np.abs(d1).max() < 1e-6


@pytest.mark.parametrize("spec", [
    wg.HomogeneousDD(L=20.0),
    wg.HomogeneousDN(L=20.0),
    wg.Parabolic(L=10.0),
])
def test_mode_equation_residual(spec):
    # phi_j'' + (omega^2/c^2(z)) phi_j - beta_j^2 phi_j = 0
    ms = wg.solve_modes(spec, 1.0)
    rng = np.random.default_rng(11)
    z = rng.uniform(0.0, spec.L, 100)
    if isinstance(spec, wg.Parabolic):
        z = rng.uniform(-spec.L / 2, spec.L / 2, 100)
        ksq = ms.k_o**2 * (1.0 - z**2 / spec.L**2)
    else:
        ksq = np.full_like(z, ms.k_o**2)
    P = ms.profile_matrix(z)
    P2 = ms.profile_matrix(z, q=2)
    resid = P2 + (ksq[:, None] - ms.beta[None, :] ** 2) * P
    assert np.abs(resid).max() < 1e-8


def test_dn_boundary_conditions():
    ms = wg.solve_modes(wg.HomogeneousDN(L=20.0), 1.0)
    # Neumann at z=0, Dirichlet at z=L
    assert np.abs(ms.profile_matrix(np.array([0.0]), q=1)).max() < 1e-12
    assert np.abs(ms.profile_matrix(np.array([20.0]))).max() < 1e-12


def test_hermite_recurrence_against_explicit():
    # f_2(s) = pi^{-1/4} (2 s^2 - 1)/sqrt(2) e^{-s^2/2}
    s = np.linspace(-3, 3, 31)
    f = hermite_functions(2, s)
    want = np.pi**-0.25 * (2 * s**2 - 1) / np.sqrt(2.0) * np.exp(-0.5 * s**2)
    assert np.allclose(f[2], want, atol=1e-14)


def test_hermite_derivative_ladder(ms_parab10):
    # d/ds f_1 = sqrt(1/2) f_0 - f_2, and phi_j^(q)(z) = gam^(1/2+q) f_j^(q)(gam z)
    gam = np.sqrt(ms_parab10.k_o / 10.0)
    z = np.linspace(-8.0, 8.0, 41)
    f = hermite_functions(2, gam * z)
    want = gam**1.5 * (np.sqrt(0.5) * f[0] - f[2])
    got = ms_parab10.profile_matrix(z, q=1)[:, 1]
    assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(min_value=5.0, max_value=200.0),
    omega=st.floats(min_value=0.2, max_value=5.0),
)
def test_solve_modes_properties(L, omega):
    spec = wg.HomogeneousDD(L=L)
    try:
        ms = wg.solve_modes(spec, omega)
    except wg.NoGuidedModes:
        assert int(np.floor(omega * L / np.pi)) == 0 or (
            np.pi * 1 / L >= omega)
        return
    # count matches the cutoff formula except at exact-multiple boundaries,
    # where the strict inequality drops the marginal mode
    n_formula = int(np.floor(omega * L / np.pi))
    assert ms.n_modes in (n_formula, n_formula - 1)
    assert np.all(ms.alpha < ms.k_o)
    assert np.all(ms.beta > 0)
    assert np.abs(ms.alpha**2 + ms.beta**2 - ms.k_o**2).max() < 1e-12 * ms.k_o**2
