import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgimage as wg
from wgimage import estimate
from wgimage.estimate import heuristic_eps, mse_decomposition, optimal_epsilon
from wgimage.synth import array_samples, mode_traces


def _svd_estimate(p, sm, reg):
    """a_eps = V psi_eps(S) U^dag p from receiver data p."""
    return wg.filtered_basis(sm.V, sm.s, reg) @ (sm.U.conj().T @ p)


def test_full_aperture_coupling_is_identity_over_depth(ms_dd20):
    cm = wg.coupling_matrix(ms_dd20, wg.Dense(0.0, ((10.0, 10.0),)))
    assert np.abs(cm.A - np.eye(6) / 20.0).max() < 1e-12


def _quadrature_gram(ms, geom):
    # C^dag diag(w) C over the 2-D sample set of mu, independent of the
    # separable construction
    pts, w = array_samples(geom, ms.lambda_o)
    C = mode_traces(ms, pts)
    return C.conj().T @ (w[:, None] * C)


@pytest.mark.parametrize("geom", [
    wg.Dense(0.0, ((11.0, 0.125),)),
    wg.Dense(0.0, ((5.0, 2.0), (15.0, 3.0))),
    wg.Dense(((0.5, 0.5),), 11.0),
])
def test_closed_forms_match_quadrature(ms_dd20, geom):
    closed = wg.coupling_matrix(ms_dd20, geom).A
    quad = _quadrature_gram(ms_dd20, geom)
    assert np.abs(closed - quad).max() < 1e-10 * np.abs(closed).max()


def _kind_geometry(kind, z_c):
    return {
        "vertical": wg.Dense(0.0, ((z_c, 0.5),)),
        "two_interval": wg.Dense(0.0, ((z_c - 2.0, 1.0), (z_c + 2.0, 1.5))),
        "horizontal": wg.Dense(((1.5, 1.5),), z_c),
        "planar": wg.Dense(((0.0, 0.5),), ((z_c, 0.5),)),
        "vertical_off_x0": wg.Dense(3.0, ((z_c, 0.5),)),
    }[kind]


_PARABOLIC = wg.Parabolic(L=10.0)
_SEPARABLE_CASES = [
    pytest.param(spec, _kind_geometry(kind, z_c), id=f"{kind}-{name}")
    for kind in ("vertical", "two_interval", "horizontal", "planar", "vertical_off_x0")
    for spec, z_c, name in ((wg.HomogeneousDD(L=20.0), 11.0, "dd"),
                            (wg.HomogeneousDN(L=20.0), 11.0, "dn"),
                            (_PARABOLIC, 1.0, "parabolic"))
] + [
    # parabolic depth segments at k_o = 1: the Taylor series (h <= 1/2)
    # where the Wronskian end brackets cancel, both sides of the switch,
    # one segment of each kind, a segment across the last turning point
    # (s = 3 at z = 9.49), and 500 modes
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((1.0, 1e-6),)), id="h1e-6-parabolic"),
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((1.0, 1e-3),)), id="h1e-3-parabolic"),
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((1.0, 0.4999),)), id="below_switch-parabolic"),
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((1.0, 0.5001),)), id="above_switch-parabolic"),
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((-1.0, 0.3), (3.0, 1.5))),
                 id="short_and_long-parabolic"),
    pytest.param(_PARABOLIC, wg.Dense(0.0, ((9.0, 2.0),)), id="turning_point-parabolic"),
    pytest.param(wg.Parabolic(L=1000.0), wg.Dense(0.0, ((100.0, 40.0),)),
                 id="L1000_h40-parabolic"),
]


@pytest.mark.parametrize("spec, geom", _SEPARABLE_CASES)
def test_separable_gram_matches_quadrature(spec, geom):
    ms = wg.solve_modes(spec, 1.0)
    sep = wg.coupling_matrix(ms, geom).A
    quad = _quadrature_gram(ms, geom)
    assert np.abs(sep - quad).max() < 1e-10 * np.abs(sep).max()


def test_parabolic_gram_memory_flat_in_aperture_length():
    # the closed form reads the modes at the segment ends only; a sampled
    # depth factor over [-500, 500] would hold node-by-mode matrices
    ms = wg.solve_modes(wg.Parabolic(L=200.0), 1.0)
    geom = wg.Dense(0.0, ((0.0, 500.0),))
    tracemalloc.start()
    try:
        wg.coupling_matrix(ms, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_large_planar_gram_trace():
    # trace A = sum_j Z_jj since X_jj = 1; the depth average of
    # sum_j (2/L) sin^2(alpha_j z) over [z_a - a, z_a + a] in closed form
    L, z_a, a = 200.0, 100.0, 40.0
    ms = wg.solve_modes(wg.HomogeneousDD(L=L), 1.0)
    cm = wg.coupling_matrix(ms, wg.Dense(((0.0, a),), ((z_a, a),)))
    al = ms.alpha
    avg = (1.0 - (np.sin(2 * al * (z_a + a)) - np.sin(2 * al * (z_a - a)))
           / (4 * al * a)) / L
    assert cm.d.size == ms.n_modes == 63
    assert abs(cm.d.sum() - avg.sum()) < 1e-10 * avg.sum()


def _direct_depth_factor(ms, mu_z):
    # the N^2 formula: cos and sinc on every a_j - a_l and a_j + a_l
    al = ms.alpha
    dm, dp = al[:, None] - al[None, :], al[:, None] + al[None, :]
    sign = -1.0 if isinstance(ms.spec, wg.HomogeneousDD) else 1.0
    total = sum(h for _, h in mu_z)
    return sum((h / total) * (np.cos(dm * b) * np.sinc(dm * h / np.pi)
                              + sign * np.cos(dp * b) * np.sinc(dp * h / np.pi))
               for b, h in mu_z) / ms.spec.L


@pytest.mark.parametrize("segments", [((0.43, 0.1),), ((0.2, 0.05), (0.6, 0.15), (0.9, 0.02))],
                         ids=["one_segment", "three_segments"])
@pytest.mark.parametrize("spec, n", [
    (wg.HomogeneousDD(L=4.0), 1), (wg.HomogeneousDN(L=4.0), 1),
    (wg.HomogeneousDD(L=7.0), 2), (wg.HomogeneousDN(L=7.0), 2),
    (wg.HomogeneousDD(L=202.0), 64), (wg.HomogeneousDN(L=200.0), 64),
    (wg.HomogeneousDD(L=1000.0), 318), (wg.HomogeneousDN(L=1000.0), 318),
], ids=lambda v: type(v).__name__[-2:] if isinstance(v, tuple) else f"N{v}")
def test_structured_depth_factor_matches_direct_formula(spec, n, segments):
    ms = wg.solve_modes(spec, 1.0)
    assert ms.n_modes == n
    mu_z = tuple((b * spec.L, h * spec.L) for b, h in segments)
    Z = ms.segment_gram(mu_z)
    ref = _direct_depth_factor(ms, mu_z)
    assert Z.shape == (n, n) and Z.dtype == np.float64
    assert np.abs(Z - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("geom", [
    wg.Dense(((0.0, 40.0),), 71.3),
    wg.Dense(((40.0, 40.0),), 71.3),
    wg.Dense(((-25.0, 10.0),), 133.0),
    wg.Dense(((1000.0, 60.0),), 71.3),
    wg.Dense(((0.0, 10.0),), ((100.0, 10.0),)),
    wg.Dense(((12.5, 10.0),), ((100.0, 10.0),)),
    wg.Dense(35.0, ((100.0, 40.0),)),
], ids=["horizontal_at_0", "horizontal_at_40", "horizontal_at_-25", "horizontal_at_1000",
        "planar_at_0", "planar_at_12.5", "vertical_at_35"])
def test_centred_spectrum_matches_true_position_eigenvalues(monkeypatch, geom):
    # a range translation is a unitary similarity: the eigenvalues of the
    # true-position Gram, from a real Gram about x = 0
    ms = wg.solve_modes(wg.HomogeneousDD(L=200.0), 1.0)
    d = wg.coupling_matrix(ms, geom).d
    eigvalsh, factored = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: factored.append(A.dtype) or eigvalsh(A))
    spectrum = wg.coupling_spectrum(ms, geom)
    assert factored == [np.dtype(np.float64)]
    assert np.abs(spectrum - d).max() <= ms.n_modes * np.finfo(float).eps * d[0]


@pytest.mark.parametrize("geom", [
    wg.Discrete(wg.horizontal_line(20, 11.0, 3.0)),
    wg.Dense(((1.5, 1.5), (10.0, 2.0)), 11.0),
], ids=["discrete", "two_range_segments"])
def test_spectrum_geometry_left_in_place(ms_dd20, monkeypatch, geom):
    # a receiver set, or a range measure no one translation centres, is
    # factored where it is
    gram, seen = estimate._gram, []
    monkeypatch.setattr(estimate, "_gram", lambda ms, g: seen.append(g) or gram(ms, g))
    spectrum = wg.coupling_spectrum(ms_dd20, geom)
    assert seen == [geom]  # a Discrete compares by identity
    d = wg.coupling_matrix(ms_dd20, geom).d
    assert np.abs(spectrum - d).max() <= ms_dd20.n_modes * np.finfo(float).eps * d[0]


def test_discrete_coupling_spectrum_is_scaled_squared_svd(ms_dd20, vertical_points):
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(vertical_points))
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    assert np.allclose(cm.d, sm.s**2 / 20.0, rtol=1e-6, atol=1e-14 * cm.d[0])


def test_projection_of_noiseless_data(ms_dd20, src_ref, vertical_points):
    # b = D V^dag a_o for exact mode-sum samples
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    geom = wg.Discrete(vertical_points)
    fs = wg.sample_field(ms_dd20, a_o, geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    b = wg.project_reduced(fs, cm, ms_dd20)
    expect = cm.d * (cm.V.conj().T @ a_o)
    assert np.abs(b - expect).max() < 1e-12 * np.abs(b).max()


def test_full_aperture_projection_rescales_amplitudes(ms_dd20, src_ref):
    # with A = I/L the back-projected estimate is a_o / L before filtering
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    geom = wg.Dense(0.0, ((10.0, 10.0),))
    fs = wg.sample_field(ms_dd20, a_o, geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    b = wg.project_reduced(fs, cm, ms_dd20)
    assert np.linalg.norm(cm.V @ b - a_o / 20.0) < 1e-10 * np.linalg.norm(a_o)


def test_both_routes_recover_amplitudes_when_well_conditioned(
        ms_dd20, src_ref, spread_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    geom = wg.Discrete(spread_points)
    fs = wg.sample_field(ms_dd20, a_o, geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    a_cpl = wg.estimate_amplitudes(wg.project_reduced(fs, cm, ms_dd20), cm, None)
    sm = wg.sensing_matrix(ms_dd20, spread_points)
    a_svd = _svd_estimate(fs.values, sm, None)
    scale = np.linalg.norm(a_o)
    assert np.linalg.norm(a_cpl - a_o) < 1e-9 * scale
    assert np.linalg.norm(a_svd - a_o) < 1e-9 * scale


def test_svd_recovery_on_narrow_aperture(ms_dd20, src_ref, vertical_points):
    # cond(B) ~ 6e9, so plain inversion still reconstructs to ~cond * eps
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    a_hat = _svd_estimate(sm.B @ a_o, sm, None)
    assert np.linalg.norm(a_hat - a_o) < 1e-4 * np.linalg.norm(a_o)


def test_zero_data_gives_zero_estimate(ms_dd20, vertical_points):
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    assert np.all(_svd_estimate(np.zeros(20, complex), sm, wg.Tikhonov(1e-6)) == 0)
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(vertical_points))
    assert np.all(wg.estimate_amplitudes(np.zeros(6), cm, wg.Tikhonov(1e-6)) == 0)


def test_tikhonov_residual_identity():
    d = np.logspace(-8, 1, 30)
    reg = wg.Tikhonov(1e-4)
    expect = reg.eps**2 / (d**2 + reg.eps**2)
    assert np.allclose(reg.residual(d), expect, rtol=1e-14)


def test_hard_threshold_above_top_kills_everything(ms_dd20, src_ref, vertical_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    a_hat = _svd_estimate(sm.B @ a_o, sm, wg.HardThreshold(2 * sm.s[0]))
    assert np.all(a_hat == 0)


def test_unregularized_inversion_refuses_singular_spectrum(
        ms_dd20, vertical_points):
    # narrow vertical aperture: coupling eigenvalues span ~20 decades
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(vertical_points))
    with pytest.raises(wg.SingularUnregularized):
        wg.estimate_amplitudes(np.zeros(6), cm, None)
    # exactly repeated receiver rows make B rank deficient
    pts = np.array([[0.0, 3.0], [0.0, 3.0], [0.0, 7.0],
                    [0.0, 9.0], [0.0, 12.0], [0.0, 15.0]])
    sm = wg.sensing_matrix(ms_dd20, pts)
    with pytest.raises(wg.SingularUnregularized):
        _svd_estimate(np.zeros(6, complex), sm, None)


def test_unregularized_inversion_refuses_an_all_zero_spectrum(ms_parab10):
    # every mode vanishes on depths [145, 155] of the L = 10 graded guide,
    # so every eigenvalue is 0: plain inversion would divide by zero
    cm = wg.coupling_matrix(ms_parab10, wg.Dense(0.0, ((150.0, 5.0),)))
    assert not cm.d.any()
    with pytest.raises(wg.SingularUnregularized):
        wg.estimate_amplitudes(np.zeros(5), cm, None)


def test_reg_policy_picks_regularizer(ms_dd20, src_ref, vertical_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    heur = heuristic_eps(1e-3, a_o)
    for policy, expected in ((wg.RegPolicy(), wg.Tikhonov(heur)),
                             (wg.RegPolicy(wg.HardThreshold), wg.HardThreshold(heur)),
                             (wg.RegPolicy(wg.Tikhonov, 0.5), wg.Tikhonov(0.5))):
        reg = policy.regularizer(1e-3, a_o)
        assert type(reg) is type(expected) and reg == expected
    assert wg.RegPolicy(None, 0.5).regularizer(1e-3, a_o) is None
    # H applied to projected noisy data, U^dag p + w conj(U), is the
    # estimate from p + w
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    p = sm.B @ a_o
    w = 1e-3 * np.abs(p).max() * np.random.default_rng(5).standard_normal(p.size)
    for reg in (wg.Tikhonov(heur), wg.HardThreshold(1e-3 * sm.s[0])):
        H = wg.filtered_basis(sm.V, sm.s, reg)
        assert H.shape == (sm.s.size, sm.s.size)
        np.testing.assert_allclose(H @ (sm.U.conj().T @ p + w @ np.conj(sm.U)),
                                   _svd_estimate(p + w, sm, reg), rtol=1e-12)


@pytest.mark.parametrize("ms_name, points", [
    ("ms_dd20", wg.vertical_line(20)),  # cond(B) ~ 6e9
    ("ms_dd20", np.column_stack([np.zeros(40), np.linspace(0.5, 19.5, 40)])),
    ("ms_parab10", np.column_stack([np.zeros(30), np.linspace(-6.0, 6.0, 30)])),
])
def test_receivers_at_x0_get_real_factors(request, src_ref, ms_name, points):
    # every trace is real at x = 0, so the SVD runs in real arithmetic
    ms = request.getfixturevalue(ms_name)
    sm = wg.sensing_matrix(ms, points)
    assert np.iscomplexobj(sm.B) and not sm.B.imag.any()
    assert np.isrealobj(sm.U) and np.isrealobj(sm.V)
    lead = sm.V[np.abs(sm.V).argmax(axis=0), np.arange(sm.s.size)]
    assert np.all(lead > 0)
    assert np.abs((sm.U * sm.s) @ sm.V.T - sm.B).max() < 1e-13 * sm.s[0]
    # the factors of the complex SVD of the same B are the reference
    U, s, Vh = np.linalg.svd(sm.B, full_matrices=False)
    ref = wg.SensingMatrix(B=sm.B, U=U, s=s, V=Vh.conj().T, points=sm.points)
    assert np.abs(sm.s - s).max() <= 1e-13 * s[0]
    tol = 1e-13 * s[0] / s[-1]
    a_o = wg.source_amplitudes(ms, src_ref)
    p = sm.B @ a_o
    p = p + 1e-6 * np.abs(p).max() * np.random.default_rng(2).standard_normal(p.size)
    for reg in (None, wg.Tikhonov(heuristic_eps(1e-6, a_o)), wg.HardThreshold(1e-3 * s[0])):
        a, a_ref = _svd_estimate(p, sm, reg), _svd_estimate(p, ref, reg)
        assert np.linalg.norm(a - a_ref) <= tol * np.linalg.norm(a_ref)
        H = wg.filtered_basis(sm.V, sm.s, reg)
        assert np.isrealobj(H)
        # the estimator H U^dag; H alone depends on each SVD's phases
        G, G_ref = (wg.filtered_basis(f.V, f.s, reg) @ f.U.conj().T for f in (sm, ref))
        assert np.linalg.norm(G - G_ref) <= tol * np.linalg.norm(G_ref)


def test_planar_receivers_keep_complex_factors(ms_dd20):
    sm = wg.sensing_matrix(ms_dd20, wg.lhs_design(20, (0.0, 11.0), 0.125, seed=10))
    assert sm.B.imag.any()
    assert sm.U.imag.any() and sm.V.imag.any()
    assert np.abs((sm.U * sm.s) @ sm.V.conj().T - sm.B).max() < 1e-13 * sm.s[0]


def test_too_few_receivers(ms_dd20):
    with pytest.raises(wg.TooFewReceivers):
        wg.sensing_matrix(ms_dd20, np.zeros((5, 2)))


def test_mismatch_errors(ms_dd20, src_ref, vertical_points, spread_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    fs = wg.sample_field(ms_dd20, a_o, wg.Discrete(vertical_points))
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(spread_points))
    with pytest.raises(wg.GeometryMismatch):
        wg.project_reduced(fs, cm, ms_dd20)
    # another geometry type never matches a receiver set
    with pytest.raises(wg.GeometryMismatch):
        wg.project_reduced(fs, wg.coupling_matrix(ms_dd20, wg.Dense(0.0, ((10.0, 10.0),))),
                           ms_dd20)
    with pytest.raises(wg.GeometryMismatch):
        wg.estimate_amplitudes(np.zeros(4), cm, wg.Tikhonov(1e-6))


def test_mse_limits(ms_dd20, src_ref, vertical_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    # noiseless, weak filter: error vanishes
    assert mse_decomposition(sm, a_o, 0.0, 1e-15).mse < 1e-18
    # overwhelming filter: bias saturates at ||a_o||^2
    rep = mse_decomposition(sm, a_o, 1e-3, 1e8)
    assert rep.bias_sq == pytest.approx(np.linalg.norm(a_o) ** 2, rel=1e-6)
    assert rep.variance < 1e-20
    assert rep.mse == rep.bias_sq + rep.variance
    # hard threshold: the modes at or below eps are lost whole (bias), the
    # rest inverted exactly (variance)
    eps = np.sqrt(sm.s[2] * sm.s[3])
    rep = mse_decomposition(sm, a_o, 1e-3, wg.HardThreshold(eps))
    coeff = np.abs(sm.V.conj().T @ a_o) ** 2
    assert rep.bias_sq == pytest.approx(np.sum(coeff[sm.s <= eps]), rel=1e-12)
    assert rep.variance == pytest.approx(1e-6 * np.sum(sm.s[sm.s > eps] ** -2.0), rel=1e-12)


def test_mse_plain_inversion_matches_tikhonov_zero(
        ms_dd20, src_ref, spread_points, vertical_points):
    # reg.kind = none hands mse_decomposition the regularizer None
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    for op in (wg.sensing_matrix(ms_dd20, spread_points),
               wg.coupling_matrix(ms_dd20, wg.Discrete(spread_points))):
        plain = mse_decomposition(op, a_o, 1e-3, None)
        ref = mse_decomposition(op, a_o, 1e-3, wg.Tikhonov(0.0))
        assert plain.bias_sq == ref.bias_sq == 0.0
        assert plain.variance == ref.variance > 0.0
    # narrow vertical aperture: coupling eigenvalues span ~20 decades
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(vertical_points))
    with pytest.raises(wg.SingularUnregularized):
        mse_decomposition(cm, a_o, 1e-3, None)


def test_coupling_projection_noise_covariance(ms_dd20, vertical_points):
    # Cov(b) = (sigma_s^2 / M) D for per-receiver noise of std sigma_s
    cm = wg.coupling_matrix(ms_dd20, wg.Discrete(vertical_points))
    C = wg.synth.mode_traces(ms_dd20, vertical_points)
    rng = np.random.default_rng(5)
    trials = 4000
    W = (rng.standard_normal((trials, 20)) + 1j * rng.standard_normal((trials, 20)))
    W /= np.sqrt(2.0)  # unit per-sample variance
    Bn = (W / 20.0) @ (C.conj() @ cm.V)
    emp = np.mean(np.abs(Bn) ** 2, axis=0)
    expect = cm.d / 20.0
    assert np.allclose(emp[:3], expect[:3], rtol=0.05)


def test_mse_variance_scale_matches_monte_carlo(ms_dd20, src_ref, vertical_points):
    # sensing route: variance = sigma^2 sum psi(s)^2, checked against draws
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    sigma, reg = 1e-4, wg.Tikhonov(1e-3)
    rng = np.random.default_rng(11)
    trials = 3000
    W = sigma / np.sqrt(2) * (rng.standard_normal((trials, 20))
                              + 1j * rng.standard_normal((trials, 20)))
    base = _svd_estimate(sm.B @ a_o, sm, reg)
    errs = np.array([np.linalg.norm(_svd_estimate(sm.B @ a_o + w, sm, reg) - base) ** 2
                     for w in W])
    assert errs.mean() == pytest.approx(
        mse_decomposition(sm, a_o, sigma, reg).variance, rel=0.08)


def test_optimal_epsilon_tracks_heuristic(ms_dd20, src_ref, vertical_points):
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    sigma = 1e-6
    heur, scanned = optimal_epsilon(sm, a_o, sigma)
    assert heur == pytest.approx(sigma * np.sqrt(6) / np.linalg.norm(a_o), rel=1e-12)
    assert 0.1 < scanned / heur < 10.0
    assert (mse_decomposition(sm, a_o, sigma, scanned).mse
            <= mse_decomposition(sm, a_o, sigma, heur).mse * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(d=st.floats(min_value=1e-8, max_value=1e4),
       eps=st.floats(min_value=1e-10, max_value=1e6))
def test_filter_shrinkage_bounds(d, eps):
    # d^2/(d^2+eps^2) <= 1 holds exactly; the two-step float product
    # d * (d/(d^2+eps^2)) can land a couple ulps above it
    up = 1.0 + 4 * np.finfo(float).eps
    dv = np.array([d])
    t = (dv * wg.Tikhonov(eps).filter(dv)).item()
    assert 0.0 < t <= up
    h = (dv * wg.HardThreshold(eps).filter(dv)).item()
    assert h == 0.0 or h == pytest.approx(1.0)
    assert 0.0 <= wg.Tikhonov(eps).residual(dv).item() <= up


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tikhonov_filter_where_its_denominator_underflows():
    # the singular values and eps of a vertical line at z_a = 87.5 in the
    # L = 10 graded guide: d^2 + eps^2 reads 4.5e-321 (subnormal) for the
    # first and 0 for the second, where the plain quotient is 0/0
    eps, d = 5.2e-164, [6.7e-161, 3.0e-179]
    exact = [float(Fraction(x) / (Fraction(x) ** 2 + Fraction(eps) ** 2)) for x in d]
    np.testing.assert_allclose(wg.Tikhonov(eps).filter(d), exact, rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(d=st.lists(st.floats(min_value=1e-150, max_value=1e150), min_size=1, max_size=8),
       sign=st.sampled_from([1.0, -1.0]),
       eps=st.one_of(st.just(0.0), st.floats(min_value=1e-150, max_value=1e150)))
def test_tikhonov_filter_keeps_the_plain_quotient_bits(d, sign, eps):
    # wherever d^2 + eps^2 is a normal float, the filter is that quotient, bit for bit
    d = sign * np.array(d)
    assert np.array_equal(wg.Tikhonov(eps).filter(d), d / (d * d + eps * eps))
