import math

import numpy as np
import pytest

import wgimage as wg
from wgimage.rank import (
    dense_rank_prediction,
    moment_family,
    span_rank_collapse,
    taylor_rank_prediction,
)


def test_effective_rank_absolute_threshold_is_inclusive():
    # reference planar spectrum: the fifth entry sits exactly on 1e-4
    spec = np.array([2.4, 0.12, 0.03, 2e-3, 1e-4, 5e-6])
    assert wg.effective_rank(spec, 1e-4) == 5


def test_effective_rank_plateau_half():
    for spec, rank in ((np.ones(7), 7), (np.array([1.0, 0.51, 0.49]), 2)):
        assert wg.effective_rank(spec, 0.5 * spec[0]) == rank


def test_effective_rank_empty_raises():
    with pytest.raises(wg.EmptySpectrum):
        wg.effective_rank(np.array([]), 0.0)


def test_narrow_vertical_rank(ms_dd20, vertical_points):
    sm = wg.sensing_matrix(ms_dd20, vertical_points)
    assert wg.effective_rank(sm.s, 1e-7) == 5


def test_dense_rank_prediction_formulas():
    lam = 2 * np.pi
    assert dense_rank_prediction("vertical", [(3.0, lam)], lam, 100) == 4.0
    assert dense_rank_prediction("horizontal", [(0.0, lam)], lam, 100) == 2.0
    # segment positions are irrelevant, totals add
    two = dense_rank_prediction("vertical", [(1.0, lam), (9.0, lam)], lam, 100)
    assert two == 8.0
    # never more than the number of guided modes
    assert dense_rank_prediction("vertical", [(0.0, 100 * lam)], lam, 30) == 30.0
    with pytest.raises(ValueError):
        dense_rank_prediction("diagonal", [(0.0, 1.0)], lam, 10)


def test_taylor_rank_reference_points():
    assert taylor_rank_prediction(0.125, 1e-7).Q == 5
    t = taylor_rank_prediction(0.125, 1e-4)
    assert (t.Q, t.linear, t.planar) == (3, 3, 5)
    assert taylor_rank_prediction(0.125, 1e-4, n_cap=2).linear == 2
    assert taylor_rank_prediction(0.125, 2.0) == wg.rank.TaylorRank(0, 0, 0)
    assert taylor_rank_prediction(0.125, math.inf) == wg.rank.TaylorRank(0, 0, 0)
    with pytest.raises(ValueError):
        taylor_rank_prediction(1.5, 1e-4)
    # an eps that is not > 0 has no log: refused by name, NaN included
    for eps in (0.0, -1e-4, -math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be > 0"):
            taylor_rank_prediction(0.125, eps)


def test_taylor_rank_matches_explicit_scan():
    # against a brute-force nearest-in-log search over every q < 200, with
    # log q! exact; k_o a near 1 and eps down to 1e-300 reach Q ~ 170
    for koa in (0.05, 0.125, 0.4, 0.9, 0.999999):
        for eps in (1e-2, 1e-4, 1e-7, 1e-12, 1e-100, 1e-300):
            vals = [abs(q * math.log(koa) - math.log(math.factorial(q)) - math.log(eps))
                    for q in range(200)]
            assert taylor_rank_prediction(koa, eps).Q == int(np.argmin(vals))
    assert taylor_rank_prediction(0.999999, 1e-300).Q > 160


def test_moment_family_values(ms_dd20, vertical_points):
    with pytest.raises(ValueError, match="Q must be >= 1"):
        moment_family(ms_dd20, 11.0, vertical_points, 0)
    mf = moment_family(ms_dd20, 11.0, vertical_points, 3)
    assert set(mf.u) == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    prof = ms_dd20.profile_matrix(np.array([11.0]))[0]
    assert np.allclose(mf.u[(0, 0)], prof, rtol=1e-13)
    assert np.allclose(mf.u[(2, 0)], ms_dd20.beta**2 * prof, rtol=1e-13)
    # v_{0,1} = z - z_a, v_{1,0} = i x
    assert np.allclose(mf.v[(0, 1)], vertical_points[:, 1] - 11.0)
    assert np.allclose(mf.v[(1, 0)], 1j * vertical_points[:, 0])


@pytest.mark.parametrize("spec, z_a", [
    (wg.HomogeneousDD(L=20.0), 11.0), (wg.HomogeneousDN(L=20.0), 11.0),
    (wg.Parabolic(L=10.0), 2.0), (wg.Parabolic(L=1000.0), 2.0),
], ids=["dd", "dn", "parabolic10", "parabolic1000"])
def test_moment_family_reads_the_profile_derivatives(spec, z_a):
    ms = wg.solve_modes(spec, 1.0)
    mf = moment_family(ms, z_a, np.zeros((1, 2)), 5)
    assert len(mf.u) == 15
    for (q, qp), u in mf.u.items():
        assert np.array_equal(u, ms.beta ** q * ms.derivatives(np.array([z_a]), qp)[qp][0])


def test_moment_reconstruction_converges(ms_dd20):
    # on a subwavelength planar patch the truncated outer-product sum
    # sum_{q+q'<=Q-1} conj(v) u^T approaches B as Q grows, with error
    # ~ (k_o a)^Q / Q!
    pts = wg.lhs_design(20, (0.0, 11.0), 0.125, seed=10)
    B = wg.sensing_matrix(ms_dd20, pts).B
    scale = np.abs(B).max()
    prev = np.inf
    for Q in (2, 3, 4, 5, 6):
        mf = moment_family(ms_dd20, 11.0, pts, Q)
        err = np.abs(sum(np.outer(np.conj(mf.v[key]), u) for key, u in mf.u.items()) - B).max()
        koa = 0.125 * np.sqrt(2.0)  # corner of the patch
        budget = 10 * koa**Q / math.factorial(Q)
        assert err < budget * scale
        assert err < prev
        prev = err


def test_span_collapse_counts(ms_dd20):
    for Q in (1, 2, 3):
        sr = span_rank_collapse(moment_family(ms_dd20, 11.0, np.zeros((1, 2)), Q))
        assert sr.rank == sr.expected == 2 * Q - 1
        if Q > 1:
            assert sr.gap > 1e3


def test_span_collapse_parabolic_reference():
    ms = wg.solve_modes(wg.Parabolic(L=10.0), 1.0)
    sr = span_rank_collapse(moment_family(ms, 2.0, np.zeros((1, 2)), 3))
    assert sr.rank == 5
    assert sr.gap > 1e3


def test_horizontal_spectrum_below_vertical(ms_dd20):
    # same aperture size: the horizontal array resolves fewer modes, so
    # its singular values decay faster from the second one on
    sv = wg.sensing_matrix(ms_dd20, wg.vertical_line(20)).s
    sh = wg.sensing_matrix(ms_dd20, wg.horizontal_line(20)).s
    assert np.all(sh[1:] < sv[1:])


def test_two_interval_coupling_is_measure_convex(ms_dd20):
    # the union Gram is the length-weighted average of the per-segment
    # Grams: lengths 1 and 4 give weights 0.2 and 0.8
    union = wg.Dense(0.0, ((5.0, 0.5), (15.0, 2.0)))
    A_u = wg.coupling_matrix(ms_dd20, union).A
    A_1 = wg.coupling_matrix(ms_dd20, wg.Dense(0.0, ((5.0, 0.5),))).A
    A_2 = wg.coupling_matrix(ms_dd20, wg.Dense(0.0, ((15.0, 2.0),))).A
    assert np.abs(A_u - (0.2 * A_1 + 0.8 * A_2)).max() < 1e-13


def test_vertical_rank_position_independent(ms_dd20):
    # dense plateau rank depends on aperture length, not placement
    ranks = []
    for b in (5.0, 10.0, 15.0):
        cm = wg.coupling_matrix(ms_dd20, wg.Dense(0.0, ((b, 5.0),)))
        ranks.append(wg.effective_rank(cm.d, 0.5 * cm.d[0]))
    assert max(ranks) - min(ranks) <= 2
