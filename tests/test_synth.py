import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgimage as wg
from wgimage.synth import array_samples, mode_traces


def test_source_amplitudes_midline_symmetry(ms_dd20):
    # at z_o = L/2 the even-labeled modes vanish: sin(pi j / 2) = 0
    a = wg.source_amplitudes(ms_dd20, wg.PointSource(100.0, 10.0))
    assert np.abs(a[1::2]).max() < 1e-15
    assert np.abs(a[0::2]).min() > 0


def test_source_amplitudes_modulus(ms_dd20, src_ref):
    a = wg.source_amplitudes(ms_dd20, src_ref)
    prof = ms_dd20.profile_matrix(np.array([src_ref.z_o]))[0]
    assert np.allclose(np.abs(a), np.abs(prof) / (2 * ms_dd20.beta), rtol=1e-13)


def test_sample_field_matches_direct_mode_sum(ms_dd20, src_ref, vertical_points):
    a = wg.source_amplitudes(ms_dd20, src_ref)
    fs = wg.sample_field(ms_dd20, a, wg.Discrete(vertical_points))
    assert fs.values.shape == (20,)
    # independent evaluation, mode by mode and point by point
    for k, (x, z) in enumerate(vertical_points):
        val = sum(
            a[j] * np.sqrt(2 / 20.0) * np.sin(ms_dd20.alpha[j] * z)
            * np.exp(-1j * ms_dd20.beta[j] * x)
            for j in range(6))
        assert fs.values[k] == pytest.approx(val, rel=1e-12)


def test_sample_field_single_mode_modulus_independent_of_x():
    ms = wg.solve_modes(wg.HomogeneousDD(L=20.0), 0.2)
    assert ms.n_modes == 1
    a = wg.source_amplitudes(ms, wg.PointSource(50.0, 7.0))
    pts = np.column_stack([np.linspace(0, 30, 10), np.full(10, 5.0)])
    fs = wg.sample_field(ms, a, wg.Discrete(pts))
    assert np.ptp(np.abs(fs.values)) < 1e-15


def test_sample_field_linearity(ms_dd20, src_ref, vertical_points):
    a = wg.source_amplitudes(ms_dd20, src_ref)
    geom = wg.Discrete(vertical_points)
    f1 = wg.sample_field(ms_dd20, a, geom)
    f2 = wg.sample_field(ms_dd20, 2.0 * a, geom)
    assert np.allclose(f2.values, 2.0 * f1.values, rtol=1e-14)


def test_full_aperture_projection_recovers_amplitudes(ms_dd20, src_ref):
    # integral over z of p(0, z) phi_j(z) equals a_{j,o}
    a_o = wg.source_amplitudes(ms_dd20, src_ref)
    geom = wg.Dense(0.0, ((10.0, 10.0),))
    fs = wg.sample_field(ms_dd20, a_o, geom)
    L = 20.0
    proj = L * (mode_traces(ms_dd20, fs.points).conj().T @ (fs.weights * fs.values))
    assert np.abs(proj - a_o).max() < 1e-8


@pytest.mark.parametrize("geom", [
    wg.Discrete(np.array([[0.0, 3.0], [0.0, 7.0], [1.0, 9.0]])),
    wg.Dense(0.0, ((11.0, 0.125),)),
    wg.Dense(0.0, ((5.0, 2.0), (15.0, 3.0))),
    wg.Dense(((0.125, 0.125),), 11.0),
    wg.Dense(((0.0, 0.125),), ((11.0, 0.125),)),
])
def test_array_measure_has_unit_mass(geom):
    _, w = array_samples(geom, 2 * np.pi)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)


def test_lhs_single_point():
    pts = wg.lhs_design(1, (0.0, 11.0), 0.125, seed=3)
    assert pts.shape == (1, 2)
    assert np.all(np.abs(pts - [0.0, 11.0]) <= 0.125)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=50),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lhs_stratification(m, seed):
    # one point per axis bin of width 2 size / M, every axis
    size = 0.125
    pts = wg.lhs_design(m, (0.0, 11.0), size, seed)
    for ax, c in enumerate((0.0, 11.0)):
        bins = np.floor((pts[:, ax] - (c - size)) / (2 * size / m)).astype(int)
        assert sorted(bins) == list(range(m))


def test_lhs_top_singular_value_stable_across_seeds(ms_dd20):
    tops = []
    for seed in range(20):
        pts = wg.lhs_design(20, (0.0, 11.0), 0.125, seed)
        tops.append(wg.sensing_matrix(ms_dd20, pts).s[0])
    tops = np.array(tops)
    assert np.all(np.abs(tops - 2.4) / 2.4 < 0.15)


def test_receiver_line_formulas():
    pts = wg.vertical_line(20)
    k = np.arange(1, 21)
    assert np.allclose(pts[:, 1], 11 + 0.25 * (k - 10) / 20)
    assert np.all(pts[:, 0] == 0)
    pth = wg.horizontal_line(20)
    assert np.allclose(pth[:, 0], 0.25 * (k - 10) / 20)
    assert np.all(pth[:, 1] == 11.0)


def test_dense_line_shapes():
    # vertical: x = 0 over depth segments, reading no depth; horizontal:
    # range segments at one depth
    segments = [(5.0, 2.0), (12.0, 1.0)]
    assert wg.dense_line("vertical", segments) == wg.Dense(0.0, ((5.0, 2.0), (12.0, 1.0)))
    assert wg.dense_line("vertical", segments, 7.0) == wg.dense_line("vertical", segments)
    assert wg.dense_line("horizontal", segments, 7.0) == wg.Dense(((5.0, 2.0), (12.0, 1.0)), 7.0)
