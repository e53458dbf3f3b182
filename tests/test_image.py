import numpy as np
import pytest

import wgimage as wg
from wgimage.synth import mode_traces


@pytest.fixture(scope="module")
def a_ref(ms_dd20, src_ref):
    return wg.source_amplitudes(ms_dd20, src_ref)


def test_zero_amplitudes_give_zero_image(ms_dd20):
    grid = wg.SearchGrid(90, 110, 0, 20, 0.5, 0.5)
    im = wg.migrate(np.zeros(6, complex), ms_dd20, grid)
    assert np.all(im.values == 0)


def test_image_value_at_source(ms_dd20, src_ref, a_ref):
    # I[a_o](x_o, z_o) = sum_j phi_j(z_o)^2, real positive
    grid = wg.SearchGrid(src_ref.x_o, src_ref.x_o, src_ref.z_o, src_ref.z_o, 1.0, 1.0)
    im = wg.migrate(a_ref, ms_dd20, grid)
    assert im.values.shape == (1, 1)
    prof = ms_dd20.profile_matrix(np.array([src_ref.z_o]))[0]
    assert im.values[0, 0] == pytest.approx(np.sum(prof**2), rel=1e-12)


def test_peak_sits_near_source_at_fine_resolution(ms_dd20, src_ref, a_ref):
    # six guided modes displace the continuous peak a little from the
    # source, but well inside the lambda/2 resolution limit
    h = ms_dd20.lambda_o / 40.0
    grid = wg.SearchGrid(99.0, 101.0, 7.0, 8.5, h, h)
    x, z, _ = wg.locate_peak(wg.migrate(a_ref, ms_dd20, grid))
    assert np.hypot(x - src_ref.x_o, z - src_ref.z_o) <= ms_dd20.lambda_o / 8.0


def test_brute_force_double_sum():
    ms = wg.solve_modes(wg.HomogeneousDD(L=20.0), 0.35)
    assert ms.n_modes == 2
    a = np.array([0.3 - 0.1j, -0.2 + 0.5j])
    grid = wg.SearchGrid(60, 61, 4, 6, 0.45, 0.7)
    im = wg.migrate(a, ms, grid)
    for ix, x in enumerate(grid.x):
        for iz, z in enumerate(grid.z):
            val = sum(2j * ms.beta[j] * np.exp(1j * ms.beta[j] * x)
                      * np.sqrt(0.1) * np.sin(ms.alpha[j] * z) * np.conj(a[j])
                      for j in range(2))
            assert im.values[ix, iz] == pytest.approx(val, rel=1e-12)


def test_locate_peak_tie_breaks_to_first_node(ms_dd20, src_ref):
    grid = wg.SearchGrid(90, 92, 3, 5, 1.0, 1.0)
    im = wg.ImageMap(np.ones((grid.x.size, grid.z.size), complex), grid)
    x, z, v = wg.locate_peak(im)
    assert (x, z, v) == (90.0, 3.0, 1.0)
    # zero data degenerates the same way: flat image, first node wins,
    # and that node is nowhere near the source
    flat = wg.migrate(np.zeros(ms_dd20.n_modes, complex), ms_dd20, grid)
    assert wg.locate_peak(flat) == (90.0, 3.0, 0.0)
    assert not wg.localization_success(wg.locate_peak(flat), src_ref,
                                       ms_dd20.lambda_o)
    with pytest.raises(ValueError, match="empty image"):
        wg.locate_peak(wg.ImageMap(np.zeros((0, 3), complex), grid))


def test_localization_success_closed_ball(src_ref):
    # lam chosen so source + lam/2 is exactly representable: the boundary
    # itself counts as success, anything strictly beyond does not
    lam = 4.0
    at = (src_ref.x_o, src_ref.z_o, 1.0)
    on = (src_ref.x_o + 2.0, src_ref.z_o, 1.0)
    out = (src_ref.x_o + 2.0000001, src_ref.z_o, 1.0)
    assert wg.localization_success(at, src_ref, lam)
    assert wg.localization_success(on, src_ref, lam)
    assert not wg.localization_success(out, src_ref, lam)
    # the same rule on arrays of peaks, as the Monte Carlo loop reads it
    peaks = np.array([at[:2], on[:2], out[:2]]).T
    assert wg.localization_success(peaks, src_ref, lam).tolist() == [True, True, False]


def test_reverse_time_full_aperture(ms_dd20, src_ref, a_ref):
    geom = wg.Dense(0.0, ((10.0, 10.0),))
    fs = wg.sample_field(ms_dd20, a_ref, geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    grid = wg.SearchGrid(95, 105, 5, 10, 0.4, 0.4)
    rt = wg.reverse_time(fs, cm, ms_dd20, grid)
    direct = wg.migrate(a_ref, ms_dd20, grid)
    assert np.allclose(rt.values, direct.values / 20.0,
                       atol=1e-10 * np.abs(direct.values).max())


def test_reverse_time_is_migrated_backprojection(
        ms_dd20, src_ref, a_ref, vertical_points):
    geom = wg.Discrete(vertical_points)
    fs = wg.sample_field(ms_dd20, a_ref, geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    grid = wg.SearchGrid(95, 105, 5, 10, 0.4, 0.4)
    rt = wg.reverse_time(fs, cm, ms_dd20, grid)
    direct = wg.migrate(cm.A @ a_ref, ms_dd20, grid)
    assert np.allclose(rt.values, direct.values,
                       atol=1e-12 * np.abs(direct.values).max())


def test_reverse_time_zero_field(ms_dd20, vertical_points):
    geom = wg.Discrete(vertical_points)
    fs = wg.sample_field(ms_dd20, np.zeros(6, complex), geom)
    cm = wg.coupling_matrix(ms_dd20, geom)
    rt = wg.reverse_time(fs, cm, ms_dd20, wg.SearchGrid(95, 105, 5, 10, 1, 1))
    assert np.all(rt.values == 0)


def test_phase_ramp_translates_peak(ms_dd20, src_ref, a_ref):
    # multiplying a_j by e^{i beta_j d} maps I[.] to I[.](x - d), so the
    # peak moves downrange by +d
    grid = wg.SearchGrid(95, 105, 5, 10, ms_dd20.lambda_o / 20, ms_dd20.lambda_o / 20)
    x1, z1, _ = wg.locate_peak(wg.migrate(a_ref, ms_dd20, grid))
    d = grid.dx
    x2, z2, _ = wg.locate_peak(wg.migrate(a_ref * np.exp(1j * ms_dd20.beta * d),
                                          ms_dd20, grid))
    assert x2 - x1 == pytest.approx(d, rel=1e-12)
    assert z2 == z1


def test_image_modulus_bound(ms_dd20, a_ref):
    im = wg.migrate(a_ref, ms_dd20, wg.default_grid(ms_dd20))
    bound = 2 * np.sum(ms_dd20.beta * np.abs(a_ref)) * np.sqrt(2 / 20.0)
    assert np.abs(im.values).max() <= bound * (1 + 1e-12)


def test_normalize(ms_dd20, a_ref):
    im = wg.migrate(a_ref, ms_dd20, wg.SearchGrid(95, 105, 5, 10, 0.5, 0.5))
    nm = im.normalize()
    assert nm.values.max() == 1.0 and nm.values.min() >= 0.0
    assert np.array_equal(nm.normalize().values, nm.values)


def test_default_grid_shapes(ms_dd20, ms_parab10):
    g = wg.default_grid(ms_dd20)
    assert (g.x.size, g.z.size) == (319, 65)
    assert g.x[0] == 50.0 and g.z[0] == 0.0
    # the last z node covers the stated extent and may overshoot slightly
    assert g.z[-1] >= 20.0 and g.z[-1] - 20.0 < g.dz
    gp = wg.default_grid(ms_parab10)
    assert gp.z_min == -10.0 and gp.z_max == 10.0
    assert gp.z[0] == -10.0 and gp.z[-1] >= 10.0


def test_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        wg.SearchGrid(0, 1, 0, 1, 0.0, 0.1)


def test_migrate_wrong_length(ms_dd20):
    with pytest.raises(wg.GeometryMismatch):
        wg.migrate(np.zeros(4, complex), ms_dd20, wg.SearchGrid(95, 105, 5, 10, 1, 1))


def test_mode_traces_adjoint_consistency(ms_dd20, a_ref, vertical_points):
    # the image at a receiver location equals 2i sum beta_j .. built from
    # the same trace matrix used in estimation, up to the conjugate phase
    B = mode_traces(ms_dd20, vertical_points)
    x0, z0 = vertical_points[3]
    grid = wg.SearchGrid(x0, x0, z0, z0, 1, 1)
    im = wg.migrate(a_ref, ms_dd20, grid)
    val = np.sum(2j * ms_dd20.beta * np.conj(a_ref) * np.conj(B[3]))
    assert im.values[0, 0] == pytest.approx(val, rel=1e-12)
