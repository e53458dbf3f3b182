import numpy as np
import pytest

import wgimage as wg


@pytest.fixture(scope="session")
def ms_dd20():
    """Homogeneous Dirichlet-Dirichlet waveguide, L=20, omega=1: 6 modes."""
    return wg.solve_modes(wg.HomogeneousDD(L=20.0), 1.0)


@pytest.fixture(scope="session")
def ms_parab10():
    """Parabolic profile, L=10, omega=1: 5 modes."""
    return wg.solve_modes(wg.Parabolic(L=10.0), 1.0)


@pytest.fixture(scope="session")
def src_ref():
    """Reference source position used throughout the experiments."""
    return wg.PointSource(100.0, 7.7)


@pytest.fixture(scope="session")
def vertical_points():
    return wg.vertical_line(20)


@pytest.fixture(scope="session")
def spread_points():
    """Well-conditioned receiver set: 40 sensors spanning the full depth
    at x = 0 (sensing matrix condition number of order 10)."""
    z = np.linspace(0.5, 19.5, 40)
    return np.column_stack([np.zeros(40), z])
