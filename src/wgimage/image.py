"""Migration imaging of estimated mode amplitudes.

The imaging function backpropagates the amplitude vector through the
guided-mode phases over a rectangular search region; its modulus peaks
at the source position with a spot width at the resolution limit of
half a wavelength. The guide enters only through a ModeSet: its axial
wavenumbers, `profile_matrix`, and the model's `walls`, which set the
default depth span. `grid_factors` builds the range phases and the
profile matrix of a grid once, for `migrate` and for the Monte Carlo
peak search alike. Migrating the recorded field itself is
`estimate.reverse_time`.
"""

from typing import NamedTuple

import numpy as np

from . import _record
from .errors import GeometryMismatch


def _axis(lo, hi, step):
    # nodes lo + i*step for i*step < hi - lo + step/2: the stated extent
    # is always covered, the last node may overshoot hi by up to step/2
    n = int(np.ceil((hi - lo) / step + 0.5 - 1e-12))
    return lo + step * np.arange(n)


class _Box(NamedTuple):
    x_min: float
    x_max: float
    z_min: float
    z_max: float
    dx: float
    dz: float
    __eq__, __ne__ = _record.eq, _record.ne


class SearchGrid(_Box):
    """Rectangular grid x_min..x_max by z_min..z_max with steps dx, dz.

    The x range must sit beyond the array aperture so the migrated field
    is purely outgoing over the region. Steps must be positive, also in
    a grid made by `_replace`.
    """

    __slots__ = ()

    def __new__(cls, x_min, x_max, z_min, z_max, dx, dz):
        if dx <= 0 or dz <= 0:
            raise ValueError("grid steps must be positive")
        return super().__new__(cls, x_min, x_max, z_min, z_max, dx, dz)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result here; a plain namedtuple skips __new__
        return cls(*iterable)

    @property
    def x(self):
        return _axis(self.x_min, self.x_max, self.dx)

    @property
    def z(self):
        return _axis(self.z_min, self.z_max, self.dz)


def default_grid(ms, x_min=50.0, x_max=150.0, step_fraction=20.0):
    """Search region with lambda_o / step_fraction spacing in both axes;
    z spans the transverse domain: [0, L] for a guide with walls, [-L, L]
    for the unbounded graded profile."""
    h = ms.lambda_o / step_fraction
    L = ms.spec.L
    z_min = 0.0 if ms.spec.walls else -L
    return SearchGrid(x_min, x_max, z_min, L, h, h)


class ImageMap(NamedTuple):
    """Complex image values indexed [ix, iz] on a SearchGrid."""

    values: np.ndarray
    grid: SearchGrid
    __eq__, __ne__ = _record.eq, _record.ne

    def normalize(self):
        """Modulus divided by its maximum, as plotted in the figures; a
        normalized image normalizes to itself, bit for bit."""
        mod = np.abs(self.values)
        peak = mod.max()
        return ImageMap(mod / peak if peak > 0 else mod, self.grid)


def grid_factors(ms, grid):
    """The separable factors (E, PT) of an image on a SearchGrid: the
    range phases E = e^{i beta x}, shape (nx, N), and the real profile
    transpose PT, shape (N, nz), in C order. An image with mode
    coefficients c is (E * c) @ PT."""
    E = np.exp(1j * np.outer(grid.x, ms.beta))
    return E, np.ascontiguousarray(ms.profile_matrix(grid.z).T)


def migrate(a, ms, grid):
    """I[a](x,z) = 2i sum_j beta_j e^{i beta_j x} phi_j(z) conj(a_j),
    evaluated on the separable `grid_factors`."""
    a = np.asarray(a)
    if a.shape != (ms.n_modes,):
        raise GeometryMismatch(f"amplitude length {a.shape} != mode count {ms.n_modes}")
    E, PT = grid_factors(ms, grid)
    return ImageMap((E * (2j * ms.beta * np.conj(a))) @ PT, grid)


def locate_peak(im):
    """Grid node of maximal modulus as (x, z, value); ties resolve to the
    smallest x index, then the smallest z index."""
    mod = np.abs(im.values)
    if mod.size == 0:
        raise ValueError("empty image")
    ix, iz = np.unravel_index(np.argmax(mod), mod.shape)
    return float(im.grid.x[ix]), float(im.grid.z[iz]), float(mod[ix, iz])


def localization_success(peak, src, lambda_o):
    """True when the peak lies within half a wavelength of the source
    (closed ball: exactly lambda_o/2 counts as success). The peak's x and
    z may be arrays of peaks, which give an array of flags."""
    dx = peak[0] - src.x_o
    dz = peak[1] - src.z_o
    return np.hypot(dx, dz) <= 0.5 * lambda_o
