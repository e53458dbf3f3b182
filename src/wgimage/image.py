"""Migration imaging of estimated mode amplitudes.

The imaging function backpropagates the amplitude vector through the
guided-mode phases over a rectangular search region; its modulus peaks
at the source position with a spot width at the resolution limit of
half a wavelength.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch
from .estimate import _backproject
from .modes import Parabolic


def _axis(lo, hi, step):
    # nodes lo + i*step for i*step < hi - lo + step/2: the stated extent
    # is always covered, the last node may overshoot hi by up to step/2
    n = int(np.ceil((hi - lo) / step + 0.5 - 1e-12))
    return lo + step * np.arange(n)


@dataclass(frozen=True)
class SearchGrid:
    """Rectangular grid x_min..x_max by z_min..z_max with steps dx, dz.

    The x range must sit beyond the array aperture so the migrated field
    is purely outgoing over the region.
    """

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    dx: float
    dz: float

    def __post_init__(self):
        if self.dx <= 0 or self.dz <= 0:
            raise ValueError("grid steps must be positive")

    @property
    def x(self):
        return _axis(self.x_min, self.x_max, self.dx)

    @property
    def z(self):
        return _axis(self.z_min, self.z_max, self.dz)


def default_grid(ms, x_min=50.0, x_max=150.0, step_fraction=20.0):
    """Search region with lambda_o / step_fraction spacing in both axes;
    z spans the transverse domain (symmetric about 0 for the graded
    profile, the full slab otherwise)."""
    h = ms.lambda_o / step_fraction
    if isinstance(ms.spec, Parabolic):
        z_min, z_max = -ms.spec.L, ms.spec.L
    else:
        z_min, z_max = 0.0, ms.spec.L
    return SearchGrid(x_min, x_max, z_min, z_max, h, h)


@dataclass
class ImageMap:
    """Complex image values indexed [ix, iz] on a SearchGrid."""

    values: np.ndarray
    grid: SearchGrid

    def normalize(self):
        """Modulus divided by its maximum, as plotted in the figures; a
        normalized image normalizes to itself, bit for bit."""
        mod = np.abs(self.values)
        peak = mod.max()
        return ImageMap(mod / peak if peak > 0 else mod, self.grid)


def migrate(a, ms, grid):
    """I[a](x,z) = 2i sum_j beta_j e^{i beta_j x} phi_j(z) conj(a_j).

    The grid evaluation is separable: a phase matrix over x and a
    profile matrix over z."""
    a = np.asarray(a)
    if a.shape != (ms.n_modes,):
        raise GeometryMismatch(f"amplitude length {a.shape} != mode count {ms.n_modes}")
    coeff = 2j * ms.beta * np.conj(a)
    E = np.exp(1j * np.outer(grid.x, ms.beta))
    P = ms.profile_matrix(grid.z)
    return ImageMap((E * coeff[None, :]) @ P.T, grid)


def reverse_time(fs, cm, ms, grid):
    """Migration driven directly by the recorded field: the data are
    projected on the mode traces, m_j = int p conj(phi_j e^{-i beta_j x}) dmu,
    and m is migrated. For noiseless data m = A a_o, so the result is
    I[A a_o] and coincides with (1/L) I[a_o] at full aperture."""
    return migrate(_backproject(fs, cm, ms), ms, grid)


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
    (closed ball: exactly lambda_o/2 counts as success)."""
    dx = peak[0] - src.x_o
    dz = peak[1] - src.z_o
    return bool(np.hypot(dx, dz) <= 0.5 * lambda_o)
