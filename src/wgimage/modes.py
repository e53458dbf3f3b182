"""Waveguide models and their guided-mode basis.

Three analytic models are supported: a homogeneous waveguide with
Dirichlet conditions at both boundaries, a homogeneous waveguide with a
Neumann condition at z=0 and Dirichlet at z=L, and an ideal parabolic
profile 1/c^2(z) = (1/c_o^2)(1 - z^2/L^2) on the unbounded transverse
line. Mode profiles, transverse and axial wavenumbers are exact closed
forms; no numerical eigensolver is involved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoGuidedModes


@dataclass(frozen=True)
class HomogeneousDD:
    """Constant speed c_o on [0, L], Dirichlet at z=0 and z=L."""

    L: float
    c_o: float = 1.0


@dataclass(frozen=True)
class HomogeneousDN:
    """Constant speed c_o on [0, L], Neumann at z=0, Dirichlet at z=L.

    The cos((j-1/2)pi z/L) basis is a standard choice for this pair of
    conditions; it is supplied by the implementation, not taken from a
    reference solution.
    """

    L: float
    c_o: float = 1.0


@dataclass(frozen=True)
class Parabolic:
    """Parabolic index profile with scale L: 1/c^2(z) = (1/c_o^2)(1 - z^2/L^2)."""

    L: float
    c_o: float = 1.0


def hermite_functions(mmax, s):
    """Evaluate the normalized Gauss-Hermite functions f_0..f_mmax at s.

    Uses the stable three-term recurrence on the normalized functions,
    f_0 = pi^{-1/4} e^{-s^2/2}, f_1 = sqrt(2) s f_0,
    f_{m+1} = sqrt(2/(m+1)) s f_m - sqrt(m/(m+1)) f_{m-1},
    so no factorials appear. Returns an (mmax+1, len(s)) array.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty((mmax + 1, s.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * s**2)
    if mmax >= 1:
        out[1] = np.sqrt(2.0) * s * out[0]
    for m in range(1, mmax):
        out[m + 1] = np.sqrt(2.0 / (m + 1)) * s * out[m] - np.sqrt(m / (m + 1.0)) * out[m - 1]
    return out


def hermite_derivative(f):
    """d/ds of rows f_0..f_mmax of `hermite_functions` (or of one order
    of their derivatives), by the ladder
    f_m' = sqrt(m/2) f_{m-1} - sqrt((m+1)/2) f_{m+1}. The step drops the
    top row, which would need f_{mmax+1}: returns rows 0..mmax-1. Each
    row depends only on its two neighbours, so a taller f gives the same
    bits in the rows they share."""
    m1 = np.arange(1.0, f.shape[0])[:, None]  # m + 1
    df = -np.sqrt(m1 / 2.0) * f[1:]
    df[1:] += np.sqrt(m1[:-1] / 2.0) * f[:-2]
    return df


class ModeSet:
    """Guided-mode basis of a waveguide at a fixed frequency.

    Modes are stored as a dense 0-based list; `paper_index_offset` maps a
    list position to the conventional mode label (1..N for the
    homogeneous models, 0..N for the parabolic one). All axial
    wavenumbers beta_j are real and strictly positive and the list is
    ordered so that beta is strictly decreasing.
    """

    def __init__(self, spec, omega, alpha, beta, paper_index_offset):
        self.spec = spec
        self.omega = float(omega)
        self.k_o = float(omega) / spec.c_o
        self.lambda_o = 2.0 * np.pi / self.k_o
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.paper_index_offset = paper_index_offset

    @property
    def n_modes(self):
        return self.beta.size

    def profile_matrix(self, z, q=0):
        """Matrix of phi_j^{(q)}(z) values, shape (len(z), n_modes)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        spec = self.spec
        if isinstance(spec, (HomogeneousDD, HomogeneousDN)):
            # d^q/dz^q sin(az) = a^q sin(az + q pi/2), same shift for cos
            arg = np.outer(z, self.alpha) + q * np.pi / 2.0
            trig = np.sin(arg) if isinstance(spec, HomogeneousDD) else np.cos(arg)
            return np.sqrt(2.0 / spec.L) * self.alpha**q * trig
        gam = np.sqrt(self.k_o / spec.L)
        f = hermite_functions(self.n_modes - 1 + q, gam * z)
        for _ in range(q):
            f = hermite_derivative(f)
        return gam ** (0.5 + q) * np.ascontiguousarray(f.T)


def solve_modes(spec, omega):
    """Compute the guided-mode basis of `spec` at angular frequency omega.

    Guided modes are the eigenfunctions with strictly positive axial
    eigenvalue beta_j^2; the count follows from the cutoff condition of
    each model. Raises NoGuidedModes when the frequency is below the
    first cutoff.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    k_o = omega / spec.c_o
    L = spec.L
    if isinstance(spec, HomogeneousDD):
        j = np.arange(1, int(np.floor(k_o * L / np.pi)) + 2)
        alpha = np.pi * j / L
        offset = 1
    elif isinstance(spec, HomogeneousDN):
        j = np.arange(1, int(np.floor(k_o * L / np.pi + 0.5)) + 2)
        alpha = (j - 0.5) * np.pi / L
        offset = 1
    elif isinstance(spec, Parabolic):
        j = np.arange(0, int(np.ceil((k_o * L - 1.0) / 2.0)) + 1)
        alpha = np.sqrt((2.0 * j + 1.0) * k_o / L)
        offset = 0
    else:
        raise TypeError(f"unknown waveguide model {type(spec).__name__}")
    keep = alpha < k_o
    alpha = alpha[keep]
    if alpha.size == 0:
        raise NoGuidedModes(f"no guided modes at omega={omega} for {spec}")
    beta = np.sqrt(k_o**2 - alpha**2)
    return ModeSet(spec, omega, alpha, beta, offset)
