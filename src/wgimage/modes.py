"""Waveguide models and their guided-mode basis.

Three analytic models are supported: a homogeneous waveguide with
Dirichlet conditions at both boundaries, a homogeneous waveguide with a
Neumann condition at z=0 and Dirichlet at z=L, and an ideal parabolic
profile 1/c^2(z) = (1/c_o^2)(1 - z^2/L^2) on the unbounded transverse
line. Mode profiles, transverse and axial wavenumbers are exact closed
forms; no numerical eigensolver is involved.

Each model states its `walls`, the depths where every mode vanishes:
z = 0 and L (Dirichlet-Dirichlet), z = L (Neumann-Dirichlet), none for
the unbounded parabolic profile. A guide with walls spans [0, L].

A `ModeSet` is the one place that evaluates the basis, so only this
module knows each model's formulas: the profiles and their depth
derivatives (`derivatives`, `profile_matrix`), the depth Gram
int phi_j phi_l over segments (`segment_gram`), and the Gram X (.) Z of
an array's product measure mu_x (x) mu_z (`gram`), all in closed form
for every model. The homogeneous segment Gram relies on `solve_modes`
spacing alpha evenly.
"""

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _record
from .errors import NoGuidedModes


class _Guide(NamedTuple):
    """Scale L and reference sound speed c_o of a waveguide model; its
    `walls` are the depths where every mode vanishes."""

    L: float
    c_o: float = 1.0
    __eq__, __ne__ = _record.eq, _record.ne


class HomogeneousDD(_Guide):
    """Constant speed c_o on [0, L], Dirichlet at z=0 and z=L."""

    __slots__ = ()

    @property
    def walls(self):
        return (0.0, self.L)


class HomogeneousDN(_Guide):
    """Constant speed c_o on [0, L], Neumann at z=0, Dirichlet at z=L.

    The cos((j-1/2)pi z/L) basis is a standard choice for this pair of
    conditions; it is supplied by the implementation, not taken from a
    reference solution.
    """

    __slots__ = ()

    @property
    def walls(self):
        return (self.L,)


class Parabolic(_Guide):
    """Parabolic index profile with scale L: 1/c^2(z) = (1/c_o^2)(1 - z^2/L^2)."""

    __slots__ = ()
    walls = ()  # unbounded in depth


# Taylor terms (derivative orders 0..14) of a short parabolic segment. With
# |phi^(q)| ~ k_o^q |phi| and k_o h <= 1/2, the largest dropped term,
# (k_o h)^16 / 15!, is below 2e-17 of the leading one
SERIES_TERMS = 15


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

    def derivatives(self, z, order):
        """[phi^(0)(z), ..., phi^(order)(z)], each of shape (len(z), n_modes).

        The homogeneous orders are closed forms. The parabolic ones come
        from one Hermite recurrence to degree N-1+order and the ladder
        step, keeping the first N rows at each order; a ladder row
        depends only on its neighbours, so phi^(q) has the same bits
        whatever the order of the call."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        spec = self.spec
        if isinstance(spec, (HomogeneousDD, HomogeneousDN)):
            # d^q/dz^q sin(az) = a^q sin(az + q pi/2), same shift for cos
            trig = np.sin if isinstance(spec, HomogeneousDD) else np.cos
            arg = np.outer(z, self.alpha)
            return [np.sqrt(2.0 / spec.L) * self.alpha**q * trig(arg + q * np.pi / 2.0)
                    for q in range(order + 1)]
        n = self.n_modes
        gam = np.sqrt(self.k_o / spec.L)
        f = hermite_functions(n - 1 + order, gam * z)
        out = []
        for q in range(order + 1):
            if q:
                f = hermite_derivative(f)
            out.append(gam ** (0.5 + q) * np.ascontiguousarray(f[:n].T))
        return out

    def profile_matrix(self, z):
        """Matrix of phi_j(z) values, shape (len(z), n_modes): order 0 of
        `derivatives`."""
        return self.derivatives(z, 0)[0]

    def segment_gram(self, segments):
        """Z_jl = int phi_j phi_l dmu_z for the depth measure of segments
        (b, h): the length-weighted sum of the averages over [b-h, b+h].

        For the homogeneous bases, (1/(2h)) int_{b-h}^{b+h} phi_j phi_l dz
        = (1/L)[f(a_j - a_l) -+ f(a_j + a_l)], f(x) = cos(x b) sinc(x h),
        with the sign - for the sin (Dirichlet-Dirichlet) basis, + for the
        cos (Neumann-Dirichlet) one. The alpha are evenly spaced, so the
        differences take the N values a_k - a_0 at k = |j - l| and the sums
        the 2N - 1 values a_0 + a_k, a_{N-1} + a_k at k = j + l: f is
        summed over the segments on those alone, and Z is a Toeplitz plus
        a Hankel matrix. The parabolic basis is `_hermite_segment`.
        """
        spec = self.spec
        if not isinstance(spec, (HomogeneousDD, HomogeneousDN)):
            return _segment_sum(segments, lambda b, h: _hermite_segment(self, b, h))
        al = self.alpha
        n = al.size
        x = np.concatenate((al - al[0], al[0] + al, al[-1] + al[1:]))
        f = _segment_sum(segments, lambda b, h: np.cos(x * b) * _sinc(x * h)) / spec.L
        diff, total = f[:n], f[n:]
        if isinstance(spec, HomogeneousDD):
            total = -total
        # [j, l] -> diff[|j - l|] and total[j + l], as strided views
        toeplitz = sliding_window_view(np.concatenate((diff[:0:-1], diff)), n)[::-1]
        return toeplitz + sliding_window_view(total, n)

    def gram(self, mu_x, mu_z):
        """A = X (.) Z for the product measure mu_x (x) mu_z of a dense
        aperture, each factor a point (a number) or segments (b, h).

        The range factor X_jl = int e^{i db x} dmu_x, db = beta_j - beta_l,
        is e^{i db x0} at a point x0 and the length-weighted average of
        e^{i db b} sinc(db h) over segments; centred at x = 0 it is real,
        so A is Z itself at the point and takes the real sinc over a
        segment. The depth factor Z_jl = int phi_j phi_l dmu_z is
        outer(phi(z0), phi(z0)) at a point z0 and `segment_gram` over
        segments."""
        if np.isscalar(mu_z):
            phi = self.profile_matrix(mu_z)[0]
            Z = np.outer(phi, phi)
        else:
            Z = self.segment_gram(mu_z)
        if np.isscalar(mu_x) and mu_x == 0:
            return Z
        db = self.beta[:, None] - self.beta[None, :]
        if np.isscalar(mu_x):
            return Z * np.exp(1j * db * mu_x)
        return Z * _segment_sum(mu_x, lambda b, h: _sinc(db * h) if b == 0
                                else np.exp(1j * db * b) * _sinc(db * h))


def _sinc(x):
    # unnormalized sinc sin(x)/x
    return np.sinc(x / np.pi)


def _segment_sum(segments, term):
    """Length-weighted sum over segments (b, h) of term(b, h)."""
    total = sum(h for _, h in segments)
    acc = 0.0
    for b, h in segments:
        acc = acc + (h / total) * term(b, h)
    return acc


def _hermite_segment(ms, b, h):
    """(1/(2h)) int_{b-h}^{b+h} phi_j phi_l dz for the parabolic basis
    phi_j(z) = gam^(1/2) f_j(gam z), gam^2 = k_o/L, exactly (DLMF 18.9).

    A long segment (k_o h > 1/2) takes the end values J = [.]_{b-h}^{b+h}.
    Off the diagonal, phi'' = (gam^4 z^2 - alpha^2) phi gives the
    Sturm-Liouville identity (alpha_l^2 - alpha_j^2) J_jl
    = [phi_j' phi_l - phi_j phi_l']. On it, with s = gam z,
    int f_0^2 ds = (erf(s_b) - erf(s_a))/2 and the raising operator gives
    int f_{n+1}^2 = int f_n^2 + [f_n (f_n' - s f_n)]/(2(n+1)).
    On a short segment the end brackets cancel, so it takes the Taylor
    series about b: P^T W P with P_qj = phi_j^(q)(b) and
    W_qr = h^(q+r) / ((q+r+1) q! r!) for even q+r, else 0.
    """
    if ms.k_o * h <= 0.5:
        P = np.vstack(ms.derivatives(b, SERIES_TERMS - 1))
        n = np.add.outer(np.arange(SERIES_TERMS), np.arange(SERIES_TERMS))
        fact = np.array([math.factorial(q) for q in range(SERIES_TERMS)], dtype=float)
        W = np.where(n % 2 == 0, float(h) ** n / ((n + 1) * np.outer(fact, fact)), 0.0)
        return P.T @ W @ P
    z = np.array([b - h, b + h])
    P, D = ms.derivatives(z, 1)
    a2 = ms.alpha ** 2
    den = a2[None, :] - a2[:, None]
    np.fill_diagonal(den, 1.0)
    J = (np.outer(D[1], P[1]) - np.outer(D[0], P[0])
         - np.outer(P[1], D[1]) + np.outer(P[0], D[0])) / den
    gam2 = ms.k_o / ms.spec.L
    s = np.sqrt(gam2) * z
    # f_n (f_n' - s f_n) in z units: phi_n (phi_n' / gam^2 - z phi_n)
    raised = P * (D / gam2 - z[:, None] * P)
    steps = (raised[1] - raised[0])[:-1] / (2.0 * np.arange(1, ms.n_modes))
    np.fill_diagonal(J, 0.5 * (math.erf(s[1]) - math.erf(s[0]))
                     + np.concatenate(([0.0], np.cumsum(steps))))
    return J / (2.0 * h)


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
    if isinstance(spec, (HomogeneousDD, HomogeneousDN)):
        # alpha_j = (j - s) pi / L: s = 0 for the sin basis (DD), 1/2 for
        # the cos one (DN)
        s = 0.5 * isinstance(spec, HomogeneousDN)
        j = np.arange(1, int(np.floor(k_o * L / np.pi + s)) + 2)
        alpha = (j - s) * np.pi / L
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
