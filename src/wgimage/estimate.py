"""Mode-amplitude estimation from array data.

Two routes to the amplitude vector: project data onto reduced mode
profiles and invert the coupling matrix A (any geometry), or apply a
regularized pseudo-inverse of the sensing matrix B (discrete receiver
sets). Both are one estimator a_eps = H y, H = V psi_eps(D) the N x N
`filtered_basis` and y the reduced data (b, or U^dag p), with one
analytic bias/variance decomposition of the error. Every estimate of
the package is formed by one product, `amplitudes(H, Y)`: one estimate
per row of Y, and a lone row multiplied twice over, so that a row has
the same bits alone as beside any other rows. A `RegPolicy`
picks psi_eps at each noise level: Tikhonov, HardThreshold or None
(plain inversion), at a fixed eps or at the noise-matched
`heuristic_eps`. Plain inversion, which any regularizer at eps = 0 is
too, is refused on a spectrum spanning more than 14 decades.

A discrete receiver set has the exact Gram (1/M) B^dag B. A `Dense`
aperture is its product measure mu_x (x) mu_z, whose Gram
`ModeSet.gram` gives as the elementwise product A = X (.) Z of a range
and a depth factor, in closed form for every model. So every Gram is
closed form, with no quadrature and no tolerance.

One Gram, `_gram`, feeds two paths. Estimation uses `coupling_matrix`,
its full eigendecomposition, at the aperture's true position. The
printed spectra of dense apertures (`spectrum`, `rank-scan`) use
`coupling_spectrum`, eigenvalues alone, which LAPACK computes by another
algorithm at a fraction of the cost. It first moves a point-mass or
one-segment range measure to x = 0, a unitary similarity that keeps the
eigenvalues and makes the Gram real. The two lists agree to round-off,
about N eps d_0, not bit for bit. A receiver set's printed spectrum is
the singular values of `sensing_matrix`.

Field samples enter through `project_reduced`, their back-projection
onto the mode traces taken onto the reduced profiles V.

Spectral conventions, fixed for reproducibility: eigenvalues and
singular values in descending order, and each eigen/singular vector
phased so its largest-modulus entry is real positive.
"""

from typing import NamedTuple

import numpy as np

from . import _record
from .errors import GeometryMismatch, SingularUnregularized, TooFewReceivers
from .synth import Discrete, geometry_equal, mode_traces


# ---------------------------------------------------------------------------
# regularizers

class _Regularizer(NamedTuple):
    eps: float
    __eq__, __ne__ = _record.eq, _record.ne


class Tikhonov(_Regularizer):
    """psi_eps(d) = d / (d^2 + eps^2)."""

    __slots__ = ()

    def filter(self, d):
        d = np.asarray(d, dtype=float)
        return d / (d * d + self.eps * self.eps)

    def residual(self, d):
        # eps^2/(d^2+eps^2) is 1 - d psi_eps(d) without the cancellation,
        # which leaves ulp-sized (and negative) noise where d >> eps
        d = np.asarray(d, dtype=float)
        e2 = self.eps * self.eps
        return e2 / (d * d + e2)


class HardThreshold(_Regularizer):
    """psi_eps(d) = (1/d) 1{d > eps}."""

    __slots__ = ()

    def filter(self, d):
        d = np.asarray(d, dtype=float)
        keep = d > self.eps
        out = np.zeros_like(d)
        out[keep] = 1.0 / d[keep]
        return out

    def residual(self, d):
        return (np.asarray(d, dtype=float) <= self.eps).astype(float)


def heuristic_eps(sigma_meas, a_o):
    """eps = sigma_meas sqrt(N) / ||a_o||, matching the noise-to-signal
    balance of the discrepancy principle."""
    a_o = np.asarray(a_o)
    return sigma_meas * np.sqrt(a_o.size) / np.linalg.norm(a_o)


class RegPolicy(NamedTuple):
    """Regularizer choice at any noise level: kind is Tikhonov,
    HardThreshold or None (plain inversion); eps=None means heuristic_eps."""

    kind: type = Tikhonov
    eps: float = None
    __eq__, __ne__ = _record.eq, _record.ne

    def regularizer(self, sigma_meas, a_o):
        """kind(eps) for measurement noise sigma_meas, or None."""
        if self.kind is None:
            return None
        return self.kind(heuristic_eps(sigma_meas, a_o) if self.eps is None else self.eps)


def _psi(d, reg):
    """psi(d) of regularizer reg; reg=None, and any regularizer at eps = 0,
    is plain inversion 1/d, refused on a singular spectrum."""
    if reg is None or reg.eps == 0:
        if np.min(d) < 1e-14 * np.max(d):
            raise SingularUnregularized(
                "spectrum spans more than 14 decades: plain inversion (reg.kind = none, "
                "reg.eps = 0, or the noise-matched eps at a sigma of 0 in noise.sigmas or "
                "--sigma) needs reg.eps > 0 or a nonzero sigma")
        return 1.0 / d
    return reg.filter(d)


def filtered_basis(V, d, reg):
    """H = V psi(D), N x N: the estimate of reduced data y (b, or U^dag p
    of receiver data p) is a = H y, formed by `amplitudes`."""
    return V * _psi(d, reg)


def amplitudes(H, Y):
    """Y @ H.T: the estimate a = H y of each row y of Y, one per row.

    A lone row is multiplied twice over: OpenBLAS computes a one-row
    product as a GEMV, whose sums round differently from the GEMM's,
    while the GEMM gives each row the same bits whatever the number of
    rows (two or more) beside it. So any slice of rows, a single row
    included, recomputes the bits it has in the whole product."""
    if Y.shape[0] == 1:
        return (np.concatenate((Y, Y)) @ H.T)[:1]
    return Y @ H.T


# ---------------------------------------------------------------------------
# operators

def _fix_phases(V):
    """Rotate each column so its largest-modulus entry is real positive.

    Returns the rotated matrix and the unit factors applied, so that a
    paired factor (U of an SVD) can be rotated consistently.
    """
    idx = np.argmax(np.abs(V), axis=0)
    lead = V[idx, np.arange(V.shape[1])]
    c = np.conj(lead) / np.abs(lead)  # a unit column's largest entry is never 0
    return V * c[None, :], c


class CouplingMatrix(NamedTuple):
    """Hermitian PSD matrix A_jl = integral over the array of the mode
    trace products, with its eigendecomposition A = V diag(d) V^dag."""

    A: np.ndarray
    V: np.ndarray
    d: np.ndarray
    geometry: object
    __eq__, __ne__ = _record.eq, _record.ne


class SensingMatrix(NamedTuple):
    """Receiver-by-mode matrix B_kj = phi_j(z_k) e^{-i beta_j x_k} with
    its thin SVD B = U diag(s) V^dag. B is always complex; U and V are
    real when every receiver sits at x = 0, where B has no imaginary part."""

    B: np.ndarray
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    points: np.ndarray
    __eq__, __ne__ = _record.eq, _record.ne


def _gram(ms, geom):
    """The coupling matrix A of an array geometry, symmetrized to
    (A + A^dag)/2.

    A Discrete receiver set uses the exact Gram (1/M) B^dag B, a Dense
    aperture `ModeSet.gram` of its product measure.
    """
    if isinstance(geom, Discrete):
        B = mode_traces(ms, geom.points)
        A = B.conj().T @ B / geom.points.shape[0]
    else:
        A = ms.gram(geom.mu_x, geom.mu_z)
    return 0.5 * (A + A.conj().T)


def coupling_matrix(ms, geom):
    """A for an array geometry (see `_gram`) with its eigendecomposition,
    for estimation."""
    A = _gram(ms, geom)
    d, V = np.linalg.eigh(A)
    V, _ = _fix_phases(V[:, ::-1])
    return CouplingMatrix(A=A, V=V, d=d[::-1], geometry=geom)


def _centred(mu_x):
    """A point mass or one-segment range measure moved to x = 0; any
    other measure as it is."""
    if np.isscalar(mu_x):
        return 0.0
    if len(mu_x) == 1:
        return ((0.0, mu_x[0][1]),)
    return mu_x


def coupling_spectrum(ms, geom):
    """Eigenvalues of A for an array geometry, descending, without
    eigenvectors. A dense aperture's range measure is first centred
    (`_centred`): a translation by c is the unitary similarity
    A -> D A D^dag, D = diag(e^{-i beta_j c}), which keeps the eigenvalues
    and makes the range factor, and so the Gram, real."""
    if not isinstance(geom, Discrete):
        geom = geom._replace(mu_x=_centred(geom.mu_x))
    return np.linalg.eigvalsh(_gram(ms, geom))[::-1]


def project_reduced(fs, cm, ms):
    """Project field samples onto the reduced mode profiles:
    b_l = int p conj(psi_l) dmu with psi_l = sum_j V_jl phi_j(z) e^{-i beta_j x},
    that is b = V^dag m of the back-projection m = C^dag (w (.) p),
    m_j = int p conj(phi_j e^{-i beta_j x}) dmu.

    For noiseless mode-sum data b = D V^dag a_o.
    """
    if not geometry_equal(fs.geometry, cm.geometry):
        raise GeometryMismatch("field samples and coupling matrix disagree on geometry")
    C = mode_traces(ms, fs.points)
    return cm.V.conj().T @ (C.conj().T @ (fs.weights * fs.values))


def estimate_amplitudes(b, cm, reg):
    """a_eps = V psi_eps(D) b; reg=None demands a nonsingular spectrum."""
    b = np.asarray(b)
    if b.shape != (cm.d.size,):
        raise GeometryMismatch(f"projection length {b.shape} != mode count {cm.d.size}")
    return amplitudes(filtered_basis(cm.V, cm.d, reg), b[None])[0]


def sensing_matrix(ms, points):
    """B_kj = phi_j(z_k) e^{-i beta_j x_k} with thin SVD, M >= N required.

    With every receiver at x = 0 the traces are real, so the SVD runs on
    B.real and U, V come out real; B itself stays complex."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < ms.n_modes:
        raise TooFewReceivers(
            f"{points.shape[0]} receivers for {ms.n_modes} guided modes")
    B = mode_traces(ms, points)
    U, s, Vh = np.linalg.svd(B if B.imag.any() else B.real, full_matrices=False)
    V, c = _fix_phases(Vh.conj().T)
    # B = sum_j s_j u_j v_j^dag is invariant under (u_j, v_j) -> (c u_j, c v_j)
    U = U * c[None, :]
    return SensingMatrix(B=B, U=U, s=s, V=V, points=points)


# ---------------------------------------------------------------------------
# error analysis

class EstimationReport(NamedTuple):
    bias_sq: float
    variance: float
    mse: float
    __eq__, __ne__ = _record.eq, _record.ne


def mse_decomposition(op, a_o, sigma, eps):
    """Analytic mean-square estimation error E||a_eps - a_o||^2 of the
    regularizer eps: a number (Tikhonov(eps)), a Tikhonov/HardThreshold,
    or None (plain inversion: psi = 1/d, zero bias, refused on a singular
    spectrum as in estimation).

    bias^2 = sum_j (1 - d_j psi(d_j))^2 |(V^dag a_o)_j|^2 in both routes.
    The variance depends on where the noise enters:
      SensingMatrix: per-receiver noise of std sigma gives
        sigma^2 sum_j psi(s_j)^2;
      CouplingMatrix: projection noise with Cov(b) = sigma^2 D gives
        sigma^2 sum_j d_j psi(d_j)^2.  For M discrete receivers with
        per-sample std sigma_s this sigma equals sigma_s/sqrt(M).
    """
    reg = eps if eps is None or hasattr(eps, "filter") else Tikhonov(float(eps))
    if isinstance(op, SensingMatrix):
        d, V = op.s, op.V
        var_weights = _psi(d, reg) ** 2
    else:
        d, V = op.d, op.V
        var_weights = d * _psi(d, reg) ** 2
    coeff = np.abs(V.conj().T @ np.asarray(a_o)) ** 2
    bias_sq = 0.0 if reg is None else float(np.sum(reg.residual(d) ** 2 * coeff))
    variance = float(sigma * sigma * np.sum(var_weights))
    return EstimationReport(bias_sq=bias_sq, variance=variance, mse=bias_sq + variance)


def optimal_epsilon(sm, a_o, sigma_meas):
    """Tikhonov parameter choices for a given noise level.

    Returns (heuristic, scanned): heuristic_eps, and the argmin of the
    analytic mse over a log grid of 200 points spanning [1e-12, 1e2]
    times the top singular value.
    """
    d_max = float(np.max(sm.s if isinstance(sm, SensingMatrix) else sm.d))
    grid = d_max * np.logspace(-12.0, 2.0, 200)
    mses = [mse_decomposition(sm, a_o, sigma_meas, e).mse for e in grid]
    return float(heuristic_eps(sigma_meas, a_o)), float(grid[int(np.argmin(mses))])
