"""Mode-amplitude estimation from array data.

Two routes to the amplitude vector: project data onto reduced mode
profiles and invert the coupling matrix A (any geometry), or apply a
regularized pseudo-inverse of the sensing matrix B (discrete receiver
sets). Both are one estimator a_eps = V psi_eps(D) X (X = b, U^dag p,
or U^dag for the estimator matrix G), formed only in `_filtered`, with
one analytic bias/variance decomposition of the error. A `RegPolicy`
picks psi_eps at each noise level: Tikhonov, HardThreshold or None
(plain inversion, refused on a spectrum spanning more than 14 decades),
at a fixed eps or at the noise-matched `heuristic_eps`.

A discrete receiver set has the exact Gram (1/M) B^dag B. A `Dense`
aperture is its product measure mu_x (x) mu_z, so its Gram is the
elementwise product A = X (.) Z of a range factor
X_jl = int e^{i(beta_j - beta_l) x} dmu_x (a phase for a range point
mass, a sum of sincs over range segments, for every model) and a depth
factor Z_jl = int phi_j phi_l dmu_z (outer(phi(z_0), phi(z_0)) for a
depth point mass z_0, and closed form over depth segments for every
model: sincs for the homogeneous ones, exact Hermite-function segment
integrals for the parabolic one). So every Gram is closed form, with no
quadrature and no tolerance.

Spectral conventions, fixed for reproducibility: eigenvalues and
singular values in descending order, and each eigen/singular vector
phased so its largest-modulus entry is real positive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, SingularUnregularized, TooFewReceivers
from .modes import HomogeneousDD, HomogeneousDN, hermite_derivative, hermite_functions
from .synth import Discrete, FieldSamples, geometry_equal, mode_traces

# Taylor terms (derivative orders 0..14) of a short parabolic segment. With
# |phi^(q)| ~ k_o^q |phi| and k_o h <= 1/2, the largest dropped term,
# (k_o h)^16 / 15!, is below 2e-17 of the leading one
SERIES_TERMS = 15


# ---------------------------------------------------------------------------
# regularizers

@dataclass(frozen=True)
class Tikhonov:
    """psi_eps(d) = d / (d^2 + eps^2)."""

    eps: float

    def filter(self, d):
        d = np.asarray(d, dtype=float)
        if self.eps == 0.0:
            return 1.0 / d
        return d / (d * d + self.eps * self.eps)

    def residual(self, d):
        # eps^2/(d^2+eps^2) is 1 - d psi_eps(d) without the cancellation,
        # which leaves ulp-sized (and negative) noise where d >> eps
        d = np.asarray(d, dtype=float)
        e2 = self.eps * self.eps
        return e2 / (d * d + e2)


@dataclass(frozen=True)
class HardThreshold:
    """psi_eps(d) = (1/d) 1{d > eps}; eps = 0 gives the Moore-Penrose
    convention (zero weight on nonpositive spectrum)."""

    eps: float

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


@dataclass(frozen=True)
class RegPolicy:
    """Regularizer choice at any noise level: kind is Tikhonov,
    HardThreshold or None (plain inversion); eps=None means heuristic_eps."""

    kind: type = Tikhonov
    eps: float = None

    def regularizer(self, sigma_meas, a_o):
        """kind(eps) for measurement noise sigma_meas, or None."""
        if self.kind is None:
            return None
        return self.kind(heuristic_eps(sigma_meas, a_o) if self.eps is None else self.eps)


def _psi(d, reg):
    """psi(d) of regularizer reg; reg=None is plain inversion 1/d, refused
    on a singular spectrum."""
    if reg is None:
        if np.min(d) < 1e-14 * np.max(d):
            raise SingularUnregularized("spectrum spans more than 14 decades: plain "
                                        "inversion (reg.kind = none) needs a regularizer")
        return 1.0 / d
    return reg.filter(d)


def _filtered(V, d, reg, X):
    """V psi(D) X, associated as (V psi) X: the one place a filter is
    applied to data."""
    return (V * _psi(d, reg)) @ X


# ---------------------------------------------------------------------------
# operators

def _fix_phases(V):
    """Rotate each column so its largest-modulus entry is real positive.

    Returns the rotated matrix and the unit factors applied, so that a
    paired factor (U of an SVD) can be rotated consistently.
    """
    idx = np.argmax(np.abs(V), axis=0)
    lead = V[idx, np.arange(V.shape[1])]
    mod = np.abs(lead)
    phase = np.where(mod > 0, lead / np.where(mod > 0, mod, 1.0), 1.0)
    c = np.conj(phase)
    return V * c[None, :], c


@dataclass
class CouplingMatrix:
    """Hermitian PSD matrix A_jl = integral over the array of the mode
    trace products, with its eigendecomposition A = V diag(d) V^dag."""

    A: np.ndarray
    V: np.ndarray
    d: np.ndarray
    geometry: object


@dataclass
class SensingMatrix:
    """Receiver-by-mode matrix B_kj = phi_j(z_k) e^{-i beta_j x_k} with
    its thin SVD B = U diag(s) V^dag. B is always complex; U and V are
    real when every receiver sits at x = 0, where B has no imaginary part."""

    B: np.ndarray
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    points: np.ndarray


def _eigh_descending(A):
    A = 0.5 * (A + A.conj().T)
    d, V = np.linalg.eigh(A)
    d, V = d[::-1], V[:, ::-1]
    V, _ = _fix_phases(V)
    return A, V, d


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


def _range_factor(ms, mu_x):
    """X_jl = int e^{i(beta_j - beta_l) x} dmu_x with db = beta_j - beta_l:
    e^{i db x0} for a point mass at x0, and over each segment (b, h) the
    average e^{i db b} sinc(db h). At x0 = 0 X is the scalar 1, which
    keeps a Gram at x = 0 real."""
    if np.isscalar(mu_x) and mu_x == 0:
        return 1.0
    db = ms.beta[:, None] - ms.beta[None, :]
    if np.isscalar(mu_x):
        return np.exp(1j * db * mu_x)
    return _segment_sum(mu_x, lambda b, h: np.exp(1j * db * b) * _sinc(db * h))


def _depth_factor(ms, mu_z):
    """Z_jl = int phi_j phi_l dmu_z.

    A point mass at z_0 gives outer(phi(z_0), phi(z_0)). Over segments
    every basis has a closed form. For the homogeneous ones, for each
    segment (b, h), (1/(2h)) int_{b-h}^{b+h} phi_j phi_l dz
    = (1/L)[cos(da b) sinc(da h) -+ cos(sa b) sinc(sa h)]
    with da = a_j - a_l, sa = a_j + a_l, and the sign - for the sin
    (Dirichlet-Dirichlet) basis, + for the cos (Neumann-Dirichlet) one.
    The parabolic one is `_hermite_segment`.
    """
    if np.isscalar(mu_z):
        phi = ms.profile_matrix(mu_z)[0]
        return np.outer(phi, phi)
    spec = ms.spec
    if not isinstance(spec, (HomogeneousDD, HomogeneousDN)):
        return _segment_sum(mu_z, lambda b, h: _hermite_segment(ms, b, h))
    sign = -1.0 if isinstance(spec, HomogeneousDD) else 1.0
    al = ms.alpha
    dm = al[:, None] - al[None, :]
    dp = al[:, None] + al[None, :]
    return _segment_sum(mu_z, lambda b, h: np.cos(dm * b) * _sinc(dm * h)
                        + sign * (np.cos(dp * b) * _sinc(dp * h))) / spec.L


def _derivative_stack(ms, b):
    """Rows phi^(q)(b), q = 0..SERIES_TERMS-1, of the parabolic basis: the
    stack of profile_matrix(b, q), bit for bit, from one Hermite
    recurrence to order N-1+SERIES_TERMS-1 and the ladder step, keeping
    the first N rows of each order."""
    n = ms.n_modes
    gam = np.sqrt(ms.k_o / ms.spec.L)
    f = hermite_functions(n - 1 + SERIES_TERMS - 1, gam * np.atleast_1d(float(b)))
    P = np.empty((SERIES_TERMS, n))
    for q in range(SERIES_TERMS):
        if q:
            f = hermite_derivative(f)
        P[q] = gam ** (0.5 + q) * f[:n, 0]
    return P


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
        P = _derivative_stack(ms, b)
        n = np.add.outer(np.arange(SERIES_TERMS), np.arange(SERIES_TERMS))
        fact = np.array([math.factorial(q) for q in range(SERIES_TERMS)], dtype=float)
        W = np.where(n % 2 == 0, float(h) ** n / ((n + 1) * np.outer(fact, fact)), 0.0)
        return P.T @ W @ P
    z = np.array([b - h, b + h])
    P, D = ms.profile_matrix(z), ms.profile_matrix(z, 1)
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


def coupling_matrix(ms, geom):
    """Build A for an array geometry.

    A Discrete receiver set uses the exact Gram (1/M) B^dag B. A Dense
    aperture's Gram is the elementwise product A = X (.) Z of the range
    factor X over geom.mu_x (closed form for every model) and the depth
    factor Z over geom.mu_z (closed form at a point mass and over
    segments, for every model).
    """
    if isinstance(geom, Discrete):
        B = mode_traces(ms, geom.points)
        A = B.conj().T @ B / geom.points.shape[0]
    else:
        A = _depth_factor(ms, geom.mu_z) * _range_factor(ms, geom.mu_x)
    A, V, d = _eigh_descending(A)
    return CouplingMatrix(A=A, V=V, d=d, geometry=geom)


def _backproject(fs, cm, ms):
    """m = C^dag (w (.) p): m_j = int p conj(phi_j e^{-i beta_j x}) dmu."""
    if not geometry_equal(fs.geometry, cm.geometry):
        raise GeometryMismatch("field samples and coupling matrix disagree on geometry")
    C = mode_traces(ms, fs.points)
    return C.conj().T @ (fs.weights * fs.values)


def project_reduced(fs, cm, ms):
    """Project field samples onto the reduced mode profiles:
    b_l = int p conj(psi_l) dmu with psi_l = sum_j V_jl phi_j(z) e^{-i beta_j x}.

    For noiseless mode-sum data b = D V^dag a_o.
    """
    return cm.V.conj().T @ _backproject(fs, cm, ms)


def estimate_amplitudes(b, cm, reg):
    """a_eps = V psi_eps(D) b; reg=None demands a nonsingular spectrum."""
    b = np.asarray(b)
    if b.shape != (cm.d.size,):
        raise GeometryMismatch(f"projection length {b.shape} != mode count {cm.d.size}")
    return _filtered(cm.V, cm.d, reg, b)


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


def svd_estimate(p_meas, sm, reg):
    """a_eps = V psi_eps(D) U^dag p from receiver data (FieldSamples or array)."""
    p = p_meas.values if isinstance(p_meas, FieldSamples) else np.asarray(p_meas)
    if p.shape != (sm.B.shape[0],):
        raise GeometryMismatch(f"data length {p.shape} != receiver count {sm.B.shape[0]}")
    return _filtered(sm.V, sm.s, reg, sm.U.conj().T @ p)


def estimator_matrix(sm, reg):
    """G = V psi_eps(D) U^dag, so that a_eps = G p for receiver data p."""
    return _filtered(sm.V, sm.s, reg, sm.U.conj().T)


# ---------------------------------------------------------------------------
# error analysis

@dataclass
class EstimationReport:
    bias_sq: float
    variance: float
    mse: float
    spectrum: np.ndarray


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
    return EstimationReport(bias_sq=bias_sq, variance=variance,
                            mse=bias_sq + variance, spectrum=np.array(d))


def optimal_epsilon(sm, a_o, sigma_meas, grid_points=200):
    """Tikhonov parameter choices for a given noise level.

    Returns (heuristic, scanned): heuristic_eps, and the argmin of the
    analytic mse over a log grid spanning [1e-12, 1e2] times the top
    singular value.
    """
    d_max = float(np.max(sm.s if isinstance(sm, SensingMatrix) else sm.d))
    grid = d_max * np.logspace(-12.0, 2.0, grid_points)
    mses = [mse_decomposition(sm, a_o, sigma_meas, e).mse for e in grid]
    return float(heuristic_eps(sigma_meas, a_o)), float(grid[int(np.argmin(mses))])
