"""Information content of receiver arrays.

Every rank rule of the package is stated here once. `effective_rank`
counts the entries of a coupling/sensing spectrum at or above a plain
number (a fixed eps for receiver sets, a fraction of the top entry for
dense apertures). `DENSE_LINE_KINDS` holds, for each dense-line kind,
the asymptotic rank per wavelength of total half-length that
`dense_rank_prediction` reads and the count level that rank-scan
measures at. `taylor_rank_prediction` is the small-array Taylor rank,
a plain argmin over the truncation order. The moment family and its
dispersion-relation span collapse close the module.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _record
from .errors import EmptySpectrum
from .modes import ModeSet


# ---------------------------------------------------------------------------
# effective rank

def effective_rank(spectrum, threshold):
    """Number of spectrum entries >= threshold (inclusive). Receiver sets
    count above a fixed eps; a dense vertical aperture, whose spectrum
    plateaus then falls off, above half its top entry."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.size == 0:
        raise EmptySpectrum("cannot rank an empty spectrum")
    return int(np.count_nonzero(spectrum >= threshold))


# ---------------------------------------------------------------------------
# dense-aperture predictions

#: dense-line kind -> (predicted rank per wavelength of total half-length,
#: rank-scan count level relative to the top eigenvalue). A vertical
#: spectrum plateaus at its top value, so it is counted at half of it. A
#: horizontal one has no plateau: it decays smoothly to a sharp drop at
#: the predicted rank, so its significant set is counted at 1e-2 of the top.
DENSE_LINE_KINDS = {"vertical": (4.0, 0.5), "horizontal": (2.0, 1e-2)}


def dense_rank_prediction(kind, intervals, lambda_o, N):
    """Asymptotic effective rank of a dense aperture of segments
    (b_k, a_k): vertical 4 sum(a_k)/lambda_o = N (2 sum a_k)/L,
    horizontal 2 sum(a_k)/lambda_o = N sum(a_k)/L, capped at the mode
    count. Positions b_k do not enter."""
    if kind not in DENSE_LINE_KINDS:
        raise ValueError(f"kind must be 'vertical' or 'horizontal', got {kind!r}")
    per_wavelength, _ = DENSE_LINE_KINDS[kind]
    return float(min(per_wavelength * sum(a for _, a in intervals) / lambda_o, N))


# ---------------------------------------------------------------------------
# small-array Taylor predictions

class TaylorRank(NamedTuple):
    Q: int
    linear: int
    planar: int
    __eq__, __ne__ = _record.eq, _record.ne


def taylor_rank_prediction(k_o_a, eps, n_cap=None):
    """Truncation order Q with (k_o a)^Q / Q! closest to eps in log scale,
    and the ranks it implies: Q for a linear array, 2Q - 1 for a planar
    one. The nearest-in-log reading reproduces the reference operating
    points (k_o a = 0.125 with eps = 1e-7 -> Q = 5, eps = 1e-4 -> Q = 3).
    """
    if not 0.0 < k_o_a < 1.0:
        raise ValueError("k_o_a must lie in (0, 1)")
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    # the first argmin over q < 200: for every q >= 178 the term lies below
    # 1/178! < 5e-324, the smallest double and so the smallest eps, and
    # from there on its gap only grows
    target = math.log(eps)
    gaps = [abs(q * math.log(k_o_a) - math.lgamma(q + 1) - target) for q in range(200)]
    Q = gaps.index(min(gaps))
    linear = Q if n_cap is None else min(Q, n_cap)
    return TaylorRank(Q=Q, linear=linear, planar=max(2 * Q - 1, 0))


# ---------------------------------------------------------------------------
# moment family and span collapse

class MomentFamily(NamedTuple):
    """Taylor moments of the sensing matrix about (0, z_a):
    u_{q,q'} = (beta_j^q phi_j^(q')(z_a))_j over modes and
    v_{q,q'} = (i^q/(q! q'!)) (x_k^q (z_k - z_a)^{q'})_k over receivers,
    for q + q' <= Q - 1, so that B ~ sum conj(v_{q,q'}) u_{q,q'}^T.
    u and v are dicts keyed by (q, q'), filled by `moment_family`."""

    Q: int
    z_a: float
    u: dict
    v: dict
    __eq__, __ne__ = _record.eq, _record.ne

    def reconstruct(self):
        """Rank-(#terms) approximation sum_{q+q'<=Q-1} conj(v) u^T of B."""
        first = next(iter(self.u))
        out = np.zeros((self.v[first].size, self.u[first].size), dtype=complex)
        for key, u in self.u.items():
            out += np.outer(np.conj(self.v[key]), u)
        return out


def moment_family(ms: ModeSet, z_a, points, Q):
    if Q < 1:
        raise ValueError("Q must be >= 1")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = points[:, 0]
    ztil = points[:, 1] - z_a
    u, v = {}, {}
    derivs = ms.derivatives(np.array([z_a]), Q - 1)
    for q in range(Q):
        for qp in range(Q - q):
            u[(q, qp)] = ms.beta ** q * derivs[qp][0]
            v[(q, qp)] = ((1j ** q) / (math.factorial(q) * math.factorial(qp))
                          * x ** q * ztil ** qp)
    return MomentFamily(Q=Q, z_a=z_a, u=u, v=v)


class SpanRank(NamedTuple):
    rank: int
    expected: int
    gap: float
    spectrum: np.ndarray
    __eq__, __ne__ = _record.eq, _record.ne


def span_rank_collapse(mf: MomentFamily):
    """Numerical rank of span{u_{q,q'}}: although Q(Q+1)/2 vectors are
    stacked, the dispersion relation ties beta powers to transverse
    derivatives and collapses the span to dimension 2Q - 1. Rank uses a
    relative 1e-9 cutoff; gap is the ratio of the last retained to the
    first discarded singular value (clean collapses show >= 1e3)."""
    rows = np.array([mf.u[k] for k in sorted(mf.u)])
    s = np.linalg.svd(rows, compute_uv=False)
    rank = effective_rank(s, 1e-9 * s[0])
    if rank < s.size and s[rank] > 0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = float("inf")
    return SpanRank(rank=rank, expected=2 * mf.Q - 1, gap=gap, spectrum=s)
