"""Information content of receiver arrays.

The effective rank of a coupling/sensing spectrum, which counts the
entries at or above a plain number (a fixed eps for receiver sets, a
fraction of the top entry for dense apertures), the dense-array
asymptotic rank predictions for vertical and horizontal apertures, the
Taylor-moment rank predictions for arrays much smaller than a
wavelength, and the dispersion-relation collapse of the moment span.
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

def dense_rank_prediction(kind, intervals, lambda_o, N):
    """Asymptotic effective rank of a dense aperture of segments
    (b_k, a_k): vertical 4 sum(a_k)/lambda_o = N (2 sum a_k)/L,
    horizontal 2 sum(a_k)/lambda_o = N sum(a_k)/L, capped at the mode
    count. Positions b_k do not enter."""
    total = sum(a for _, a in intervals)
    if kind == "vertical":
        pred = 4.0 * total / lambda_o
    elif kind == "horizontal":
        pred = 2.0 * total / lambda_o
    else:
        raise ValueError(f"kind must be 'vertical' or 'horizontal', got {kind!r}")
    return float(min(pred, N))


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
    if eps >= 1.0:
        return TaylorRank(Q=0, linear=0, planar=0)
    target = math.log(eps)
    best_q, best_gap = 0, abs(0.0 - target)
    q = 0
    while True:
        q += 1
        val = q * math.log(k_o_a) - math.lgamma(q + 1)
        gap = abs(val - target)
        if gap < best_gap:
            best_q, best_gap = q, gap
        # terms decrease monotonically in log, so once past the target by
        # more than the best gap nothing later can win
        if val < target - best_gap:
            break
    linear = best_q if n_cap is None else min(best_q, n_cap)
    return TaylorRank(Q=best_q, linear=linear, planar=max(2 * best_q - 1, 0))


# ---------------------------------------------------------------------------
# moment family and span collapse

class MomentFamily:
    """Taylor moments of the sensing matrix about (0, z_a):
    u_{q,q'} = (beta_j^q phi_j^(q')(z_a))_j over modes and
    v_{q,q'} = (i^q/(q! q'!)) (x_k^q (z_k - z_a)^{q'})_k over receivers,
    for q + q' <= Q - 1, so that B ~ sum conj(v_{q,q'}) u_{q,q'}^T.
    u and v default to new empty dicts, keyed by (q, q')."""

    __slots__ = ("Q", "z_a", "u", "v")

    def __init__(self, Q, z_a, u=None, v=None):
        self.Q, self.z_a = Q, z_a
        self.u = {} if u is None else u
        self.v = {} if v is None else v

    def __repr__(self):
        return f"MomentFamily(Q={self.Q!r}, z_a={self.z_a!r}, u={self.u!r}, v={self.v!r})"

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
    mf = MomentFamily(Q=Q, z_a=z_a)
    derivs = ms.derivatives(np.array([z_a]), Q - 1)
    for q in range(Q):
        for qp in range(Q - q):
            mf.u[(q, qp)] = ms.beta ** q * derivs[qp][0]
            mf.v[(q, qp)] = ((1j ** q) / (math.factorial(q) * math.factorial(qp))
                             * x ** q * ztil ** qp)
    return mf


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
