"""Point-source data synthesis on antenna arrays.

An array geometry carries a unit-mass measure mu: weight 1/M on each
receiver of a `Discrete` set, or, for a `Dense` aperture, the product
mu_x (x) mu_z of a range and a depth factor. A dense aperture's field
samples are composite Gauss-Legendre nodes of that measure, so array
integrals of data are plain weighted sums. Field synthesis is the
guided-mode sum.
"""

from typing import NamedTuple

import numpy as np

from . import _record

# Gauss-Legendre nodes per quarter-wavelength panel: 64 per wavelength
PANEL_NODES = 16
PANEL_WAVELENGTHS = 0.25


class PointSource(NamedTuple):
    x_o: float
    z_o: float
    __eq__, __ne__ = _record.eq, _record.ne


class _Points(NamedTuple):
    points: object  # (M, 2) columns x, z


class Discrete(_Points):
    """Finite receiver set; mu puts weight 1/M on each point. Frozen, and
    equal only to itself (`geometry_equal` compares points)."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, points):
        return super().__new__(cls, np.atleast_2d(np.asarray(points, dtype=float)))


class Dense(NamedTuple):
    """Dense aperture with product measure mu_x (x) mu_z. Each factor is a
    tuple of segments (b, h), uniform on [b - h, b + h] with mass
    proportional to h, or a number: a unit point mass at that coordinate."""

    mu_x: object
    mu_z: object
    __eq__, __ne__ = _record.eq, _record.ne


class FieldSamples(NamedTuple):
    """Complex field values on an array's sample points.

    For Discrete geometries the samples are the receivers themselves;
    for dense geometries they are the quadrature nodes of mu at the
    stated resolution. weights always sum to 1.
    """

    geometry: object
    points: np.ndarray   # (K, 2)
    weights: np.ndarray  # (K,)
    values: np.ndarray   # (K,) complex
    __eq__, __ne__ = _record.eq, _record.ne


def geometry_equal(g1, g2):
    if type(g1) is not type(g2):
        return False
    if isinstance(g1, Discrete):
        return g1.points.shape == g2.points.shape and np.array_equal(g1.points, g2.points)
    return g1 == g2


def array_x_max(geometry):
    """Largest range x of an array: of its receivers, or of a dense
    aperture's range factor."""
    if isinstance(geometry, Discrete):
        return float(geometry.points[:, 0].max())
    mu_x = geometry.mu_x
    return float(mu_x) if np.isscalar(mu_x) else max(b + h for b, h in mu_x)


def _segment_nodes(segments, lambda_o):
    """Composite Gauss-Legendre nodes/weights over a union of segments,
    normalized to total mass 1 (weights proportional to segment length).

    Each segment is split into panels no wider than a quarter of
    lambda_o, with a fixed PANEL_NODES-point rule on each panel, so the
    cost is linear in the aperture length.
    """
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    total = sum(h for _, h in segments)
    coords, weights = [], []
    for b, h in segments:
        panels = max(1, int(np.ceil(2.0 * h / (PANEL_WAVELENGTHS * lambda_o))))
        hp = h / panels
        centers = b - h + hp * (2.0 * np.arange(panels) + 1.0)
        coords.append((centers[:, None] + hp * x).ravel())
        # (1/(2 total)) * dz over each panel
        weights.append(np.tile(0.5 * hp * w / total, panels))
    return np.concatenate(coords), np.concatenate(weights)


def _axis_nodes(factor, lambda_o):
    if np.isscalar(factor):
        return np.array([float(factor)]), np.ones(1)
    return _segment_nodes(factor, lambda_o)


def array_samples(geom, lambda_o):
    """Sample points (K, 2) and unit-mass weights (K,) of mu."""
    if isinstance(geom, Discrete):
        m = geom.points.shape[0]
        return geom.points, np.full(m, 1.0 / m)
    x, wx = _axis_nodes(geom.mu_x, lambda_o)
    z, wz = _axis_nodes(geom.mu_z, lambda_o)
    xx, zz = np.meshgrid(x, z, indexing="ij")
    return np.column_stack([xx.ravel(), zz.ravel()]), np.outer(wx, wz).ravel()


def source_amplitudes(ms, src):
    """Guided-mode amplitudes a_{j,o} = (i / (2 beta_j)) phi_j(z_o) e^{i beta_j x_o}."""
    prof = ms.profile_matrix(src.z_o)[0]
    return 1j / (2.0 * ms.beta) * prof * np.exp(1j * ms.beta * src.x_o)


def mode_traces(ms, points):
    """Matrix of mode traces phi_j(z_k) e^{-i beta_j x_k}, shape (K, n_modes)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    prof = ms.profile_matrix(points[:, 1])
    return prof * np.exp(-1j * np.outer(points[:, 0], ms.beta))


def sample_field(ms, amps, geom):
    """Record the mode-sum field p = sum_j a_j phi_j(z) e^{-i beta_j x} on geom."""
    pts, w = array_samples(geom, ms.lambda_o)
    values = mode_traces(ms, pts) @ np.asarray(amps, dtype=complex)
    return FieldSamples(geom, pts, w, values)


def lhs_design(M, center, size, seed):
    """Latin hypercube of M points in the square [center -+ size]^2.

    Each axis is split into M equal bins with exactly one point per bin;
    positions within a bin are uniform (random-within-bin variant).
    size is the half-width of the square.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pts = np.empty((M, 2))
    for ax, c in enumerate(center):
        perm = rng.permutation(M)
        u = rng.uniform(size=M)
        pts[:, ax] = c - size + (perm + u) * (2.0 * size / M)
    return pts


def vertical_line(M, z_a=11.0, extent=0.25):
    """Receiver depths z_k = z_a + extent (k - M/2)/M, k = 1..M, at x = 0.

    The formula is kept verbatim from the reference configuration; its
    center sits half a spacing above z_a.
    """
    k = np.arange(1, M + 1)
    z = z_a + extent * (k - M / 2.0) / M
    return np.column_stack([np.zeros(M), z])


def horizontal_line(M, z_a=11.0, extent=0.25):
    """Receiver ranges x_k = extent (k - M/2)/M, k = 1..M, at depth z_a."""
    k = np.arange(1, M + 1)
    x = extent * (k - M / 2.0) / M
    return np.column_stack([x, np.full(M, z_a)])


def dense_line(kind, segments, depth=None):
    """Dense line over segments (b, h) of a rank.DENSE_LINE_KINDS kind:
    "vertical" at x = 0 over depth segments, Dense(0.0, segments);
    "horizontal" over range segments at depth `depth`, Dense(segments,
    depth). A vertical line reads no depth."""
    segments = tuple(segments)
    return Dense(0.0, segments) if kind == "vertical" else Dense(segments, depth)
