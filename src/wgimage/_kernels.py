"""Migration peak search for the Monte Carlo localization experiments.

Each noise draw runs the same three steps: regularized amplitude
estimate from noisy receiver data, migration of the estimate over the
search grid, and argmax of the image modulus. That loop dominates the
runtime of `mc-rate`, so it is written for it: one amplitude GEMM for
all draws of a call, then an exact best-first search over the depth
rows of each draw's image, all draws still searching batched together.

Row bound. Depth row z of the image is I(x, z) = sum_j E[x, j] c_j phi_j(z),
so |I(x, z)| <= sum_j |c_j| |phi_j(z)| max_x |E[x, j]|. The square of that
sum, times 1 + ROW_BOUND_SLACK to cover rounding, bounds every computed
|I|^2 of the row. One (T, N) @ (N, nz) product gives the bounds of all
draws and rows.

Stopping rule. A draw visits its rows in decreasing bound and evaluates
each exactly. It stops once the bound of its next row is below the best
value found. A row whose bound equals the best value is still visited.

Tie rule. Ties resolve to the smallest flat index (row-major), as an
argmax over the whole image would: within a row the smallest x, across
rows the smallest x * nz + z.

On the shipped configs at 1000 trials a draw visits 1 to 33 of its 46 to
65 rows, 8.5 on average, so the search forms about an eighth of the image.
"""

import numpy as np

#: relative widening of the row bound; the row GEMM's rounding is about
#: 4N ulps, so this covers any mode count below 10^6
ROW_BOUND_SLACK = 1e-9

#: rows per real GEMM: (32, 2N) @ (2N, 2nx) stays under OpenBLAS's
#: single-thread size on the shipped configs (N <= 6, nx <= 319)
ROW_CHUNK = 32


def peak_search(G, p, W, beta, E, PT):
    """Per-trial image peak indices.

    For each noise row w of W: a = G (p + w), then the image
    I = (E * (2i beta conj(a))) PT is searched for its maximal modulus.
    The profiles are real, so depth row z, with V = c * PT[:, z], is the
    real product [Re V | Im V] @ [[Re E^T, Im E^T], [-Im E^T, Re E^T]] =
    [Re I | Im I], and the peak is the argmax of Re(I)^2 + Im(I)^2.
    Ties resolve to the smallest flat index (row-major), i.e. smallest
    x index then smallest z index.

    G: (N, M) estimator matrix V psi(D) U^dag
    p: (M,) noiseless data; W: (T, M) noise draws
    E: (nx, N) range phases e^{i beta x}; PT: (N, nz) real profile transpose
    returns (T, 2) int64 grid indices
    """
    C = 2j * beta * np.conj((p + W) @ G.T)
    T = C.shape[0]
    nx, nz = E.shape[0], PT.shape[1]
    # (T, nz) row bounds; a visited row's entry is set to -inf
    bound = np.square((np.abs(C) * np.abs(E).max(axis=0)) @ np.abs(PT)) * (1.0 + ROW_BOUND_SLACK)
    # [Re V | Im V] of trial t, row z is CC[t] * P2[z]
    CC = np.concatenate([C.real, C.imag], axis=1)
    P2 = np.concatenate([PT.T, PT.T], axis=1)
    EB = np.block([[E.real.T, E.imag.T], [-E.imag.T, E.real.T]])
    Y = np.empty((ROW_CHUNK, 2 * nx))
    mag = np.empty((ROW_CHUNK, nx))
    best = np.full(T, -np.inf)
    flat = np.zeros(T, dtype=np.int64)
    val = np.empty(T)
    ix = np.empty(T, dtype=np.int64)
    active = np.arange(T)
    for _ in range(nz):  # each round visits one new row of every trial still searching
        z = bound[active].argmax(axis=1)
        go = bound[active, z] >= best[active]
        active, z = active[go], z[go]
        if not active.size:
            break
        bound[active, z] = -np.inf
        n = active.size
        X = CC[active] * P2[z]
        for s in range(0, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            y = np.matmul(X[s:e], EB, out=Y[:e - s])
            np.square(y, out=y)
            m = np.add(y[:, :nx], y[:, nx:], out=mag[:e - s])
            m.argmax(axis=1, out=ix[s:e])
            m.max(axis=1, out=val[s:e])
        v, f, b = val[:n], ix[:n] * nz + z, best[active]
        win = (v > b) | ((v == b) & (f < flat[active]))
        best[active[win]] = v[win]
        flat[active[win]] = f[win]
    return np.stack(divmod(flat, nz), axis=1)
