"""Migration peak search for the Monte Carlo localization experiments.

Each noise draw runs the same three steps: regularized amplitude
estimate from noisy receiver data, migration of the estimate over the
search grid, and argmax of the image modulus. That loop dominates the
runtime of `mc-rate`, so it is written for it: one amplitude GEMM over
the draws of a call, then an exact best-first search over the depth
rows of each draw's image, all draws still searching batched together.

Amplitudes. `mc-rate` passes projected data: G = V psi(S) is N x N, and
p + W is y0 + c Z_t, with the N values of unit noise Z_t drawn on the
projected data y0 = U^dag p: (T, N), about 0.1 MB at 1000 trials of
N = 6. So the amplitudes (p + W) @ G.T are one GEMM. It never has one
row: OpenBLAS computes a one-row product as a GEMV, whose sums round
differently from the GEMM's, while the GEMM gives each row the same
bits whatever the number of rows (two or more) beside it. So a
single-trial call multiplies its row twice over, and every slice of
trials gives the bits of the whole-block product.

Row bound. Depth row z of the image is I(x, z) = sum_j E[x, j] c_j phi_j(z),
so |I(x, z)| <= sum_j |c_j| |phi_j(z)| max_x |E[x, j]|. The square of that
sum, times 1 + ROW_BOUND_SLACK to cover rounding, is the bound U(z) of
every computed |I|^2 of the row. One (T, N) @ (N, nz) product gives the
bounds of all draws and rows.

Stopping rule. A draw visits its rows in decreasing bound and evaluates
each exactly. It stops once the bound of its next row is below the best
value found. A row whose bound equals the best value is still visited.

Row lift. A visited row is one row of a real GEMM, (Q[t] * P[z]) @ F,
whose factors depend on the mode count N:

- quadratic (N <= QUADRATIC_MAX_MODES): with V = c * phi(z),
  |I|^2 = sum_j |E_xj|^2 |V_j|^2 + 2 Re sum_{j<k} E_xj conj(E_xk) V_j conj(V_k),
  a form in N^2 products of mode amplitudes that gives |I|^2 directly,
  about 2 N^2 nx flops per row;
- linear (larger N): [Re V | Im V] @ [[Re E^T, Im E^T], [-Im E^T, Re E^T]]
  = [Re I | Im I], then Re^2 + Im^2, about 8 N nx flops per row. The
  quadratic factors have N^2 columns: at N = 500, F alone would hold
  0.64 GB on a 319-column grid, so the linear lift is what large guides
  run.

In 64-row chunks on one BLAS thread (2-core Xeon VM, nx = 319), a
visited row costs, in us, linear -> quadratic: 1.21 -> 0.40 at N = 4,
1.16 -> 0.60 at N = 6, 1.27 -> 1.20 at N = 8, 1.37 -> 1.68 at N = 10 and
1.51 -> 2.80 at N = 12. The crossover lies between 8 and 10.

Rounding. The moduli of the quadratic form's terms sum to at most
(sum_j |E_xj| |c_j| |phi_j(z)|)^2 <= U(z). The GEMM adds N^2 of
them, each a product of a few rounded factors, so a computed |I|^2 errs
by about N^2 eps U(z) in absolute terms: 64 eps, about 1.4e-14 U(z), at
N = 8. The linear lift errs by about 4N eps U(z). ROW_BOUND_SLACK, about
4.5e6 eps, is some 7e4 times the quadratic error at N = 8 and more below,
so no computed value exceeds its row's bound and the stopping rule stays
exact.

Result. Each draw's peak is its flat index x * nz + z (row-major), the
index np.argmax returns over the whole (nx, nz) image, and ties resolve
as that argmax does: to the smallest flat index, so within a row the
smallest x, across rows the smallest x * nz + z. The caller scores the
flat index directly (mc-rate reads it in a node mask of the grid).

On the shipped configs at 1000 trials and their seed 2024 a draw visits
1 to 32 of its 46 to 65 rows, 8.55 on average (8.56 at seed 1), so the
search forms about a seventh of the image.
"""

import numpy as np

#: relative widening of the row bound, about 4.5e6 eps: far above either
#: row lift's rounding (N^2 eps at N <= 8, 4N eps above)
ROW_BOUND_SLACK = 1e-9

#: largest mode count scored by the quadratic lift (see the module text)
QUADRATIC_MAX_MODES = 8

#: rows per real GEMM, which runs on one BLAS thread (the CLI pins one):
#: a chunk, the factor F and the output, about 0.3 MB at N = 6 and
#: nx = 319, stay in L2; 64 timed as fast as any of 16 to 256 rows on
#: mc-rate inputs
ROW_CHUNK = 64

#: values per peak_search call, which runs trial_block(N, nz) trials: per
#: trial, a call holds its nz row bounds plus the width of its row lift
#: (N^2 for the quadratic lift, 2N for the linear one), at a tracemalloc
#: peak of 20.3 B per value at N = 4, 21.6 B at N = 6 and 22.8 B at N = 12
#: (the call's fixed factors add more at larger N: 25.1 B at N = 31). So a
#: call peaks near 2.8 MB, 1267 trials at N = 6 on 65 depth rows, and
#: every shipped config searches 1000 trials in one call per sigma
BLOCK_WORKING_SET = 128_000


def trial_block(n, nz):
    """Trials per peak_search call at n modes on nz depth rows:
    BLOCK_WORKING_SET // (nz + lift width), at least one."""
    lift = n * n if n <= QUADRATIC_MAX_MODES else 2 * n
    return max(1, BLOCK_WORKING_SET // (nz + lift))


def _quadratic_lift(C, E, PT):
    """Factors (Q, P, F) with |I(x, z)|^2 of trial t = ((Q[t] * P[z]) @ F)[x]:
    columns |c_j|^2, Re and Im of c_j conj(c_k) (j < k) in Q; phi_j^2 and
    phi_j phi_k twice in P; rows |E_:j|^2, 2 Re and -2 Im of
    E_:j conj(E_:k) in F."""
    j, k = np.triu_indices(C.shape[1], 1)
    cc = C[:, j] * np.conj(C[:, k])
    ee = 2.0 * E[:, j] * np.conj(E[:, k])
    phi = PT.T
    pp = phi[:, j] * phi[:, k]
    Q = np.concatenate([C.real ** 2 + C.imag ** 2, cc.real, cc.imag], axis=1)
    P = np.concatenate([phi ** 2, pp, pp], axis=1)
    F = np.concatenate([(E.real ** 2 + E.imag ** 2).T, ee.real.T, -ee.imag.T])
    return Q, P, F


def _linear_lift(C, E, PT):
    """Factors (Q, P, F) with [Re I | Im I] of trial t, row z =
    (Q[t] * P[z]) @ F."""
    Q = np.concatenate([C.real, C.imag], axis=1)
    P = np.concatenate([PT.T, PT.T], axis=1)
    F = np.block([[E.real.T, E.imag.T], [-E.imag.T, E.real.T]])
    return Q, P, F


def amplitudes(G, p, W):
    """(p + W) @ G.T, one row per noise row of W, never as a one-row
    product (see the module text on amplitudes): any slice of trials
    recomputes its amplitudes exactly."""
    X = p + W
    if X.shape[0] == 1:
        return (np.concatenate((X, X)) @ G.T)[:1]
    return X @ G.T


def peak_search(G, p, W, beta, E, PT):
    """Per-trial flat image peak indices.

    For each noise row w of W: a = G (p + w), then the image
    I = (E * (2i beta conj(a))) PT is searched for its maximal modulus,
    one depth row at a time, by the quadratic lift for at most
    QUADRATIC_MAX_MODES modes and the linear one above.
    Ties resolve to the smallest flat index (row-major), i.e. smallest
    x index then smallest z index.

    G: (N, K) estimator of data of width K; mc-rate passes the N x N
       filtered basis V psi(S) of projected data (K = N)
    p: (K,) noiseless data, y0 = U^dag p in mc-rate
    W: (T, K) noise rows, c Z_t in mc-rate (N values drawn per trial)
    E: (nx, N) range phases e^{i beta x}; PT: (N, nz) real profile transpose
    returns (T,) int64 flat indices ix * nz + iz, those of np.argmax over
    each trial's whole (nx, nz) image
    """
    C = 2j * beta * np.conj(amplitudes(G, p, W))
    T, N = C.shape
    nx, nz = E.shape[0], PT.shape[1]
    # (T, nz) row bounds; a visited row's entry is set to -inf
    bound = np.square((np.abs(C) * np.abs(E).max(axis=0)) @ np.abs(PT)) * (1.0 + ROW_BOUND_SLACK)
    quadratic = N <= QUADRATIC_MAX_MODES
    Q, P, F = (_quadratic_lift if quadratic else _linear_lift)(C, E, PT)
    Y = np.empty((ROW_CHUNK, F.shape[1]))
    mag = np.empty((ROW_CHUNK, nx))
    offset = np.arange(ROW_CHUNK) * nx  # flat offsets of the rows of a chunk's |I|^2
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
        X = Q[active] * P[z]
        for s in range(0, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            m = np.matmul(X[s:e], F, out=Y[:e - s])
            if not quadratic:
                np.square(m, out=m)
                m = np.add(m[:, :nx], m[:, nx:], out=mag[:e - s])
            m.argmax(axis=1, out=ix[s:e])
            m.ravel().take(ix[s:e] + offset[:e - s], out=val[s:e])
        v, f, b = val[:n], ix[:n] * nz + z, best[active]
        win = (v > b) | ((v == b) & (f < flat[active]))
        best[active[win]] = v[win]
        flat[active[win]] = f[win]
    return flat
