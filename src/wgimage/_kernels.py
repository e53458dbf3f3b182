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
N = 6. The amplitudes are `estimate.amplitudes(G, p + W)`, the package's
one estimate product: one GEMM that never has one row, so every slice
of trials, a single trial included, gets the bits of the whole-block
product, and `image` gets those of trial 0.

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

Working set. A call's bytes are two terms. The first grows with its
trials: 8 B per trial for each of its nz row bounds (searched rows set
to -inf in place) and each column of its row lift, the trial factor Q
(N^2 values quadratic, 2N linear), beside a few scalars per trial (best
value, flat index, round results); C is dropped once Q is written. This
is the part trial_block budgets. The second is fixed, and no block size
changes it: the row factors P and F, |PT| for the row bounds, and the
ROW_CHUNK buffers X = Q[t] * P[z], its GEMM output Y, the linear lift's
mag and rows, a chunk's bounds gathered for the argmax. Every chunk loop
of a call steps by ROW_CHUNK trials. The trial factor's fill keeps its
chunk loop too: the quadratic fill's temporaries have N(N - 1)/2 complex
values per trial, and filling Q in one piece raised a call's peak at
N = 6 from 11.5 to 17.0 B per first-term value.

By tracemalloc, one call's peak grows by 8.1 to 8.8 B per first-term
value between trial_block(N, nz) trials and twice that, and the rest is
7.4 to 9.4 B per fixed value, at N = 6 (vertical, quadratic lift),
N = 12 (the L = 40 guide) and N = 63 (the L = 200 guide, nz = 638,
nx = 319). Over a block the first term dominates a call at N = 6 (11.5 B
per first-term value in all, 1.5 MB) and the fixed one at N = 63
(26.1 B, 3.3 MB).

Result. Each draw's peak is its flat index x * nz + z (row-major), the
index np.argmax returns over the whole (nx, nz) image, and ties resolve
as that argmax does: to the smallest flat index, so within a row the
smallest x, across rows the smallest x * nz + z. The caller scores the
flat index directly (mc-rate reads it in a node mask of the grid).

No product has one row. A row GEMM over a single visited row (the last
trial still searching, or a chunk's one-row remainder) multiplies a
spare row of X beside it, X being allocated as zeros so that the spare
row is finite, just as the amplitude GEMM multiplies a lone trial twice.
On one BLAS thread, a one-row product gave a row other bits than the
64-row GEMM in 64 of 64 rows at each N tried (2 to 8, 12 and 63), on
grids of 319 and 224 columns. At N = 3 to 6, every product of 2 to 63
rows gave each row the bits of the 64-row product, wherever the row
sat. Every shipped config has 4 to 6 modes, so a trial's flat peak
there does not depend on which trials share its rounds: searched
alone, it returns its entry of the block call, and two equal rows tie
exactly and resolve to the smaller flat index. At N = 2, 7 and 8, and
on the linear lift (N = 12 and 63), both the chunk size and the row's
position changed a row's bits on the 319-column grid (at N = 63 on the
224-column one too), so a near tie there can still resolve by rounding.

On the shipped configs at 1000 trials and their seed 2024 a draw visits
1 to 32 of its 46 to 65 rows, 8.55 on average (8.56 at seed 1), so the
search forms about a seventh of the image.
"""

import numpy as np

from .estimate import amplitudes

#: relative widening of the row bound, about 4.5e6 eps: far above either
#: row lift's rounding (N^2 eps at N <= 8, 4N eps above)
ROW_BOUND_SLACK = 1e-9

#: largest mode count scored by the quadratic lift (see the module text)
QUADRATIC_MAX_MODES = 8

#: rows per real GEMM, which runs on one BLAS thread (the CLI pins one),
#: and trials per chunk of every loop of a call: a chunk, the factor F and
#: the output, about 0.3 MB at N = 6 and nx = 319, stay in L2; 64 timed as
#: fast as any of 16 to 256 rows on mc-rate inputs
ROW_CHUNK = 64

#: first-term values (see the module text's working set) per peak_search
#: call: 1267 trials at N = 6 on 65 depth rows, so every shipped config
#: searches 1000 trials in one call per sigma
BLOCK_WORKING_SET = 128_000


def trial_block(n, nz):
    """Trials per peak_search call at n modes on nz depth rows:
    BLOCK_WORKING_SET // (nz + lift width), at least one."""
    lift = n * n if n <= QUADRATIC_MAX_MODES else 2 * n
    return max(1, BLOCK_WORKING_SET // (nz + lift))


def _quadratic_lift(E, PT):
    """Row factors (P, F) and the trial factor's writer fill(C, out) with
    |I(x, z)|^2 of trial t = ((Q[t] * P[z]) @ F)[x]: columns |c_j|^2, Re
    and Im of c_j conj(c_k) (j < k) in Q; phi_j^2 and phi_j phi_k twice
    in P; rows |E_:j|^2, 2 Re and -2 Im of E_:j conj(E_:k) in F."""
    N = E.shape[1]
    j, k = np.triu_indices(N, 1)
    ee = 2.0 * E[:, j] * np.conj(E[:, k])
    phi = PT.T
    pp = phi[:, j] * phi[:, k]
    P = np.concatenate([phi ** 2, pp, pp], axis=1)
    F = np.concatenate([(E.real ** 2 + E.imag ** 2).T, ee.real.T, -ee.imag.T])

    def fill(C, out):
        cc = C[:, j] * np.conj(C[:, k])
        np.add(C.real ** 2, C.imag ** 2, out=out[:, :N])
        out[:, N:N + j.size] = cc.real
        out[:, N + j.size:] = cc.imag

    return P, F, fill


def _linear_lift(E, PT):
    """Row factors (P, F) and the trial factor's writer fill(C, out) with
    [Re I | Im I] of trial t, row z = (Q[t] * P[z]) @ F."""
    N = E.shape[1]
    P = np.concatenate([PT.T, PT.T], axis=1)
    F = np.block([[E.real.T, E.imag.T], [-E.imag.T, E.real.T]])

    def fill(C, out):
        out[:, :N] = C.real
        out[:, N:] = C.imag

    return P, F, fill


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
    C = 2j * beta * np.conj(amplitudes(G, p + W))
    T, N = C.shape
    nx, nz = E.shape[0], PT.shape[1]
    # (T, nz) row bounds, squared and widened in place; a visited row's
    # entry is set to -inf
    bound = (np.abs(C) * np.abs(E).max(axis=0)) @ np.abs(PT)
    np.square(bound, out=bound)
    bound *= 1.0 + ROW_BOUND_SLACK
    quadratic = N <= QUADRATIC_MAX_MODES
    P, F, fill = (_quadratic_lift if quadratic else _linear_lift)(E, PT)
    Q = np.empty((T, P.shape[1]))  # trial factors, written a chunk of trials at a time
    for s in range(0, T, ROW_CHUNK):
        fill(C[s:s + ROW_CHUNK], Q[s:s + ROW_CHUNK])
    del C
    rows = np.empty((min(T, ROW_CHUNK), nz))  # a chunk's remaining bounds
    X = np.zeros((ROW_CHUNK, P.shape[1]))  # zeros: a spare row stays finite
    Y = np.empty((ROW_CHUNK, F.shape[1]))
    mag = None if quadratic else np.empty((ROW_CHUNK, nx))
    offset = np.arange(ROW_CHUNK) * nx  # flat offsets of the rows of a chunk's |I|^2
    best = np.full(T, -np.inf)
    flat = np.zeros(T, dtype=np.int64)
    val = np.empty(T)
    ix = np.empty(T, dtype=np.int64)
    top = np.empty(T, dtype=np.int64)
    active = np.arange(T)
    # the gathers take mode="clip" (the indices are in range): it writes
    # straight into `out`, where the default mode buffers a copy
    for _ in range(nz):  # each round visits one new row of every trial still searching
        n = active.size
        for s in range(0, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            np.take(bound, active[s:e], axis=0, out=rows[:e - s], mode="clip").argmax(
                axis=1, out=top[s:e])
        z = top[:n]
        go = bound[active, z] >= best[active]
        active, z = active[go], z[go]
        if not active.size:
            break
        bound[active, z] = -np.inf
        n = active.size
        for s in range(0, n, ROW_CHUNK):
            e = min(s + ROW_CHUNK, n)
            k = max(e - s, 2)  # no one-row product (see the module text)
            x = np.take(Q, active[s:e], axis=0, out=X[:e - s], mode="clip")
            x *= P[z[s:e]]
            m = np.matmul(X[:k], F, out=Y[:k])[:e - s]
            if not quadratic:
                np.square(m, out=m)
                m = np.add(m[:, :nx], m[:, nx:], out=mag[:e - s])
            m.argmax(axis=1, out=ix[s:e])
            m.ravel().take(ix[s:e] + offset[:e - s], out=val[s:e], mode="clip")
        v, f, b = val[:n], ix[:n] * nz + z, best[active]
        win = (v > b) | ((v == b) & (f < flat[active]))
        best[active[win]] = v[win]
        flat[active[win]] = f[win]
    return flat
