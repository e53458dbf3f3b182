"""Migration peak search for the Monte Carlo localization experiments.

Each noise draw runs the same three steps: regularized amplitude
estimate from noisy receiver data, migration of the estimate over the
search grid, and argmax of the image modulus. That loop dominates the
runtime of `mc-rate`, so it is written for it: one amplitude GEMM for
all draws of a call, then per draw one real GEMM against the real mode
profiles into preallocated buffers.
"""

import numpy as np


def peak_search(G, p, W, beta, E, PT):
    """Per-trial image peak indices.

    For each noise row w of W: a = G (p + w), then the image
    I = (E * (2i beta conj(a))) PT is scanned for its maximal modulus.
    The profiles are real, so I is formed as the real product
    [Re; Im](E * c) PT and the peak is the argmax of Re(I)^2 + Im(I)^2.
    Ties resolve to the smallest flat index (row-major), i.e. smallest
    x index then smallest z index.

    G: (N, M) estimator matrix V psi(D) U^dag
    p: (M,) noiseless data; W: (T, M) noise draws
    E: (nx, N) range phases e^{i beta x}; PT: (N, nz) real profile transpose
    returns (T, 2) int64 grid indices
    """
    C = 2j * beta * np.conj((p + W) @ G.T)
    nx, nz = E.shape[0], PT.shape[1]
    ec = np.empty(E.shape, dtype=complex)
    stacked = np.empty((2 * nx, E.shape[1]))
    img = np.empty((2 * nx, nz))
    mag = np.empty((nx, nz))
    tmp = np.empty((nx, nz))
    out = np.empty((W.shape[0], 2), dtype=np.int64)
    for t, c in enumerate(C):
        np.multiply(E, c, out=ec)
        stacked[:nx] = ec.real
        stacked[nx:] = ec.imag
        np.matmul(stacked, PT, out=img)
        np.square(img[:nx], out=mag)
        mag += np.square(img[nx:], out=tmp)
        out[t] = divmod(int(np.argmax(mag)), nz)
    return out
