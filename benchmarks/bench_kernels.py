"""Timing of the Monte Carlo peak-search kernel.

Builds the inputs of the vertical-array localization experiment at
relative noise 1e-6 through the functions `localization_error_rates`
calls: the data model of `receiver_data` (the projected data
y0 = U^dag p), the Tikhonov filtered basis H = V psi(S) at the heuristic
eps, the separable `grid_factors`, and each trial's N values of unit
noise, drawn once and scaled to the noise level, in the blocks of
trial_block(N, nz) trials that `mc-rate` runs (up to 1267 trials at
N = 6 on the 65 depth rows of this grid). It then times
`_kernels.peak_search` over all blocks. Run:

    python3 benchmarks/bench_kernels.py [--trials N] [--repeats R]
"""

import argparse
import time

import numpy as np

import wgimage as wg
from wgimage import _kernels
from wgimage.experiments import _trial_noise, receiver_data, trial_block
from wgimage.image import grid_factors

RECEIVERS = 20


def build_workload(trials, sigma=1e-6, seed=2024):
    ms = wg.solve_modes(wg.HomogeneousDD(L=20.0), 1.0)
    src = wg.PointSource(100.0, 7.7)
    sm, y0, (c,), (reg,) = receiver_data(ms, src, wg.vertical_line(RECEIVERS), [sigma],
                                         wg.RegPolicy())
    E, PT = grid_factors(ms, wg.default_grid(ms))
    Z = np.array([_trial_noise(y0.size, seed, t) for t in range(trials)])
    block = trial_block(*PT.shape)
    blocks = [c * Z[t0:t0 + block] for t0 in range(0, trials, block)]
    H = wg.filtered_basis(sm.V, sm.s, reg)
    return H, y0, blocks, ms.beta, E, PT


def run(H, y0, blocks, beta, E, PT):
    return np.concatenate([_kernels.peak_search(H, y0, W, beta, E, PT) for W in blocks])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    work = build_workload(args.trials)
    H, _, _, _, E, PT = work
    print(f"workload: {args.trials} trials in blocks of {trial_block(*PT.shape)}, "
          f"{E.shape[0]}x{PT.shape[1]} grid, {RECEIVERS} receivers, {H.shape[0]} modes")
    best = np.inf
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        run(*work)
        best = min(best, time.perf_counter() - t0)
    print(f"numpy : {best * 1e3:8.2f} ms  ({best / args.trials * 1e6:.1f} us/trial)")


if __name__ == "__main__":
    main()
