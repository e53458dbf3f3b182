"""Timing of the Monte Carlo peak-search kernel.

Builds the inputs of the vertical-array localization experiment at
relative noise 1e-6 the way `localization_error_rates` builds them: the
Tikhonov estimator matrix at the heuristic eps, the separable grid
factors with the real profile matrix, one unit noise draw per trial
scaled to the noise level, and blocks of TRIAL_BLOCK trials. It then
times `_kernels.peak_search` over all blocks. Run:

    python3 benchmarks/bench_kernels.py [--trials N] [--repeats R]
"""

import argparse
import time

import numpy as np

import wgimage as wg
from wgimage import _kernels
from wgimage.experiments import TRIAL_BLOCK, _filter_for, _trial_noise


def build_workload(trials, sigma=1e-6, seed=2024):
    ms = wg.solve_modes(wg.HomogeneousDD(L=20.0), 1.0)
    src = wg.PointSource(100.0, 7.7)
    sm = wg.sensing_matrix(ms, wg.vertical_line(20))
    a_o = wg.source_amplitudes(ms, src)
    p = sm.B @ a_o
    s_meas = sigma * np.abs(p).max()
    G = (sm.V * _filter_for(None, s_meas, a_o, sm.s)) @ sm.U.conj().T
    grid = wg.default_grid(ms)
    E = np.exp(1j * np.outer(grid.x, ms.beta))
    PT = np.ascontiguousarray(ms.profile_matrix(grid.z).T)
    Z = np.array([_trial_noise(p.size, seed, t) for t in range(trials)])
    blocks = [s_meas / np.sqrt(2.0) * Z[t0:t0 + TRIAL_BLOCK]
              for t0 in range(0, trials, TRIAL_BLOCK)]
    return G, p, blocks, ms.beta, E, PT


def run(G, p, blocks, beta, E, PT):
    return np.concatenate([_kernels.peak_search(G, p, W, beta, E, PT) for W in blocks])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    work = build_workload(args.trials)
    G, _, _, _, E, PT = work
    print(f"workload: {args.trials} trials in blocks of {TRIAL_BLOCK}, "
          f"{E.shape[0]}x{PT.shape[1]} grid, {G.shape[1]} receivers, {G.shape[0]} modes")
    best = np.inf
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        run(*work)
        best = min(best, time.perf_counter() - t0)
    print(f"numpy : {best * 1e3:8.2f} ms  ({best / args.trials * 1e6:.1f} us/trial)")


if __name__ == "__main__":
    main()
