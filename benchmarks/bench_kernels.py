"""Timing of the Monte Carlo peak-search kernel.

Runs the vertical-array localization experiment at relative noise 1e-6
through `localization_error_rates`, the runner behind `mc-rate`, with
`_kernels.peak_search` wrapped in a timer. So the kernel is timed on the
inputs that the runner passes it, in the runner's blocks of
trial_block(N, nz) trials (up to 1267 trials at N = 6 on the 65 depth
rows of this grid). A repeat sums the time of its kernel calls, and the
best repeat is reported. Run:

    python3 benchmarks/bench_kernels.py [--trials N] [--repeats R]
"""

import argparse
import time

import numpy as np

import wgimage as wg
from wgimage import _kernels
from wgimage.experiments import localization_error_rates

RECEIVERS = 20


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    ms = wg.solve_modes(wg.HomogeneousDD(L=20.0), 1.0)
    src = wg.PointSource(100.0, 7.7)
    grid = wg.default_grid(ms)
    nx, nz = grid.x.size, grid.z.size
    print(f"workload: {args.trials} trials in blocks of {_kernels.trial_block(ms.n_modes, nz)}, "
          f"{nx}x{nz} grid, {RECEIVERS} receivers, {ms.n_modes} modes")
    search, spent = _kernels.peak_search, []

    def timed(*call):
        t0 = time.perf_counter()
        out = search(*call)
        spent.append(time.perf_counter() - t0)
        return out

    best = np.inf
    _kernels.peak_search = timed
    try:
        for _ in range(args.repeats):
            spent.clear()
            localization_error_rates(ms, src, wg.vertical_line(RECEIVERS), [1e-6], args.trials,
                                     2024, grid, wg.RegPolicy())
            best = min(best, sum(spent))
    finally:
        _kernels.peak_search = search
    print(f"numpy : {best * 1e3:8.2f} ms  ({best / args.trials * 1e6:.1f} us/trial)")


if __name__ == "__main__":
    main()
