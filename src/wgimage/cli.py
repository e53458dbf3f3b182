"""Command-line experiment runner.

Subcommands: modes, spectrum, image, mc-rate, rank-scan. Each reads a
key=value config file (see config.py) and applies any command-line
overrides (--sigma lands in noise.sigmas); then its runner in
experiments.py writes the CSV into --out and prints a short summary.
--out is created when the first file is written into it, so a refused
run, and `modes`, which only prints, leave no directory behind.
Exit codes: 0 success, 2 configuration error, 1 runtime failure.

BLAS runs on one thread: before numpy first loads, this module defaults
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1. The
operators here are small, so a second thread does not shorten a run; it
only burns CPU. A value exported in the environment wins. The package
imports lazily, so `import wgimage` alone never changes the environment.

A process that runs the CLI (`python -m wgimage.cli`, the `wgimage`
script: `main()` with no argv) first freezes its import heap, some 22
thousand objects: `gc.freeze()` moves them out of every generation, so
neither the collections of the run nor those at interpreter exit
traverse them again. That saves about 20 ms of CPU per process. A call
with an explicit argv leaves the collector as it is.
"""

import argparse
import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .config import build_experiment, load_config  # noqa: E402
from .errors import ConfigError  # noqa: E402
from .experiments import (  # noqa: E402
    run_image,
    run_mc_rate,
    run_modes,
    run_rank_scan,
    run_spectrum,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wgimage",
        description="Guided-mode array imaging experiments: spectra, images, "
                    "localization error rates, effective-rank scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sigma=False, trials=False):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory (default .)")
        p.add_argument("--seed", type=int, default=None,
                       help="override noise.seed")
        if sigma:
            p.add_argument("--sigma", type=float, default=None,
                           help="relative noise level (overrides noise.sigmas)")
        if trials:
            p.add_argument("--trials", type=int, default=None,
                           help="override noise.trials")

    common(sub.add_parser("modes", help="list guided modes"))
    common(sub.add_parser("spectrum", help="array operator spectrum"))
    common(sub.add_parser("image", help="single noisy imaging pass"), sigma=True)
    common(sub.add_parser("mc-rate", help="localization error-rate curve"),
           sigma=True, trials=True)
    common(sub.add_parser("rank-scan", help="predicted vs measured effective rank"))
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.override("noise.seed", str(args.seed))
    if getattr(args, "trials", None) is not None:
        cfg.override("noise.trials", str(args.trials))
    if getattr(args, "sigma", None) is not None:
        cfg.override("noise.sigmas", repr(args.sigma))
    return build_experiment(cfg)


#: Subcommand -> its runner in experiments.py
RUNNERS = {
    "modes": run_modes,
    "spectrum": run_spectrum,
    "image": run_image,
    "mc-rate": run_mc_rate,
    "rank-scan": run_rank_scan,
}


def main(argv=None):
    if argv is None:  # this process runs the CLI: its import heap is final
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        RUNNERS[args.command](_load(args), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failures: bad geometry, IO, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
