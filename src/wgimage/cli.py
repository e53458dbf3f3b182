"""Command-line experiment runner.

Subcommands: modes, spectrum, image, mc-rate, rank-scan, each stated
once in COMMANDS: its runner, its help and its noise flags. Each reads a
key=value config file into its entries (config.load_config: a dict of
key -> value text), writes the repr of each command-line override given
into them (OVERRIDES: --sigma lands in noise.sigmas) and builds them
with config.build_experiment(entries, command), which refuses every
config the command cannot run before its runner starts. The runner in
experiments.py then writes the CSV into --out and prints a short summary.
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


#: Subcommand -> (its runner in experiments.py, its help, the OVERRIDES flags
#: it takes), in the order --help lists them
COMMANDS = {
    "modes": (run_modes, "list guided modes", ("seed",)),
    "spectrum": (run_spectrum, "array operator spectrum", ("seed",)),
    "image": (run_image, "single noisy imaging pass", ("seed", "sigma")),
    "mc-rate": (run_mc_rate, "localization error-rate curve", ("seed", "sigma", "trials")),
    "rank-scan": (run_rank_scan, "predicted vs measured effective rank", ("seed",)),
}

#: Override flag -> (the config key it sets, its type, its help)
OVERRIDES = {
    "seed": ("noise.seed", int, "override noise.seed"),
    "sigma": ("noise.sigmas", float, "relative noise level (overrides noise.sigmas)"),
    "trials": ("noise.trials", int, "override noise.trials"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wgimage",
        description="Guided-mode array imaging experiments: spectra, images, "
                    "localization error rates, effective-rank scans.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory (default .)")
        for flag in flags:
            _, kind, text = OVERRIDES[flag]
            p.add_argument(f"--{flag}", type=kind, default=None, help=text)
    return parser


def _load(args):
    entries = load_config(args.config)
    for flag, (key, _, _) in OVERRIDES.items():
        if getattr(args, flag, None) is not None:
            entries[key] = repr(getattr(args, flag))
    return build_experiment(entries, args.command)


def main(argv=None):
    if argv is None:  # this process runs the CLI: its import heap is final
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command][0](_load(args), args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failures: bad geometry, IO, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
