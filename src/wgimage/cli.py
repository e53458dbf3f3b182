"""Command-line experiment runner.

Subcommands: modes, spectrum, image, mc-rate, rank-scan. Each reads a
key=value config file (see config.py), applies any command-line
overrides, runs the experiment, writes CSV into --out, and prints a
short summary. Exit codes: 0 success, 2 configuration error, 1 runtime
failure.

BLAS runs on one thread: before numpy first loads, this module defaults
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1. The
operators here are small, so a second thread does not shorten a run; it
only burns CPU. A value exported in the environment wins. The package
imports lazily, so `import wgimage` alone never changes the environment.
"""

import argparse
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .config import build_experiment, load_config  # noqa: E402
from .errors import ConfigError  # noqa: E402
from .experiments import (  # noqa: E402
    mode_table,
    run_image,
    run_mc_rate,
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


def _cmd_modes(args):
    ecfg = _load(args)
    ms = ecfg.ms
    print(f"model {type(ms.spec).__name__} L={ms.spec.L:g} omega={ms.omega:g} "
          f"k_o={ms.k_o:g} lambda_o={ms.lambda_o:.6g}")
    print(f"{ms.n_modes} guided modes")
    print("j,alpha,beta")
    for j, al, be in mode_table(ms):
        print(f"{j},{al:.6g},{be:.6g}")
    return 0


def _cmd_spectrum(args):
    ecfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    report = run_spectrum(ecfg, args.out)
    for i, v in enumerate(report.spectrum):
        print(f"{i + 1},{v:.6g}")
    print(f"effective rank (eps={report.threshold:g}): {report.effective_rank}")
    print(f"wrote {args.out}/spectrum.csv")
    return 0


def _cmd_image(args):
    ecfg = _load(args)
    sigma = args.sigma
    if sigma is None:
        sigma = ecfg.sigmas[0] if ecfg.sigmas else 0.0
    os.makedirs(args.out, exist_ok=True)
    _, peak, success = run_image(ecfg, sigma, args.out)
    print(f"sigma={sigma:g} peak x={peak[0]:.6g} z={peak[1]:.6g} "
          f"value={peak[2]:.6g} success={'true' if success else 'false'}")
    print(f"wrote {args.out}/image.csv")
    return 0


def _cmd_mc_rate(args):
    ecfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    sigmas, rates = run_mc_rate(ecfg, args.out)
    for s, r in zip(sigmas, rates):
        print(f"sigma={s:.6g} error_rate={r:.6g}")
    print(f"wrote {args.out}/rates.csv")
    return 0


def _cmd_rank_scan(args):
    ecfg = _load(args)
    os.makedirs(args.out, exist_ok=True)
    out = run_rank_scan(ecfg, args.out)
    for kind, rows in out.items():
        for r, pred, meas in rows:
            print(f"{kind} a/L={r:g} predicted={pred:.6g} measured={meas}")
        print(f"wrote {args.out}/rank_scan_{kind}.csv")
    return 0


_COMMANDS = {
    "modes": _cmd_modes,
    "spectrum": _cmd_spectrum,
    "image": _cmd_image,
    "mc-rate": _cmd_mc_rate,
    "rank-scan": _cmd_rank_scan,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failures: bad geometry, IO, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
