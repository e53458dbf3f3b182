"""Spread of the Monte Carlo error rates over noise seeds.

For seeds 1..K (default 40), at the shipped trial counts, it computes:
- the `mc-rate` error rate of every shipped config (each configs/*.cfg
  that sets noise.sigmas) at each of its sigmas;
- the rates that acceptance criterion 12 checks, and criterion 13's
  ratio of the planar_lhs_1000 and planar_lhs threshold sigmas, as
  tests/test_acceptance.py computes them.

It prints one `cell` line per quantity and seed, then one `summary` line
per quantity: the mean and the sample sd over the seeds and, for the
criteria, the seeds at which the check fails. The output is
deterministic, so two checkouts can be compared with diff: a change that
keeps every draw and every decision shows no differing `cell` line.

    python tests/seed_spread.py [--seeds K]

Like tests/output_digests.py, it sets the BLAS thread variables to 1 and
imports the package of its own checkout, from src/.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from wgimage.config import build_experiment, load_config  # noqa: E402
from wgimage.experiments import localization_error_rates, threshold_sigma  # noqa: E402

#: criterion 12: config -> (sigma, "le" or "ge", level) checks of its rate
CRITERION_12 = {
    "vertical": [(1e-8, "le", 0.2), (1e-5, "ge", 0.8)],
    "planar_lhs": [(1e-5, "le", 0.2), (1e-2, "ge", 0.8)],
    "planar_lhs_w07": [(1e-3, "le", 0.2)],
}
#: criterion 13: the sigma scan and the band of the threshold ratio
CRITERION_13_SIGMAS = np.logspace(-6.0, -1.0, 16)
CRITERION_13_BAND = (3.0, 20.0)


def _rates(ecfg, sigmas, seed):
    return localization_error_rates(ecfg.ms, ecfg.source, ecfg.geometry.points, sigmas,
                                    ecfg.trials, seed, grid=ecfg.grid, reg=ecfg.reg)


def spread(seeds):
    """(name, values over seeds, passes over seeds or None) per quantity."""
    ecfgs = {}
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = load_config(path)
        if "noise.sigmas" in cfg:  # the configs mc-rate runs on
            ecfgs[path.stem] = build_experiment(cfg)
    out = []
    for name, ecfg in ecfgs.items():
        rates = np.array([_rates(ecfg, ecfg.sigmas, s) for s in seeds])
        for sigma, col in zip(ecfg.sigmas, rates.T):
            out.append((f"rate {name} {sigma:g} trials {ecfg.trials}", col, None))
    for name, checks in CRITERION_12.items():
        ecfg = ecfgs[name]
        rates = np.array([_rates(ecfg, [c[0] for c in checks], s) for s in seeds])
        for (sigma, op, level), col in zip(checks, rates.T):
            ok = col <= level if op == "le" else col >= level
            sign = "<=" if op == "le" else ">="
            out.append((f"c12 {name} {sigma:g} {sign} {level:g}", col, ok))
    lo, hi = CRITERION_13_BAND
    ratio = np.array([threshold_sigma(CRITERION_13_SIGMAS,
                                      _rates(ecfgs["planar_lhs_1000"], CRITERION_13_SIGMAS, s))
                      / threshold_sigma(CRITERION_13_SIGMAS,
                                        _rates(ecfgs["planar_lhs"], CRITERION_13_SIGMAS, s))
                      for s in seeds])
    out.append((f"c13 ratio in [{lo:g}, {hi:g}]", ratio, (lo <= ratio) & (ratio <= hi)))
    return out


def report(seeds):
    lines = [f"# seeds {seeds[0]}..{seeds[-1]}, numpy {np.__version__}"]
    rows = spread(seeds)
    for name, values, _ in rows:
        lines += [f"cell {name} seed {s} {v!r}" for s, v in zip(seeds, values.tolist())]
    for name, values, ok in rows:
        line = f"summary {name} mean {values.mean():.4f} sd {values.std(ddof=1):.4f}"
        if ok is not None:
            fails = [str(s) for s, passed in zip(seeds, ok) if not passed]
            line += " fails " + (" ".join(fails) or "none")
        lines.append(line)
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="seeds 1..K (default 40)")
    k = ap.parse_args().seeds
    if k < 2:
        ap.error("--seeds must be at least 2 (the sd needs two seeds)")
    sys.stdout.write(report(list(range(1, k + 1))))
