"""The abstract's ordering of the arrays at one diameter: at a given
diameter, a planar array is more stable than a vertical line, and a
vertical line more stable than a horizontal one.

The trio is the shipped `vertical` and `horizontal` lines and the shipped
`planar_lhs` set shrunk to half-width 0.0884, so that its diameter (the
largest distance between two receivers) does not exceed the lines'.
Stability is the noise level at which the localization error rate first
crosses one half (`threshold_sigma`).
"""

from pathlib import Path

import numpy as np

from wgimage.config import build_experiment, load_config
from wgimage.experiments import localization_error_rates, threshold_sigma

CFG_DIR = Path(__file__).resolve().parent.parent / "configs"
TRIO = {"planar_lhs": {"array.size": "0.0884"}, "vertical": {}, "horizontal": {}}


def _diameter(points):
    """Largest distance between two receivers."""
    return float(np.linalg.norm(points[:, None] - points[None], axis=-1).max())


def test_planar_beats_vertical_beats_horizontal_at_one_diameter():
    # 1000 trials at seed 1 over one decade per sigma. Over seeds 1-40 the
    # steps read 2.84-2.90 decades (planar over vertical) and 1.47-1.62
    # (vertical over horizontal), so no seed decides the order
    sigmas = np.logspace(-9, -1, 9)
    diameter, threshold = {}, {}
    for name, edits in TRIO.items():
        ecfg = build_experiment(dict(load_config(CFG_DIR / f"{name}.cfg"), **edits), "mc-rate")
        points = ecfg.geometry.points
        diameter[name] = _diameter(points)
        rates = localization_error_rates(ecfg.ms, ecfg.source, points, sigmas, 1000, 1,
                                         ecfg.grid, ecfg.reg)
        threshold[name] = threshold_sigma(sigmas, rates)
    assert round(diameter["planar_lhs"], 4) == 0.1920
    assert round(diameter["vertical"], 4) == round(diameter["horizontal"], 4) == 0.2375
    assert diameter["planar_lhs"] <= min(diameter["vertical"], diameter["horizontal"])
    assert np.log10(threshold["planar_lhs"] / threshold["vertical"]) >= 1
    assert np.log10(threshold["vertical"] / threshold["horizontal"]) >= 1
