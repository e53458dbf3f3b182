"""Self-tests of the benchmark's output checks.

Each check must accept what the program writes and reject a corrupted
copy. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SPECTRUM_CFG = {"waveguide.model": "homogeneous_dn", "waveguide.L": "20", "omega": "1.0",
                "array.kind": "dense_vertical", "array.z_a": "9", "array.a": "4"}
IMAGE_CFG = {"waveguide.model": "homogeneous_dd", "waveguide.L": "20", "omega": "1.0",
             "source.x": "100", "source.z": "7.7",
             "array.kind": "planar_lhs", "array.M": "40", "array.center_x": "-10",
             "array.center_z": "10", "array.size": "10", "array.seed": "3",
             "noise.sigmas": "0", "noise.seed": "1"}
TRIALS = 50


def _cli(tmp, name, cfg, *args):
    path = tmp / f"{name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp / name
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "wgimage.cli", *args, "--config", str(path),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    vertical = checks.parse_cfg((HERE.parent / "configs" / "vertical.cfg").read_text())
    return {
        "spectrum": _cli(tmp, "spectrum", SPECTRUM_CFG, "spectrum") / "spectrum.csv",
        "image": _cli(tmp, "image", IMAGE_CFG, "image") / "image.csv",
        "rates": _cli(tmp, "rates", vertical, "mc-rate", "--trials", str(TRIALS)) / "rates.csv",
        "sigmas": [float(v) for v in vertical["noise.sigmas"].split(",")],
    }


def _rewrite(src, dst, edit):
    """Copy a CSV, passing its data rows (lists of strings) through edit."""
    lines = pathlib.Path(src).read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    rows = edit([ln.split(",") for ln in body[1:]])
    dst.write_text("\n".join(head + body[:1] + [",".join(r) for r in rows]) + "\n")
    return dst


def test_program_outputs_pass(outputs):
    checks.check_spectrum(outputs["spectrum"], SPECTRUM_CFG)
    checks.check_image(outputs["image"], IMAGE_CFG)
    checks.check_rates(outputs["rates"], outputs["sigmas"], TRIALS)


def test_spectrum_sum_off_by_1e6_rejected(outputs, tmp_path):
    bad = _rewrite(outputs["spectrum"], tmp_path / "s.csv",
                   lambda rows: [[i, repr(float(v) * (1 + 1e-6))] for i, v in rows])
    with pytest.raises(CheckFailed, match="trace"):
        checks.check_spectrum(bad, SPECTRUM_CFG)


def test_spectrum_out_of_order_rejected(outputs, tmp_path):
    def swap(rows):
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
        return rows
    bad = _rewrite(outputs["spectrum"], tmp_path / "s.csv", swap)
    with pytest.raises(CheckFailed, match="descending"):
        checks.check_spectrum(bad, SPECTRUM_CFG)


def test_image_peak_moved_one_wavelength_rejected(outputs, tmp_path):
    guide = checks.Guide.from_cfg(IMAGE_CFG)
    xs, zs = checks.search_grid(IMAGE_CFG, guide)
    shift = int(round(guide.wavelength / (xs[1] - xs[0]))) * zs.size

    def move(rows):
        vals = [r[2] for r in rows]
        vals = vals[-shift:] + vals[:-shift]  # image moved one wavelength in +x
        return [[x, z, v] for (x, z, _), v in zip(rows, vals)]
    bad = _rewrite(outputs["image"], tmp_path / "i.csv", move)
    with pytest.raises(CheckFailed, match="peak"):
        checks.check_image(bad, IMAGE_CFG)


@pytest.mark.parametrize("rate", ["1.2", "-0.02"])
def test_rate_outside_unit_interval_rejected(outputs, tmp_path, rate):
    def edit(rows):
        rows[1][1] = rate
        return rows
    bad = _rewrite(outputs["rates"], tmp_path / "r.csv", edit)
    with pytest.raises(CheckFailed, match=r"outside \[0, 1\]"):
        checks.check_rates(bad, outputs["sigmas"], TRIALS)


def test_rate_not_multiple_of_one_over_trials_rejected(outputs, tmp_path):
    def edit(rows):
        rows[1][1] = repr(0.5 + 0.5 / TRIALS)
        return rows
    bad = _rewrite(outputs["rates"], tmp_path / "r.csv", edit)
    with pytest.raises(CheckFailed, match="multiple"):
        checks.check_rates(bad, outputs["sigmas"], TRIALS)


@pytest.mark.parametrize("kind", ["spectrum", "image", "rates"])
def test_row_count_off_by_one_rejected(outputs, tmp_path, kind):
    bad = _rewrite(outputs[kind], tmp_path / "x.csv", lambda rows: rows[:-1])
    with pytest.raises(CheckFailed, match="rows"):
        if kind == "spectrum":
            checks.check_spectrum(bad, SPECTRUM_CFG)
        elif kind == "image":
            checks.check_image(bad, IMAGE_CFG)
        else:
            checks.check_rates(bad, outputs["sigmas"], TRIALS)


def test_image_pixels_compared_with_mode_sum(outputs, tmp_path):
    # every value scaled by 0.99 except the peak: grid, range and peak
    # checks still pass, only the closed-form comparison can see it
    def damp(rows):
        return [[x, z, v if float(v) == 1.0 else repr(0.99 * float(v))] for x, z, v in rows]
    bad = _rewrite(outputs["image"], tmp_path / "i.csv", damp)
    with pytest.raises(CheckFailed, match="closed-form"):
        checks.check_image(bad, IMAGE_CFG)


def test_trace_rules_agree_with_quadrature():
    # the sin^2 / cos^2 closed forms and the Hermite rule against a dense
    # trapezoid rule
    for model in ("homogeneous_dd", "homogeneous_dn", "parabolic"):
        guide = checks.Guide(model, 20.0, 1.0)
        z = np.linspace(3.0, 11.0, 200001)
        e = np.sum(guide.profiles(z) ** 2, axis=1)
        ref = np.sum(0.5 * (e[1:] + e[:-1])) * (z[1] - z[0]) / 8.0
        assert abs(guide.mean_profile_energy(3.0, 11.0) - ref) <= 1e-8 * ref
