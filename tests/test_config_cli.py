import contextlib
import glob
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgimage as wg
from wgimage import io
from wgimage.cli import main
from wgimage.config import KEYS, build_experiment, load_config, parse_config_text, read_keys
from wgimage.experiments import (
    localization_error_rates,
    mode_table,
    rank_scan_rows,
    run_image,
    threshold_sigma,
)
from wgimage.rank import DENSE_LINE_KINDS

ROOT = Path(__file__).resolve().parent.parent
CFG_DIR = str(ROOT / "configs")
VERTICAL = f"{CFG_DIR}/vertical.cfg"


# ---------------------------------------------------------------------------
# config parsing

def test_parse_skips_comments_and_blanks():
    values = read_keys(parse_config_text("# a comment\n\nomega = 1.0\nwaveguide.L=20\n"))
    assert values["omega"] == 1.0
    assert values["waveguide.L"] == 20.0


@pytest.mark.parametrize("text", [
    "omega 1.0\n",            # no separator
    "= 3\n",                  # empty key
    "omega = 1\nomega = 2\n"  # duplicate
])
def test_parse_rejects_malformed(text):
    with pytest.raises(wg.ConfigError):
        parse_config_text(text)


def test_typed_getters():
    base = "waveguide.L = 20\nomega = 1\n"
    cfg = parse_config_text(base + "noise.trials = 0x10\nnoise.sigmas = 1e-3, 2e-3,\n")
    ecfg = build_experiment(cfg)
    assert ecfg.trials == 16
    assert ecfg.sigmas == [1e-3, 2e-3]
    assert ecfg.ms.spec.c_o == 1.0  # the declared default
    with pytest.raises(wg.ConfigError, match="missing required key 'omega'"):
        build_experiment(parse_config_text("waveguide.L = 20\n"))
    with pytest.raises(wg.ConfigError, match="omega must be a finite number"):
        build_experiment(parse_config_text("waveguide.L = 20\nomega = abc\n"))
    with pytest.raises(wg.ConfigError, match="noise.trials must be an integer"):
        build_experiment(parse_config_text(base + "noise.trials = 2.5\n"))
    cfg["noise.trials"] = "3"
    values = read_keys(cfg)
    assert values["noise.trials"] == 3 and values["noise.sigmas"] == [1e-3, 2e-3]


def test_all_shipped_configs_build():
    paths = sorted(glob.glob(f"{CFG_DIR}/*.cfg"))
    assert len(paths) >= 6
    for path in paths:
        ecfg = build_experiment(load_config(path))
        assert ecfg.ms.n_modes >= 1


@pytest.mark.parametrize("seed", [0, 2024])
def test_every_benchmark_config_builds(tmp_path, monkeypatch, seed):
    # a stricter key table must never turn a benchmark operation into exit 2
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends perfbench/
    spec = importlib.util.spec_from_file_location("wgimage_bench_run",
                                                  ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name, make_ops in run.WORKLOADS.items():
        cfgdir = tmp_path / name
        cfgdir.mkdir()
        for op in make_ops(seed, str(cfgdir)):
            path = op.argv[op.argv.index("--config") + 1]
            assert build_experiment(load_config(path)).ms.n_modes >= 1, (name, op.label)


def test_readme_lists_every_key():
    block = (ROOT / "README.md").read_text().split("### Config keys")[1].split("```")[1]
    rows = [line.split()[0] for line in block.splitlines() if line[:1].strip()]
    assert rows == [key.name for key in KEYS]


def test_readme_library_example(capsys):
    # run the "Library in one minute" block; its last comment line gives
    # the printed x, z and success flag, the floats to two decimals
    block = (ROOT / "README.md").read_text().split("## Library in one minute")[1]
    code = block.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md", "exec"), {})
    x, z, ok = capsys.readouterr().out.split()
    shown = code.rstrip().splitlines()[-1].lstrip("# ").split(":")[0]
    assert shown == "99.64 7.85 True"
    assert f"{float(x):.2f} {float(z):.2f} {ok}" == shown


def test_vertical_config_contents():
    ecfg = build_experiment(load_config(VERTICAL))
    assert isinstance(ecfg.geometry, wg.Discrete)
    assert ecfg.geometry.points.shape == (20, 2)
    assert ecfg.sigmas == [1e-8, 1e-7, 1e-6, 1e-5]
    assert ecfg.trials == 200 and ecfg.seed == 2024
    assert ecfg.source.x_o == 100.0 and ecfg.source.z_o == 7.7


def test_build_rejections():
    base = "waveguide.L = 20\nomega = 1\n"
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text(base + "waveguide.model = maxwell\n"))
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text("waveguide.L = -3\nomega = 1\n"))
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text(base + "array.kind = ring\n"))
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text(base + "noise.trials = 0\n"))
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text(base + "reg.kind = wiener\n"))
    with pytest.raises(wg.ConfigError):
        build_experiment(parse_config_text(base + "array.kind = points\narray.points = 1;2\n"))


def _vertical_with(tmp_path, entries):
    """configs/vertical.cfg with `entries` set (None: left out); returns the
    new path. A new array.kind drops the vertical line's array.* keys."""
    def dropped(key):
        return key in entries or ("array.kind" in entries and key.startswith("array."))

    lines = [ln for ln in Path(VERTICAL).read_text().splitlines()
             if not dropped(ln.partition("=")[0].strip())]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines + [f"{k} = {v}" for k, v in entries.items()
                                       if v is not None]) + "\n")
    return str(cfg)


@pytest.mark.parametrize("key, value", [
    ("noise.seed", "-1"),
    ("noise.seed", str(2**128)),
    ("noise.sigmas", "-1e-6, 1e-5"),
    ("noise.sigmas", "nan, 1e-5"),
    ("noise.sigmas", "1e-5, inf"),
])
def test_noise_keys_rejected(tmp_path, capsys, key, value):
    cfg = _vertical_with(tmp_path, {key: value})
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg))
    assert main(["mc-rate", "--config", cfg, "--trials", "2",
                 "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("key, entries", [
    ("omega", {"omega": "-1"}),
    ("omega", {"omega": "nan"}),
    ("waveguide.L", {"waveguide.L": "inf"}),
    ("waveguide.L", {"waveguide.L": "0"}),
    ("waveguide.c_o", {"waveguide.c_o": "0"}),
    ("waveguide.c_o", {"waveguide.c_o": "nan"}),
    ("grid.step_fraction", {"grid.step_fraction": "0"}),
    ("grid.step_fraction", {"grid.step_fraction": "-5"}),
    ("grid.step_fraction", {"grid.step_fraction": "inf"}),
    ("grid.x_min", {"grid.x_min": "150", "grid.x_max": "50"}),
    ("grid.x_min", {"grid.x_min": "50", "grid.x_max": "50"}),
    ("grid.z_min", {"grid.z_min": "15", "grid.z_max": "5"}),
    ("grid.x_min", {"grid.x_min": "-inf"}),
    ("grid.x_max", {"grid.x_max": "nan"}),
    ("grid.z_min", {"grid.z_min": "nan"}),
    ("grid.z_max", {"grid.z_max": "inf"}),
    # beyond [0, L] the mode sum is not the field
    ("grid.z_min", {"grid.z_min": "-10", "grid.z_max": "30"}),
    ("grid.z_min", {"grid.z_min": "-1"}),
    ("grid.z_max", {"grid.z_max": "20.5"}),
    ("grid.z_max", {"waveguide.model": "homogeneous_dn", "grid.z_max": "25"}),
])
def test_scale_and_grid_keys_rejected(tmp_path, capsys, key, entries):
    cfg = _vertical_with(tmp_path, entries)
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg))
    assert main(["image", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "image.csv").exists()


@pytest.mark.parametrize("key, entries", [
    ("grid.x_min", {"grid.x_min": "0"}),  # the receivers' own range
    ("grid.x_min", {"grid.x_min": "-20", "grid.x_max": "20"}),  # across the array
    ("source.x", {"grid.x_max": "90"}),
    ("source.z", {"grid.z_min": "8", "grid.z_max": "12"}),
])
def test_search_grid_beyond_the_array_around_the_source(tmp_path, capsys, key, entries):
    # image and mc-rate search the grid; spectrum reads none of it
    cfg = _vertical_with(tmp_path, entries)
    build_experiment(load_config(cfg))
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg), "image")
    for cmd in (["image"], ["mc-rate", "--trials", "2"]):
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_too_few_receivers_exits_2(tmp_path, capsys):
    # refused where the config is built, for every command, naming the key
    # that sets the receiver count; the DD L=20 guide has 6 modes
    for key, m, entries in (
            ("array.M", 3, {"array.M": "3"}),
            ("array.M", 5, {"array.kind": "horizontal", "array.M": "5"}),
            ("array.M", 4, {"array.kind": "planar_lhs", "array.M": "4"}),
            ("array.points", 2, {"array.kind": "points", "array.points": "0,3; 0,7.5"})):
        cfg = _vertical_with(tmp_path, entries)
        with pytest.raises(wg.TooFewReceivers, match=key):
            build_experiment(load_config(cfg))
        for cmd in ("modes", "spectrum", "image", "mc-rate", "rank-scan"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and key in err
            assert f"{m} receivers for 6 guided modes" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, entries", [
    ("reg.eps", {"reg.eps": "nan"}),
    ("reg.eps", {"reg.eps": "inf"}),
    ("reg.eps", {"reg.eps": "-1e-3"}),
    ("reg.eps", {"reg.kind": "hard", "reg.eps": "nan"}),
    # the removed key: it may not silently switch eps on or off
    ("reg.policy", {"reg.policy": "heuristic", "reg.eps": "5"}),
    ("reg.policy", {"reg.policy": "explicit", "reg.eps": "1e-3"}),
])
def test_reg_keys_rejected(tmp_path, capsys, key, entries):
    cfg = _vertical_with(tmp_path, entries)
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg))
    for cmd in (["image"], ["mc-rate", "--trials", "2"]):
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "reg.eps" in err
    assert not list(tmp_path.glob("*.csv"))


def test_plain_inversion_of_singular_spectrum_exits_2(tmp_path, capsys):
    # a repeated receiver: 6 modes on 6 receivers, s_0/s_min ~ 1e16
    entries = {"array.kind": "points",
               "array.points": "0,3;0,3;0,7;0,9;0,12;0,15", "reg.kind": "none"}
    cfg = _vertical_with(tmp_path, entries)
    for cmd in (["image", "--sigma", "1e-6"], ["mc-rate", "--trials", "2"]):
        assert main([*cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "reg.kind" in err
    assert not list(tmp_path.glob("*.csv"))
    # a regularizer at eps = 0 is plain inversion too: the heuristic eps at
    # sigma 0, or reg.eps = 0
    for kind, eps, sigma in (("tikhonov", None, "0"), ("hard", "0", "1e-6")):
        cfg = _vertical_with(tmp_path, dict(entries, **{"reg.kind": kind, "reg.eps": eps}))
        assert main(["image", "--sigma", sigma, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "reg.eps" in err
    assert not list(tmp_path.glob("*.csv"))
    # the default regularizer runs on the same receivers
    cfg = _vertical_with(tmp_path, dict(entries, **{"reg.kind": "tikhonov"}))
    assert main(["image", "--sigma", "1e-6", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_sigma_zero_refusal_names_sigma(tmp_path, capsys):
    # the noise-matched eps is 0 at sigma 0, so a config that sets neither
    # reg.kind nor reg.eps is refused; the message names the sigma as well
    cfg = tmp_path / "sigma0.cfg"
    cfg.write_text("waveguide.model = parabolic\nwaveguide.L = 20\nomega = 1\n"
                   "source.x = 100\nsource.z = 0\narray.kind = vertical\narray.M = 12\n"
                   "array.z_a = 0\narray.extent = 0.25\nnoise.sigmas = 0, 1e-3\n")
    for cmd in (["image", "--sigma", "0"], ["mc-rate", "--trials", "2"]):
        assert main([*cmd, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: spectrum spans more than 14 decades: plain inversion "
                       "(reg.kind = none, reg.eps = 0, or the noise-matched eps at a sigma "
                       "of 0 in noise.sigmas or --sigma) needs reg.eps > 0 or a nonzero "
                       "sigma\n")
    assert not list(tmp_path.glob("*.csv"))
    # a nonzero sigma runs
    assert main(["image", "--sigma", "1e-3", "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("key, kind, value", [
    ("array.a", kind, a)
    for kind in ("dense_vertical", "dense_horizontal", "dense_planar")
    for a in ("0", "-3", "nan", "inf")
] + [
    ("array.a", "dense_vertical", None),  # no intervals: a is required
    ("array.intervals", "dense_vertical", "5:2;12:0"),
    ("array.intervals", "dense_vertical", "5:-2"),
    ("array.intervals", "dense_horizontal", "nan:2"),
    ("array.intervals", "dense_horizontal", "5:inf"),
    ("array.intervals", "dense_horizontal", "5-2"),
])
def test_dense_half_widths_rejected(tmp_path, capsys, key, kind, value):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(f"waveguide.L = 20\nomega = 1\narray.z_a = 10\narray.kind = {kind}\n"
                   + (f"{key} = {value}\n" if value is not None else ""))
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(str(cfg)))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


_PLANAR = {"array.kind": "planar_lhs", "array.M": "20"}
_DENSE = {"array.kind": "dense_vertical", "array.a": "2"}
_DEEP = {"waveguide.model": "parabolic", "waveguide.L": "10", "array.z_a": "0",
         "grid.z_min": "-200", "grid.z_max": "200"}


@pytest.mark.parametrize("key, entries", [
    ("noise.trial", {"noise.trial": "5"}),
    ("array.extnet", {"array.extnet": "3"}),
    ("array.M", {"array.M": "-5"}),
    ("array.extent", {"array.extent": "nan"}),
    ("array.extent", {"array.extent": "0"}),
    ("array.z_a", {"array.z_a": "nan"}),
    ("array.size", dict(_PLANAR, **{"array.size": "nan"})),
    ("array.size", dict(_PLANAR, **{"array.size": "-1"})),
    ("array.center_x", dict(_PLANAR, **{"array.center_x": "inf"})),
    ("array.seed", dict(_PLANAR, **{"array.seed": "-1"})),
    ("array.points", {"array.kind": "points", "array.points": "0,3;0,5;0,7;0,9;0,11;0,nan"}),
    ("array.z_a", dict(_DENSE, **{"array.z_a": "nan"})),
    ("array.intervals", dict(_DENSE, **{"array.intervals": "5:2"})),  # next to array.a
    ("array.M", {"array.kind": "points", "array.points": "0,3", "array.M": "20"}),
    ("source.x", {"source.x": "nan"}),
    ("source.z", {"source.x": "100", "source.z": None}),
    ("source.z", {"source.z": "25"}),  # below the floor of the L=20 guide
    ("array.z_a", {"array.z_a": "40"}),
    ("array.points", {"array.kind": "points", "array.points": "0,3;0,5;0,7;0,9;0,11;0,-1"}),
    ("reg.eps", {"reg.kind": "none", "reg.eps": "5"}),
    ("rank.eps", {"rank.eps": "-1"}),
    ("rank.eps", {"rank.eps": "nan"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "0"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "-0.1"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "nan"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "0.05, -1"}),
    ("rank.z_a", {"rank.z_a": "nan"}),
    # the profiles at the source's depth have norm 0: 1.3e-162 at most,
    # whose square underflows (its mode amplitudes, 2.2e-162, do not)
    ("source.z", dict(_DEEP, **{"source.z": "87.75"})),
    ("omega", {"omega": "0.1"}),  # below the first cutoff: no guided modes
    # each interval is centered at its own depth: z_a would be ignored
    ("array.z_a", {"array.kind": "dense_vertical", "array.intervals": "5:2;12:1",
                   "array.z_a": "3"}),
    # on a Dirichlet wall every mode vanishes: z = 0 and L (DD), z = L (DN)
    ("source.z", {"source.z": "0"}),
    ("source.z", {"source.z": "20"}),
    ("source.z", {"waveguide.model": "homogeneous_dn", "source.z": "20"}),
    ("array.z_a", {"array.kind": "horizontal", "array.M": "20", "array.z_a": "0"}),
    ("array.z_a", {"waveguide.model": "homogeneous_dn", "array.kind": "horizontal",
                   "array.M": "20", "array.z_a": "20"}),
    ("array.points", {"array.kind": "points", "array.points": "0,0;1,0;2,0;0,20;1,20;2,20"}),
    # a dense aperture's depth factor: segments within [0, L], point masses
    # also off the Dirichlet walls; likewise the rank-scan apertures
    ("array.z_a", {"array.kind": "dense_horizontal", "array.z_a": "0", "array.a": "1"}),
    ("array.z_a", {"waveguide.model": "homogeneous_dn", "array.kind": "dense_horizontal",
                   "array.z_a": "20", "array.a": "1"}),
    ("array.z_a", {"array.kind": "dense_horizontal", "array.intervals": "5:2",
                   "array.z_a": "-1"}),
    ("array.z_a", {"array.kind": "dense_vertical", "array.z_a": "50", "array.a": "4"}),
    ("array.z_a", {"array.kind": "dense_vertical", "array.a": "3"}),  # no array.z_a
    ("array.intervals", {"array.kind": "dense_vertical", "array.intervals": "5:2; 30:1"}),
    ("array.z_a", {"array.kind": "dense_planar", "array.z_a": "19.5", "array.a": "1"}),
    ("rank.z_a", {"rank.z_a": "0"}),
    ("rank.z_a", {"rank.z_a": "25"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "0.3, 0.7"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "0.7"}),
    # every dense aperture names its depth, even where z_a = 0 would fit the guide
    ("array.z_a", {"waveguide.model": "parabolic", "array.kind": "dense_vertical",
                   "array.a": "1"}),
    ("array.z_a", {"waveguide.model": "homogeneous_dn", "array.kind": "dense_horizontal",
                   "array.a": "1"}),
    # the data model is the field of a source beyond the array
    ("source.x", {"source.x": "-5"}),
    ("source.x", {"source.x": "0"}),  # the receivers' own range
    ("source.x", {"array.kind": "dense_horizontal", "array.z_a": "7", "array.a": "60"}),
    # the graded guide is symmetric about its axis: a set is checked at |z|
    ("source.z", dict(_DEEP, **{"source.z": "-100"})),
    ("array.z_a", dict(_DEEP, **{"array.kind": "dense_planar", "array.z_a": "-150",
                                 "array.a": "1"})),
    # deep in the L=10 graded guide every mode amplitude is 0, or its square
    # underflows: 3.9e-212 at z = 100, exactly 0 at z = 150
    ("source.z", dict(_DEEP, **{"source.z": "100"})),
    ("source.z", dict(_DEEP, **{"source.z": "150"})),
    # every list entry is distinct: equal floats written differently repeat
    ("noise.sigmas", {"noise.sigmas": "1e-6, 1e-06"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "0.1, 0.1"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "0.1, 0.2, 0.1"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "0.05, 5e-2"}),
    ("noise.sigmas", {"noise.sigmas": "-0, 0"}),  # -0 reads as 0
    ("rank.z_a", dict(_DEEP, **{"rank.z_a": "-150"})),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "0"}),
    ("rank.ratios_vertical", {"rank.ratios_vertical": "-0.1"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "nan"}),
    # likewise every mode vanishes on receivers, dense apertures and
    # rank-scan apertures deep in the graded guide: exactly 0 at z = 150,
    # squares that underflow at z = 90
    ("array.z_a", dict(_DEEP, **{"array.z_a": "150"})),
    ("array.z_a", dict(_DEEP, **{"array.z_a": "90"})),
    ("array.center_z", dict(_DEEP, **{"array.z_a": None, "array.kind": "planar_lhs",
                                      "array.M": "20", "array.center_z": "-150"})),
    ("array.points", dict(_DEEP, **{"array.z_a": None, "array.kind": "points",
                                    "array.points": "0,100;0,-120;0,150;1,-150;1,200"})),
    ("array.z_a", dict(_DEEP, **{"array.kind": "dense_horizontal", "array.z_a": "150",
                                 "array.a": "1"})),
    ("array.z_a", dict(_DEEP, **{"array.kind": "dense_vertical", "array.z_a": "150",
                                 "array.a": "1"})),
    ("array.intervals", dict(_DEEP, **{"array.z_a": None, "array.kind": "dense_vertical",
                                       "array.intervals": "150:1; -120:20"})),
    ("rank.z_a", dict(_DEEP, **{"rank.ratios_vertical": "", "rank.z_a": "150"})),
])
def test_invalid_keys_exit_2_before_any_output(tmp_path, capsys, key, entries):
    cfg = _vertical_with(tmp_path, entries)
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg))
    for cmd in ("spectrum", "image", "mc-rate", "rank-scan"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("entries", [
    {"waveguide.model": "homogeneous_dn", "source.z": "0"},  # Neumann at z = 0
    {"waveguide.model": "homogeneous_dn", "array.kind": "horizontal", "array.M": "20",
     "array.z_a": "0"},
    {"array.kind": "points", "array.points": "0,0;1,0;2,0;0,20;1,20;2,7"},  # one off the walls
    {"array.kind": "dense_vertical", "array.intervals": "5:2;12:1"},
    {"waveguide.model": "homogeneous_dn", "array.kind": "dense_horizontal",
     "array.z_a": "0", "array.a": "1"},
    {"array.kind": "dense_vertical", "array.z_a": "2", "array.a": "2"},  # segment [0, 4]
    {"rank.ratios_vertical": "0.5"},  # the full depth [0, L]
    {"rank.ratios_horizontal": "", "rank.z_a": "0"},  # no horizontal scan reads rank.z_a
    {"rank.ratios_vertical": ""},  # an empty scan has no aperture to check
    {"waveguide.model": "parabolic", "array.kind": "dense_vertical", "array.z_a": "-3",
     "array.a": "1"},
    {"grid.z_min": "0", "grid.z_max": "20"},  # the default grid: both walls
    {"waveguide.model": "parabolic", "array.kind": "dense_vertical", "array.z_a": "-3",
     "array.a": "1", "grid.z_min": "-30", "grid.z_max": "30"},  # unbounded in depth
    dict(_DEEP, **{"source.z": "80"}),  # mode amplitudes of 2.4e-134, norm > 0
    dict(_DEEP, **{"array.z_a": "85"}),  # receiver profiles of norm > 0
])
def test_depths_off_the_dirichlet_walls_accepted(tmp_path, entries):
    build_experiment(load_config(_vertical_with(tmp_path, entries)))


@pytest.mark.parametrize("entries, geometry", [
    ("array.kind = dense_vertical\narray.z_a = 10\narray.a = 2",
     wg.Dense(0.0, ((10.0, 2.0),))),
    ("array.kind = dense_vertical\narray.intervals = 5:2; 12:1",
     wg.Dense(0.0, ((5.0, 2.0), (12.0, 1.0)))),
    ("array.kind = dense_horizontal\narray.z_a = 7\narray.a = 3",
     wg.Dense(((3.0, 3.0),), 7.0)),
    ("array.kind = dense_horizontal\narray.z_a = 7\narray.intervals = 5:2; 12:1",
     wg.Dense(((5.0, 2.0), (12.0, 1.0)), 7.0)),
    ("array.kind = dense_planar\narray.z_a = 10\narray.a = 2",
     wg.Dense(((0.0, 2.0),), ((10.0, 2.0),))),
], ids=["vertical", "vertical_intervals", "horizontal", "horizontal_intervals", "planar"])
def test_dense_kinds_build_their_product_measure(entries, geometry):
    # the shapes README documents: vertical x = 0 over [z_a -+ a],
    # horizontal [0, 2a] at depth z_a, planar [-a, a] x [z_a -+ a]
    ecfg = build_experiment(parse_config_text(f"waveguide.L = 20\nomega = 1\n{entries}\n"))
    assert ecfg.geometry == geometry


def test_rank_scan_apertures():
    # vertical x = 0 over depths [0, 2a], horizontal [0, 2a] at depth rank.z_a
    ecfg = build_experiment(parse_config_text(
        "waveguide.L = 20\nomega = 1\nrank.ratios_vertical = 0.1, 0.25\n"
        "rank.ratios_horizontal = 0.1, 0.25\nrank.z_a = 7\n"))
    assert ecfg.rank_apertures == {
        "vertical": [(0.1, wg.Dense(0.0, ((2.0, 2.0),))), (0.25, wg.Dense(0.0, ((5.0, 5.0),)))],
        "horizontal": [(0.1, wg.Dense(((2.0, 2.0),), 7.0)),
                       (0.25, wg.Dense(((5.0, 5.0),), 7.0))]}


def test_rank_ratios_is_an_unknown_key(tmp_path, capsys):
    # each kind reads its own rank.ratios_<kind>; there is no shared alias,
    # and no kind list: a kind is scanned when its ratio list is non-empty
    for name, value in (("rank.ratios", "0.1"), ("rank.kinds", "vertical")):
        assert name not in {key.name for key in KEYS}
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"waveguide.L = 20\nomega = 1\n{name} = {value}\n")
        assert main(["rank-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: unknown key '{name}' (rank.* keys: rank.eps, "
            "rank.ratios_horizontal, rank.ratios_vertical, rank.z_a)\n")
        assert not list(tmp_path.glob("*.csv"))


def test_rank_scan_with_every_ratio_list_empty_exits_2(tmp_path, capsys):
    cfg = _vertical_with(tmp_path, {"rank.ratios_vertical": "", "rank.ratios_horizontal": ""})
    out = tmp_path / "out"
    assert main(["rank-scan", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: rank-scan needs a non-empty "
                                       "rank.ratios_vertical or rank.ratios_horizontal\n")
    assert not out.exists()
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0  # no other command scans


@pytest.mark.parametrize("kind, other", [("vertical", "horizontal"), ("horizontal", "vertical")])
def test_rank_scan_writes_the_kinds_with_ratios(tmp_path, capsys, kind, other):
    code, stdout, files = _outputs(tmp_path, capsys, _vertical_with(
        tmp_path, {f"rank.ratios_{other}": ""}), "rank-scan")
    assert code == 0 and list(files) == [f"rank_scan_{kind}.csv"]
    assert stdout.startswith(f"{kind} a/L=") and other not in stdout


def test_unknown_key_lists_its_section():
    cfg = parse_config_text("waveguide.L = 20\nomega = 1\nnoise.trial = 5\n")
    with pytest.raises(wg.ConfigError) as exc:
        read_keys(cfg)
    assert str(exc.value) == ("unknown key 'noise.trial' "
                              "(noise.* keys: noise.seed, noise.sigmas, noise.trials)")
    # a key of no known section lists every section
    with pytest.raises(wg.ConfigError) as exc:
        read_keys(parse_config_text("waveguide.L = 20\nomega = 1\nsorce.x = 5\n"))
    assert str(exc.value) == ("unknown key 'sorce.x' (keys: array.*, grid.*, noise.*, "
                              "omega, rank.*, reg.*, source.*, waveguide.*)")


# every key, some misspellings, and values from one token list: valid small
# values, 0, -1, nan, inf, abc, a repeated list entry, the empty value, a
# depth (150) where every parabolic mode vanishes, and None for a left-out key
_FUZZ_KEYS = sorted({key.name for key in KEYS}) + [
    "noise.trial", "array.extnet", "omeg", "reg.policy", "grid.xmin"]
# values each key accepts on its own, for the L = 20 guides and the grid
# around x = 100 below; a key the drawn array.kind does not read, or a clash
# with another key, still exits 2
_FUZZ_VALUES = {
    "waveguide.model": ["homogeneous_dd", "homogeneous_dn", "parabolic"],
    "waveguide.L": ["20", "16"], "waveguide.c_o": ["1", "1.2"], "omega": ["1", "0.8"],
    "source.x": ["100", "98"], "source.z": ["7.7", "12"],
    "array.kind": ["vertical", "horizontal", "planar_lhs"], "array.M": ["12", "16"],
    "array.z_a": ["7", "11"], "array.extent": ["16", "0.25"],
    "array.center_x": ["0", "-3"], "array.center_z": ["11", "6"],
    "array.size": ["8", "0.125"], "array.seed": ["0", "3"],
    "array.points": ["0,1;0,3;0,5;0,7;0,9;0,11;0,13;0,15;0,17;0,19;2,6;2,14"],
    "array.a": ["1", "3"], "array.intervals": ["5:2; 12:1"],
    "noise.sigmas": ["0, 1e-3", "1e-6", "1e-4, 1e-2"], "noise.trials": ["1", "5"],
    "noise.seed": ["0", "7", "2024"], "reg.kind": ["tikhonov", "hard"],
    "reg.eps": ["1e-6", "0.5"], "grid.x_min": ["95", "90"], "grid.x_max": ["105", "110"],
    "grid.z_min": ["0", "2"], "grid.z_max": ["20", "18"],
    "grid.step_fraction": ["20", "10"], "rank.eps": ["1e-7", "1e-3"],
    "rank.ratios_vertical": ["0.1, 0.2"],
    "rank.ratios_horizontal": ["0.05, 0.1"], "rank.z_a": ["7", "10"],
}
_FUZZ_TOKENS = [None, "", "0", "-1", "nan", "inf", "abc", "1", "2", "0.5", "7", "0x10",
                "1e-6, 0", "1e-6, 1e-06", "0,3;0,7", "5:2", "vertical", "horizontal",
                "planar_lhs", "points", "dense_vertical", "dense_horizontal", "dense_planar",
                "homogeneous_dn", "parabolic", "hard", "none", "150"]
# the receiver sets are wide enough that both guides (6 and 10 modes) run
# them at sigma 0, where plain inversion refuses an ill-conditioned B
_FUZZ_ARRAYS = [
    {"array.kind": "vertical", "array.M": "12", "array.z_a": "10", "array.extent": "16"},
    {"array.kind": "horizontal", "array.M": "12", "array.z_a": "7", "array.extent": "40"},
    {"array.kind": "planar_lhs", "array.M": "12", "array.center_z": "10", "array.size": "8"},
    {"array.kind": "points",
     "array.points": "0,2;0,4;0,6;0,8;0,10;0,12;0,14;0,16;0,18;1,3;1,9;1,15"},
    {"array.kind": "dense_vertical", "array.z_a": "10", "array.a": "3"},
    {"array.kind": "dense_planar", "array.z_a": "10", "array.a": "1"},
    {},
]
# the L = 20 guides, Dirichlet and graded
_FUZZ_GUIDES = [{}, {"waveguide.model": "parabolic"}]
_FUZZ_COMMANDS = (["modes"], ["spectrum"], ["image", "--sigma", "0"],
                  ["mc-rate", "--trials", "2"], ["rank-scan"])


def _printed_numbers(text):
    """Every token of printed text, split at blanks, commas and =, that
    reads as a float."""
    for tok in re.split(r"[\s,=]+", text):
        try:
            yield float(tok)
        except ValueError:
            pass


def _fuzz_edits(array):
    """Up to three edits of a config on `array`: three in four set a key
    that its array.kind reads to one of that key's values, the fourth sets
    any key to any token."""
    kind = array.get("array.kind")
    read = {key.name for key in KEYS if key.kinds is None or kind in key.kinds}
    valid = st.sampled_from([(k, v) for k, vals in _FUZZ_VALUES.items() if k in read
                             for v in vals])
    junk = (st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_TOKENS))
            .filter(lambda e: e != ("omega", "7")))  # omega <= 2: few modes
    return st.lists(st.sampled_from([valid] * 3 + [junk]).flatmap(lambda edit: edit),
                    max_size=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(guide=st.sampled_from(_FUZZ_GUIDES),
       config=st.sampled_from(_FUZZ_ARRAYS).flatmap(
           lambda array: st.tuples(st.just(array), _fuzz_edits(array))))
def test_fuzzed_configs_run_or_exit_2(guide, config):
    # every command exits 0 or 2; exit 2 names a key or the command and
    # writes nothing; exit 0 prints and writes only finite numbers
    array, edits = config
    entries = {"waveguide.L": "20", "omega": "1", "source.x": "100", "source.z": "7.7",
               "grid.x_min": "95", "grid.x_max": "105", "noise.sigmas": "0, 1e-3",
               **guide, **array, **dict(edits)}
    names = {key.name for key in KEYS} | set(entries)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None))
        for cmd in _FUZZ_COMMANDS:
            out = Path(tmp) / cmd[0]
            stdout, stderr = StringIO(), StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*cmd, "--config", str(cfg), "--out", str(out)])
            err = stderr.getvalue()
            assert code in (0, 2), (cmd, entries, err)
            if code == 2:
                assert any(name in err for name in names | {cmd[0]}), (cmd, entries, err)
                assert not out.exists(), (cmd, entries)
                continue
            assert all(map(np.isfinite, _printed_numbers(stdout.getvalue()))), (cmd, entries)
            for csv in out.glob("*.csv"):
                rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")][1:]
                values = [float(cell) for row in rows for cell in row.split(",")]
                assert all(map(np.isfinite, values)), (cmd, entries, csv.name)


def test_noise_overrides_rejected(tmp_path, capsys):
    assert main(["mc-rate", "--config", VERTICAL, "--trials", "2", "--seed", "-1",
                 "--out", str(tmp_path)]) == 2
    assert "noise.seed" in capsys.readouterr().err
    assert main(["image", "--config", VERTICAL, "--sigma=-1e-6",
                 "--out", str(tmp_path)]) == 2
    assert "noise.sigmas" in capsys.readouterr().err
    # sigma 0 (noiseless data) and seed 0 stay valid
    ecfg = build_experiment(parse_config_text(
        "waveguide.L = 20\nomega = 1\nnoise.sigmas = 0, 1e-6\nnoise.seed = 0\n"))
    assert ecfg.sigmas == [0.0, 1e-6] and ecfg.seed == 0


def test_points_geometry_and_explicit_reg():
    cfg = parse_config_text(
        "waveguide.L = 20\nomega = 1\n"
        "array.kind = points\narray.points = 0,3; 0,7.5; 1,9; 1,11; 2,13; 2,16\n"
        "reg.kind = hard\nreg.eps = 1e-3\n")
    ecfg = build_experiment(cfg)  # six receivers for the six modes
    assert np.array_equal(ecfg.geometry.points,
                          [[0, 3], [0, 7.5], [1, 9], [1, 11], [2, 13], [2, 16]])
    assert ecfg.reg == wg.RegPolicy(wg.HardThreshold, 1e-3)


def test_mode_table_numbering(ms_dd20, ms_parab10):
    rows = mode_table(ms_dd20)
    assert rows[0][0] == 1 and rows[-1][0] == 6
    assert mode_table(ms_parab10)[0][0] == 0


def test_threshold_sigma_interpolation():
    sig = threshold_sigma([1e-4, 1e-3, 1e-2], [0.0, 0.25, 1.0])
    assert sig == pytest.approx(1e-3 * 10 ** ((0.5 - 0.25) / 0.75))
    assert np.isnan(threshold_sigma([1e-4, 1e-3], [0.0, 0.1]))
    # an interval starting at sigma 0 is interpolated linearly
    sig = threshold_sigma([0, 1e-4, 1e-3], [0.0, 0.7, 1.0])
    assert sig == pytest.approx(1e-4 * 0.5 / 0.7)


def test_error_rates_nondecreasing_within_noise(ms_dd20, src_ref, vertical_points):
    trials = 100
    rates = localization_error_rates(
        ms_dd20, src_ref, vertical_points,
        [1e-8, 1e-7, 1e-6, 1e-5], trials, seed=2024,
        grid=wg.default_grid(ms_dd20), reg=wg.RegPolicy())
    assert rates[0] == 0.0 and rates[-1] == 1.0
    se = np.sqrt(np.maximum(rates * (1 - rates), 0.25) / trials)
    assert np.all(np.diff(rates) >= -2 * se[:-1])


def test_error_rate_zero_at_zero_noise(ms_dd20, src_ref, vertical_points):
    rates = localization_error_rates(
        ms_dd20, src_ref, vertical_points, [0.0], trials=10, seed=2024,
        grid=wg.default_grid(ms_dd20), reg=wg.RegPolicy())
    assert rates.tolist() == [0.0]


def test_error_rates_count_misses_by_the_one_ball_rule(monkeypatch, ms_dd20, src_ref,
                                                      vertical_points):
    # a miss is a peak that image.localization_success refuses, asked once
    # per call over every node of the grid
    grid = wg.default_grid(ms_dd20)
    args = (ms_dd20, src_ref, vertical_points, [0.0, 1e-8], 10, 2024)
    kwargs = dict(grid=grid, reg=wg.RegPolicy())
    assert localization_error_rates(*args, **kwargs).tolist() == [0.0, 0.0]
    shapes = []

    def nowhere(peak, src, lambda_o):
        shape = np.broadcast_shapes(np.shape(peak[0]), np.shape(peak[1]))
        shapes.append(shape)
        return np.zeros(shape, dtype=bool)

    monkeypatch.setattr("wgimage.experiments.localization_success", nowhere)
    assert localization_error_rates(*args, **kwargs).tolist() == [1.0, 1.0]
    assert shapes == [(grid.x.size, grid.z.size)]


def test_image_runner_noiseless_success(tmp_path, capsys):
    cfg = load_config(VERTICAL)
    cfg["noise.sigmas"] = "0"
    ecfg = build_experiment(cfg)
    run_image(ecfg, str(tmp_path))
    out = capsys.readouterr().out
    assert "success=true" in out
    x = float(out.split("peak x=")[1].split()[0])
    assert abs(x - ecfg.source.x_o) < 0.5 * ecfg.ms.lambda_o


def test_spectrum_runner_full_aperture_flat(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text("waveguide.L = 20\nomega = 1\n"
                   "array.kind = dense_vertical\narray.z_a = 10\narray.a = 10\n")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    vals = np.array([float(line.split(",")[1]) for line in lines[4:]])
    # full-depth aperture: A = I/L, so every eigenvalue is 1/L
    assert vals.shape == (6,)
    np.testing.assert_allclose(vals, 1.0 / 20.0, rtol=1e-12)


def test_mixed_frequency_high_noise_mostly_localizes():
    # at omega = 0.7 the half-wavelength ball stays reliable well past
    # the single-frequency breakdown; measured rate at 1e-2 is about 0.24,
    # and 1000 trials put the bound about 4 standard errors above it
    ecfg = build_experiment(load_config(f"{CFG_DIR}/planar_lhs_w07.cfg"))
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, [1e-2], 1000,
        ecfg.seed, grid=ecfg.grid, reg=ecfg.reg)
    assert rates[0] <= 0.3


# ---------------------------------------------------------------------------
# command line

def test_cli_modes(capsys):
    assert main(["modes", "--config", VERTICAL]) == 0
    out = capsys.readouterr().out
    assert "6 guided modes" in out
    assert out.count("\n") == 9  # banner + count + header + 6 rows
    assert out == ("model HomogeneousDD L=20 omega=1 k_o=1 lambda_o=6.28319\n"
                   "6 guided modes\n"
                   "j,alpha,beta\n"
                   "1,0.15708,0.987586\n"
                   "2,0.314159,0.94937\n"
                   "3,0.471239,0.882006\n"
                   "4,0.628319,0.777956\n"
                   "5,0.785398,0.618991\n"
                   "6,0.942478,0.334269\n")


def test_cli_spectrum_csv(tmp_path, capsys):
    assert main(["spectrum", "--config", VERTICAL, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "# wgimage 0.1.0"
    assert lines[1].startswith("# config ") and len(lines[1].split()[-1]) == 12
    assert lines[2] == "# seed 2024"
    assert lines[3] == "index,value"
    top = float(lines[4].split(",")[1])
    assert top == pytest.approx(2.59285760, rel=1e-6)
    out = capsys.readouterr().out
    assert "effective rank (eps=1e-07): 5" in out
    assert out == ("1,2.59286\n2,0.101368\n3,0.00186468\n4,1.50007e-05\n"
                   "5,1.10879e-07\n6,4.07422e-10\n"
                   "effective rank (eps=1e-07): 5\n"
                   f"wrote {tmp_path}/spectrum.csv\n")


def test_cli_image_deterministic_bytes(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["image", "--config", VERTICAL, "--out", str(d),
                     "--sigma", "1e-6"]) == 0
        assert capsys.readouterr().out == (
            "sigma=1e-06 peak x=91.1549 z=2.19911 value=0.245287 success=false\n"
            f"wrote {d}/image.csv\n")
    b1 = (d1 / "image.csv").read_bytes()
    assert b1 == (d2 / "image.csv").read_bytes()
    header = b1.decode().splitlines()
    assert header[3] == "# sigma 1e-06"
    assert header[4] == "x,z,I_normalized"
    # 319 x 65 grid nodes
    assert len(header) == 5 + 319 * 65


def test_cli_mc_rate(tmp_path, capsys):
    assert main(["mc-rate", "--config", VERTICAL, "--out", str(tmp_path),
                 "--trials", "40"]) == 0
    assert capsys.readouterr().out == ("sigma=1e-08 error_rate=0\n"
                                       "sigma=1e-07 error_rate=0.15\n"
                                       "sigma=1e-06 error_rate=1\n"
                                       "sigma=1e-05 error_rate=1\n"
                                       f"wrote {tmp_path}/rates.csv\n")
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[3] == "# noise philox key=seed counter=(0,0,trial,0) N values on U^dag p"
    assert lines[4] == "sigma,error_rate,trials,seed"
    rows = [line.split(",") for line in lines[5:]]
    assert [r[0] for r in rows] == ["1e-08", "1e-07", "1e-06", "1e-05"]
    assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 1.0
    assert rows[0][2:] == ["40", "2024"]


def test_cli_seed_override(tmp_path):
    assert main(["mc-rate", "--config", VERTICAL, "--out", str(tmp_path),
                 "--trials", "5", "--seed", "99"]) == 0
    assert "# seed 99" in (tmp_path / "rates.csv").read_text()


def test_cli_rank_scan_caps_at_mode_count(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("waveguide.L = 100\nomega = 1\n"
                   "rank.ratios_vertical = 0.5\nrank.ratios_horizontal =\n")
    assert main(["rank-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ("vertical a/L=0.5 predicted=31 measured=31\n"
                                       f"wrote {tmp_path}/rank_scan_vertical.csv\n")
    lines = (tmp_path / "rank_scan_vertical.csv").read_text().splitlines()
    assert lines[3] == "a_over_L,predicted,measured"
    ratio, pred, meas = lines[4].split(",")
    ms = wg.solve_modes(wg.HomogeneousDD(L=100.0), 1.0)
    assert float(pred) == ms.n_modes  # 4 (a/L) N > N gets capped
    # a/L = 1/2 is the full depth aperture: flat spectrum, every mode counts
    assert int(meas) == ms.n_modes


def _no_eigh(*args, **kwargs):
    raise AssertionError("printed spectra need no eigenvectors")


def test_dense_spectrum_takes_eigenvalues_only(tmp_path, monkeypatch, capsys):
    # L = 1000 horizontal aperture, 318 modes: the eigenvalue-only path
    # agrees with the eigendecomposition to round-off, n eps d_0
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("waveguide.L = 1000\nomega = 1\narray.kind = dense_horizontal\n"
                   "array.a = 100\narray.z_a = 432.1\n")
    ecfg = build_experiment(load_config(str(cfg)))
    d = wg.coupling_matrix(ecfg.ms, ecfg.geometry).d
    assert d.size == 318
    floor = d.size * np.finfo(float).eps * d[0]
    monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
    spectrum = wg.coupling_spectrum(ecfg.ms, ecfg.geometry)
    assert np.all(np.diff(spectrum) <= 0)
    assert np.abs(spectrum - d).max() <= floor
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[4:] == [f"{i},{v:.12g}" for i, v in enumerate(spectrum, start=1)]
    assert capsys.readouterr().out.splitlines()[:318] == [
        f"{i},{v:.6g}" for i, v in enumerate(spectrum, start=1)]


def test_rank_scan_counts_equal_eigh_counts(monkeypatch):
    ecfg = build_experiment(load_config(f"{CFG_DIR}/rank_scan.cfg"))
    expected = {}
    for kind, apertures in ecfg.rank_apertures.items():
        ds = [wg.coupling_matrix(ecfg.ms, aperture).d for _, aperture in apertures]
        _, level = DENSE_LINE_KINDS[kind]
        expected[kind] = [wg.effective_rank(d, level * d[0]) for d in ds]
    monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
    for kind, apertures in ecfg.rank_apertures.items():
        rows = rank_scan_rows(ecfg.ms, kind, apertures)
        assert [measured for _, _, measured in rows] == expected[kind]


def test_rank_scan_counts_no_mode_on_an_all_zero_spectrum(ms_parab10):
    # every mode vanishes at depth 150 of the L = 10 graded guide: the
    # spectrum is all 0, and a count relative to its top entry of 0 would
    # take every mode
    aperture = wg.dense_line("horizontal", ((1.0, 1.0),), 150.0)
    assert not wg.coupling_spectrum(ms_parab10, aperture).any()
    assert rank_scan_rows(ms_parab10, "horizontal", [(0.1, aperture)]) == [
        (0.1, wg.dense_rank_prediction("horizontal", ((1.0, 1.0),), ms_parab10.lambda_o, 5), 0)]


def _deep_runs_finite(tmp_path, capsys, **entries):
    """image and mc-rate on a vertical line deep in the L = 10 graded guide,
    source (100, -3), exit 0 and print and write only finite numbers."""
    cfg = _vertical_with(tmp_path, dict(_DEEP, **{"source.z": "-3", "noise.sigmas": "1e-3"},
                                        **entries))
    assert main(["image", "--config", cfg, "--out", str(tmp_path / "image")]) == 0
    assert main(["mc-rate", "--trials", "5", "--config", cfg,
                 "--out", str(tmp_path / "rates")]) == 0
    assert all(map(np.isfinite, _printed_numbers(capsys.readouterr().out)))
    for csv in (tmp_path / "image" / "image.csv", tmp_path / "rates" / "rates.csv"):
        rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")][1:]
        assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_deep_receivers_run_while_their_profiles_have_norm(tmp_path, capsys):
    # at z_a = 85 the receiver profiles have norm > 0: image and mc-rate run
    # and print and write finite numbers (at z_a = 90 the build refuses them)
    _deep_runs_finite(tmp_path, capsys, **{"array.z_a": "85"})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z_a", ["87.2", "87.5", "87.8"])
def test_deep_receivers_image_finite_where_tikhonov_underflows(tmp_path, capsys, z_a):
    # receiver profiles of norm > 0 whose singular values and eps are so
    # small that d^2 + eps^2 underflows; a warning raised here would exit 1.
    # The depths of the grid do not enter the estimate: a short one is enough
    _deep_runs_finite(tmp_path, capsys, **{"array.z_a": z_a, "grid.z_min": "-10",
                                           "grid.z_max": "10"})


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("omega 1.0\n")
    assert main(["modes", "--config", str(bad)]) == 2
    latin = tmp_path / "latin1.cfg"  # a Latin-1 e-acute in a comment
    latin.write_bytes(b"# caf\xe9\nwaveguide.L = 20\nomega = 1\n")
    assert main(["modes", "--config", str(latin)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    import wgimage.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("disk full")

    monkeypatch.setitem(cli_mod.COMMANDS, "image", (boom, *cli_mod.COMMANDS["image"][1:]))
    assert main(["image", "--config", VERTICAL, "--sigma", "0",
                 "--out", str(tmp_path)]) == 1
    assert "disk full" in capsys.readouterr().err


def _never_run(ecfg, outdir):
    raise AssertionError("the runner of a refused config was called")


_NO_SOURCE = dict(_DENSE, **{"array.z_a": "10", "source.x": None, "source.z": None})


@pytest.mark.parametrize("cmd, config, message", [
    ("spectrum", "rank_scan.cfg", "spectrum needs array.kind"),
    ("image", "rank_scan.cfg", "image needs array.kind, source.x and source.z"),
    ("mc-rate", "rank_scan.cfg", "mc-rate needs array.kind, source.x, source.z and noise.sigmas"),
    ("mc-rate", {"noise.sigmas": None}, "mc-rate needs noise.sigmas"),
    ("mc-rate", dict(_NO_SOURCE, **{"noise.sigmas": None}),
     "mc-rate needs source.x, source.z and noise.sigmas"),
] + [
    (cmd, config, message.format(cmd=cmd))
    for cmd in ("image", "mc-rate")
    for config, message in (
        (_NO_SOURCE, "{cmd} needs source.x and source.z"),
        (dict(_DENSE, **{"array.z_a": "10"}),
         "{cmd} runs on a receiver set, not array.kind = dense_vertical"),
        ({"grid.x_min": "0"}, "grid.x_min = 0 must lie beyond the array, which reaches x = 0"),
        ({"grid.x_min": "-20", "grid.x_max": "20"},
         "grid.x_min = -20 must lie beyond the array, which reaches x = 0"),
        ({"grid.x_max": "90"}, "source.x = 100 lies outside the search grid, "
                               "x in [50, 90] (grid.x_min, grid.x_max)"),
        ({"grid.z_min": "8", "grid.z_max": "12"}, "source.z = 7.7 lies outside the search "
                                                  "grid, z in [8, 12] (grid.z_min, grid.z_max)"))
])
def test_runner_refusals_made_at_build(tmp_path, monkeypatch, capsys, cmd, config, message):
    # every config a runner once refused is refused where it is built, for
    # its command, naming the keys at fault and no key that is set
    import wgimage.cli as cli_mod

    monkeypatch.setitem(cli_mod.COMMANDS, cmd, (_never_run, *cli_mod.COMMANDS[cmd][1:]))
    cfg = f"{CFG_DIR}/{config}" if isinstance(config, str) else _vertical_with(tmp_path, config)
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(wg.ConfigError) as exc:
        build_experiment(load_config(cfg), cmd)
    assert str(exc.value) == message


def test_out_directory_made_by_the_first_file(tmp_path, capsys):
    refused_at_build = _vertical_with(tmp_path, {"omega": "-1"})
    no_array = f"{CFG_DIR}/rank_scan.cfg"  # refused at build for spectrum, image and mc-rate
    refused = [(c, refused_at_build) for c in ("spectrum", "image", "mc-rate", "rank-scan")]
    refused += [(c, no_array) for c in ("spectrum", "image", "mc-rate")]
    for cmd, cfg in refused:
        out = tmp_path / "out"
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists(), (cmd, cfg)
    capsys.readouterr()
    assert main(["modes", "--config", VERTICAL, "--out", str(tmp_path / "out")]) == 0
    assert not (tmp_path / "out").exists()
    out = tmp_path / "a" / "b"
    assert main(["spectrum", "--config", VERTICAL, "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["spectrum.csv"]


def test_console_script_installed(tmp_path, console_script):
    bindir = console_script()
    pkg_root = str(Path(wg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", os.defpath)])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    res = subprocess.run(["wgimage", "modes", "--config", VERTICAL],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0
    assert "guided modes" in res.stdout


def _config_line(tmp_path, config, *overrides):
    assert main(["mc-rate", "--config", str(config), "--out", str(tmp_path),
                 "--trials", "1", *overrides]) == 0
    return (tmp_path / "rates.csv").read_text().splitlines()[1]


def test_config_digest_matches_header(tmp_path):
    # the digest covers the typed value of every key, defaults included,
    # sorted by key
    values = read_keys(load_config(VERTICAL))
    text = "\n".join(f"{k} = {v!r}" for k, v in sorted(values.items()))
    assert main(["spectrum", "--config", VERTICAL, "--out", str(tmp_path)]) == 0
    line = (tmp_path / "spectrum.csv").read_text().splitlines()[1]
    assert line == f"# config {io.config_digest(text)}"


def test_config_digest_sees_overrides(tmp_path):
    assert _config_line(tmp_path, VERTICAL, "--trials", "5") != \
        _config_line(tmp_path, VERTICAL, "--trials", "50")
    assert _config_line(tmp_path, VERTICAL, "--seed", "7") != _config_line(tmp_path, VERTICAL)


def test_config_digest_ignores_comments(tmp_path):
    edited = tmp_path / "edited.cfg"
    edited.write_text("# a comment-only edit\n\n" + Path(VERTICAL).read_text()
                      .replace("# Vertical receiver line", "# A vertical line"))
    assert _config_line(tmp_path, edited) == _config_line(tmp_path, VERTICAL)


def _outputs(tmp_path, capsys, cfg, *argv):
    """(exit code, stdout, {file name: bytes}) of one run on cfg; every run
    writes to the same --out, so equal runs print equal paths."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = main([*argv, "--config", cfg, "--out", str(out)])
    return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in sorted(out.glob("*"))}


@pytest.mark.parametrize("argv", [["image"], ["mc-rate", "--trials", "5"]])
def test_negative_zero_sigma_runs_as_zero(tmp_path, capsys, argv):
    # -0 passes the >= 0 check and parses as 0: the same stdout and CSVs,
    # the config digest included, in the config and on the command line
    def run(sigmas, *flags):
        return _outputs(tmp_path, capsys, _vertical_with(tmp_path, {"noise.sigmas": sigmas}),
                        *argv, *flags)

    zero = run("0, 1e-7")
    assert zero[0] == 0 and zero[2]
    assert run("-0, 1e-7") == zero
    assert run("1e-7", "--sigma=-0.0") == run("1e-7", "--sigma=0")


def test_negative_zero_finite_key_runs_as_zero(tmp_path, capsys):
    # a key read as any finite number also parses -0 as 0: the same stdout
    # and image.csv, the config digest included
    def run(z_min):
        return _outputs(tmp_path, capsys, _vertical_with(tmp_path, {"grid.z_min": z_min}),
                        "image")

    zero = run("0")
    assert zero[0] == 0 and zero[2]
    assert run("-0") == zero
    assert run("-0.0") == zero

