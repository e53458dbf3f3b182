import glob
import importlib.util
import os
import subprocess
import sys
import tempfile
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
    run_image,
    threshold_sigma,
)

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
    cfg.override("noise.trials", "3")
    cfg.override("noise.sigmas", None)  # None leaves the entry alone
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
])
def test_scale_and_grid_keys_rejected(tmp_path, capsys, key, entries):
    cfg = _vertical_with(tmp_path, entries)
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(cfg))
    assert main(["image", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "image.csv").exists()


def test_too_few_receivers_exits_2(tmp_path, capsys):
    cfg = _vertical_with(tmp_path, {"array.M": "3"})
    assert main(["image", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "3 receivers" in err
    assert not (tmp_path / "image.csv").exists()


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
    # the default regularizer runs on the same receivers
    cfg = _vertical_with(tmp_path, dict(entries, **{"reg.kind": "tikhonov"}))
    assert main(["image", "--sigma", "1e-6", "--config", cfg, "--out", str(tmp_path)]) == 0


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
    ("rank.ratios", {"rank.ratios": "0"}),
    ("rank.ratios", {"rank.ratios": "-0.1"}),
    ("rank.ratios", {"rank.ratios": "nan"}),
    ("rank.ratios_horizontal", {"rank.ratios_horizontal": "0.05, -1"}),
    ("rank.z_a", {"rank.z_a": "nan"}),
    ("rank.kinds", {"rank.kinds": "vertical, diagonal"}),
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
    ("rank.ratios", {"rank.ratios": "0.7"}),
    # every dense aperture names its depth, even where z_a = 0 would fit the guide
    ("array.z_a", {"waveguide.model": "parabolic", "array.kind": "dense_vertical",
                   "array.a": "1"}),
    ("array.z_a", {"waveguide.model": "homogeneous_dn", "array.kind": "dense_horizontal",
                   "array.a": "1"}),
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
    {"rank.kinds": "vertical", "rank.z_a": "0"},  # no horizontal scan reads rank.z_a
    {"rank.ratios_vertical": ""},  # an empty scan has no aperture to check
    {"rank.ratios": ""},
    {"waveguide.model": "parabolic", "array.kind": "dense_vertical", "array.z_a": "-3",
     "array.a": "1"},
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
        "waveguide.L = 20\nomega = 1\nrank.ratios = 0.1, 0.25\nrank.z_a = 7\n"))
    assert ecfg.rank_apertures == {
        "vertical": [(0.1, wg.Dense(0.0, ((2.0, 2.0),))), (0.25, wg.Dense(0.0, ((5.0, 5.0),)))],
        "horizontal": [(0.1, wg.Dense(((2.0, 2.0),), 7.0)),
                       (0.25, wg.Dense(((5.0, 5.0),), 7.0))]}


def test_unknown_key_lists_its_section():
    cfg = parse_config_text("waveguide.L = 20\nomega = 1\nnoise.trial = 5\n")
    with pytest.raises(wg.ConfigError) as exc:
        read_keys(cfg)
    assert str(exc.value) == ("unknown key 'noise.trial' "
                              "(noise.* keys: noise.seed, noise.sigmas, noise.trials)")


# every key, some misspellings, and values from one token list: valid small
# values, 0, -1, nan, inf, abc, the empty value, and None for a left-out key
_FUZZ_KEYS = sorted({key.name for key in KEYS}) + [
    "noise.trial", "array.extnet", "omeg", "reg.policy", "grid.xmin"]
_FUZZ_TOKENS = [None, "", "0", "-1", "nan", "inf", "abc", "1", "2", "0.5", "7", "0x10",
                "1e-6, 0", "0,3;0,7", "5:2", "vertical", "horizontal", "planar_lhs",
                "points", "dense_vertical", "dense_horizontal", "dense_planar",
                "homogeneous_dn", "parabolic", "hard", "none"]
_FUZZ_ARRAYS = [
    {"array.kind": "vertical", "array.M": "12"},
    {"array.kind": "horizontal", "array.M": "12", "array.z_a": "5"},
    {"array.kind": "planar_lhs", "array.M": "12"},
    {"array.kind": "points", "array.points": "0,2;0,4;0,6;0,8;0,10;0,12;0,14;0,16"},
    {"array.kind": "dense_vertical", "array.z_a": "10", "array.a": "3"},
    {"array.kind": "dense_planar", "array.z_a": "10", "array.a": "1"},
    {},
]


@settings(max_examples=60, deadline=None)
@given(array=st.sampled_from(_FUZZ_ARRAYS),
       edits=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_TOKENS))
                      .filter(lambda e: e != ("omega", "7")),  # omega <= 2: few modes
                      min_size=1, max_size=3))
def test_fuzzed_configs_run_or_exit_2(array, edits):
    entries = {"waveguide.L": "20", "omega": "1", "source.x": "100", "source.z": "7.7",
               "grid.x_min": "95", "grid.x_max": "105", **array, **dict(edits)}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None))
        for cmd in (["spectrum"], ["image", "--sigma", "0"]):
            out = Path(tmp) / cmd[0]
            code = main([*cmd, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2), (cmd, entries)
            if code == 2:
                assert not list(out.glob("*.csv")), (cmd, entries)


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
        "array.kind = points\narray.points = 0,3; 0,7.5\n"
        "reg.kind = hard\nreg.eps = 1e-3\n")
    ecfg = build_experiment(cfg)
    assert np.array_equal(ecfg.geometry.points, [[0.0, 3.0], [0.0, 7.5]])
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
        [1e-8, 1e-7, 1e-6, 1e-5], trials, seed=2024)
    assert rates[0] == 0.0 and rates[-1] == 1.0
    se = np.sqrt(np.maximum(rates * (1 - rates), 0.25) / trials)
    assert np.all(np.diff(rates) >= -2 * se[:-1])


def test_error_rate_zero_at_zero_noise(ms_dd20, src_ref, vertical_points):
    rates = localization_error_rates(
        ms_dd20, src_ref, vertical_points, [0.0], trials=10, seed=2024)
    assert rates.tolist() == [0.0]


def test_image_runner_noiseless_success(tmp_path):
    ecfg = build_experiment(load_config(VERTICAL))
    im, peak, success = run_image(ecfg, 0.0, str(tmp_path))
    assert success
    assert abs(peak[0] - ecfg.source.x_o) < 0.5 * ecfg.ms.lambda_o


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


def test_cli_spectrum_csv(tmp_path, capsys):
    assert main(["spectrum", "--config", VERTICAL, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "# wgimage 0.1.0"
    assert lines[1].startswith("# config ") and len(lines[1].split()[-1]) == 12
    assert lines[2] == "# seed 2024"
    assert lines[3] == "index,value"
    top = float(lines[4].split(",")[1])
    assert top == pytest.approx(2.59285760, rel=1e-6)
    assert "effective rank (eps=1e-07): 5" in capsys.readouterr().out


def test_cli_image_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["image", "--config", VERTICAL, "--out", str(d),
                     "--sigma", "1e-6"]) == 0
    b1 = (d1 / "image.csv").read_bytes()
    assert b1 == (d2 / "image.csv").read_bytes()
    header = b1.decode().splitlines()
    assert header[3] == "# sigma 1e-06"
    assert header[4] == "x,z,I_normalized"
    # 319 x 65 grid nodes
    assert len(header) == 5 + 319 * 65


def test_cli_mc_rate(tmp_path):
    assert main(["mc-rate", "--config", VERTICAL, "--out", str(tmp_path),
                 "--trials", "40"]) == 0
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[3] == "# noise philox key=seed counter=(0,0,trial,0)"
    assert lines[4] == "sigma,error_rate,trials,seed"
    rows = [line.split(",") for line in lines[5:]]
    assert [r[0] for r in rows] == ["1e-08", "1e-07", "1e-06", "1e-05"]
    assert float(rows[0][1]) == 0.0 and float(rows[-1][1]) == 1.0
    assert rows[0][2:] == ["40", "2024"]


def test_cli_seed_override(tmp_path):
    assert main(["mc-rate", "--config", VERTICAL, "--out", str(tmp_path),
                 "--trials", "5", "--seed", "99"]) == 0
    assert "# seed 99" in (tmp_path / "rates.csv").read_text()


def test_cli_rank_scan_caps_at_mode_count(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("waveguide.L = 100\nomega = 1\n"
                   "rank.kinds = vertical\nrank.ratios = 0.5\n")
    assert main(["rank-scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "rank_scan_vertical.csv").read_text().splitlines()
    assert lines[3] == "a_over_L,predicted,measured"
    ratio, pred, meas = lines[4].split(",")
    ms = wg.solve_modes(wg.HomogeneousDD(L=100.0), 1.0)
    assert float(pred) == ms.n_modes  # 4 (a/L) N > N gets capped
    # a/L = 1/2 is the full depth aperture: flat spectrum, every mode counts
    assert int(meas) == ms.n_modes


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("omega 1.0\n")
    assert main(["modes", "--config", str(bad)]) == 2
    import wgimage.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli_mod, "run_image", boom)
    assert main(["image", "--config", VERTICAL, "--sigma", "0",
                 "--out", str(tmp_path)]) == 1
    assert "disk full" in capsys.readouterr().err


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
