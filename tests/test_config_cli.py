import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wgimage as wg
from wgimage import io
from wgimage.cli import main
from wgimage.config import build_experiment, load_config, parse_config_text
from wgimage.experiments import (
    localization_error_rates,
    mode_table,
    run_image,
    threshold_sigma,
)

CFG_DIR = str(Path(__file__).resolve().parent.parent / "configs")
VERTICAL = f"{CFG_DIR}/vertical.cfg"


# ---------------------------------------------------------------------------
# config parsing

def test_parse_skips_comments_and_blanks():
    cfg = parse_config_text("# a comment\n\nomega = 1.0\nwaveguide.L=20\n")
    assert cfg.get_float("omega") == 1.0
    assert cfg.get_float("waveguide.L") == 20.0


@pytest.mark.parametrize("text", [
    "omega 1.0\n",            # no separator
    "= 3\n",                  # empty key
    "omega = 1\nomega = 2\n"  # duplicate
])
def test_parse_rejects_malformed(text):
    with pytest.raises(wg.ConfigError):
        parse_config_text(text)


def test_typed_getters():
    cfg = parse_config_text(
        "n = 0x10\nx = 2.5\nxs = 1e-3, 2e-3,\nname = abc\n")
    assert cfg.get_int("n") == 16
    assert cfg.get_float("x") == 2.5
    assert cfg.get_floats("xs") == [1e-3, 2e-3]
    with pytest.raises(wg.ConfigError):
        cfg.get("missing")
    with pytest.raises(wg.ConfigError):
        cfg.get_float("name")
    with pytest.raises(wg.ConfigError):
        cfg.get_int("x")
    assert cfg.get_float("missing", 7.0) == 7.0
    cfg.override("n", "3")
    cfg.override("x", None)  # None leaves the entry alone
    assert cfg.get_int("n") == 3 and cfg.get_float("x") == 2.5


def test_all_shipped_configs_build():
    paths = sorted(glob.glob(f"{CFG_DIR}/*.cfg"))
    assert len(paths) >= 6
    for path in paths:
        ecfg = build_experiment(load_config(path))
        assert ecfg.ms.n_modes >= 1


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


@pytest.mark.parametrize("key, value", [
    ("noise.seed", "-1"),
    ("noise.seed", str(2**128)),
    ("noise.sigmas", "-1e-6, 1e-5"),
    ("noise.sigmas", "nan, 1e-5"),
    ("noise.sigmas", "1e-5, inf"),
])
def test_noise_keys_rejected(tmp_path, capsys, key, value):
    lines = [ln for ln in load_config(VERTICAL).text.splitlines()
             if not ln.startswith(key)]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    with pytest.raises(wg.ConfigError, match=key):
        build_experiment(load_config(str(cfg)))
    assert main(["mc-rate", "--config", str(cfg), "--trials", "2",
                 "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rates.csv").exists()


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
        "reg.kind = hard\nreg.policy = explicit\nreg.eps = 1e-3\n")
    ecfg = build_experiment(cfg)
    assert np.array_equal(ecfg.geometry.points, [[0.0, 3.0], [0.0, 7.5]])
    assert ecfg.reg.kind == "hard" and ecfg.reg.eps == 1e-3


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
    # the single-frequency breakdown; measured rate at 1e-2 is 0.26
    ecfg = build_experiment(load_config(f"{CFG_DIR}/planar_lhs_w07.cfg"))
    rates = localization_error_rates(
        ecfg.ms, ecfg.source, ecfg.geometry.points, [1e-2], 50,
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
    assert lines[3] == "sigma,error_rate,trials,seed"
    rows = [line.split(",") for line in lines[4:]]
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


def test_console_script_installed(tmp_path):
    # Run the `wgimage` command that pyproject.toml declares, through the
    # same wrapper an installer writes, so a source checkout needs no install.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(CFG_DIR).parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wgimage"]
    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "wgimage"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('wgimage', {target!r}, 'console_scripts').load()\n"
        "sys.exit(main())\n")
    script.chmod(0o755)
    pkg_root = str(Path(wg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", os.defpath)])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    res = subprocess.run(["wgimage", "modes", "--config", VERTICAL],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0
    assert "guided modes" in res.stdout


def test_config_digest_matches_header(tmp_path):
    text = load_config(VERTICAL).text
    assert main(["spectrum", "--config", VERTICAL, "--out", str(tmp_path)]) == 0
    line = (tmp_path / "spectrum.csv").read_text().splitlines()[1]
    assert line == f"# config {io.config_digest(text)}"
