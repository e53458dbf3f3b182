"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and attribute name. A rename in the package must fail here, not
only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import wgimage.cli  # noqa: F401  (the tracer wraps names in every loaded wgimage module)
from wgimage import _kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("wgimage_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_resolves(tracer):
    for name, modname, attr, cls, _ in tracer.LAYERS:
        owner = importlib.import_module(modname)
        if cls is not None:
            owner = vars(owner)[cls]
        assert callable(vars(owner).get(attr)), f"{name}: {modname} {cls or ''} {attr}"


def test_install_wraps_every_layer(tracer):
    undo = tracer.install(tracer.Tracer())
    try:
        wrapped = {getattr(getattr(owner, key), "__name__", None) for owner, key, _ in undo}
        assert {attr for _, _, attr, _, _ in tracer.LAYERS} <= wrapped
    finally:
        tracer.uninstall(undo)
    assert all(getattr(owner, key) is orig for owner, key, orig in undo)


def test_kernel_arguments_match_tracer_unpacking():
    # the tracer counts work from the six positional arguments, in this order
    params = list(inspect.signature(_kernels.peak_search).parameters)
    assert params == ["G", "p", "W", "beta", "E", "PT"]


CONFIGS = TRACER.parent.parent / "configs"


def _traced_main(tracer, argv):
    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        assert wgimage.cli.main(argv) == 0
    finally:
        tracer.uninstall(undo)
    return t


def test_csv_counts_of_a_streamed_image(tracer, tmp_path):
    # write_image_csv hands write_csv a generator; the tracer must still
    # count every pixel row and every byte of image.csv
    t = _traced_main(tracer, ["image", "--config", str(CONFIGS / "vertical.cfg"),
                              "--sigma", "0", "--out", str(tmp_path)])
    layer = tracer.summarize(t.spans)["io.write_csv"]
    assert layer["rows_written"] == 319 * 65
    assert layer["bytes_written"] == (tmp_path / "image.csv").stat().st_size


@pytest.mark.parametrize("command, config, extra, files", [
    pytest.param("spectrum", "vertical.cfg", [], ["spectrum.csv"], id="spectrum"),
    pytest.param("mc-rate", "vertical.cfg", ["--trials", "3"], ["rates.csv"], id="mc-rate"),
    pytest.param("rank-scan", "rank_scan.cfg", [],
                 ["rank_scan_vertical.csv", "rank_scan_horizontal.csv"], id="rank-scan"),
    pytest.param("image", "parabolic.cfg", ["--sigma", "1e-3"], ["image.csv"], id="image"),
])
def test_csv_counts_of_every_kind(tracer, tmp_path, command, config, extra, files):
    # one write_csv span per file, in the order the files are written
    argv = [command, "--config", str(CONFIGS / config), *extra, "--out", str(tmp_path)]
    t = _traced_main(tracer, argv)
    counted = [counts for _, name, _, _, _, _, counts in t.spans
               if name == "io.write_csv" and counts]
    expect = []
    for name in files:
        text = (tmp_path / name).read_text(encoding="utf-8")
        data_lines = sum(1 for ln in text.splitlines() if not ln.startswith("#")) - 1
        expect.append({"rows_written": data_lines,
                       "bytes_written": (tmp_path / name).stat().st_size})
    assert counted == expect
    assert all(c["rows_written"] > 0 for c in counted)


@pytest.mark.parametrize("command, extra, draws", [
    pytest.param("image", [], 1, id="image"),
    pytest.param("mc-rate", ["--trials", "3"], 3, id="mc-rate"),
])
def test_traced_counts_of_the_receiver_data_model(tracer, tmp_path, command, extra, draws):
    # one sensing matrix per run; three mode-profile evaluations (the
    # receivers, the source, the grid: a walled guide's build evaluates
    # none); one noise draw per trial
    argv = [command, "--config", str(CONFIGS / "vertical.cfg"), *extra, "--out", str(tmp_path)]
    layers = tracer.summarize(_traced_main(tracer, argv).spans)
    assert layers["estimate.sensing_matrix"]["calls"] == 1
    assert layers["modes.profile_matrix"]["calls"] == 3
    assert layers["modes.profile_matrix"]["profile_values"] == 516
    assert layers["experiments.noise_draw"]["calls"] == draws
