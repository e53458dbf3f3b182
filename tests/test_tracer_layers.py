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
