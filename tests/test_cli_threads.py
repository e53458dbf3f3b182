"""The CLI runs BLAS on one thread unless the environment says otherwise,
and `import wgimage` alone loads no numpy and leaves the environment be.
A process that runs the CLI freezes its import heap; an explicit argv
leaves the collector alone. A noiseless image loads no numpy.random.

The checks run in child interpreters, each with an explicit environment
that drops the three BLAS variables unless the test sets them: importing
wgimage.cli into the test process (test_config_cli does) sets them there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wgimage

ROOT = Path(__file__).resolve().parent.parent
PLANAR_LHS = str(ROOT / "configs" / "planar_lhs.cfg")
VERTICAL = str(ROOT / "configs" / "vertical.cfg")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# prints the thread count of the OpenBLAS this process has loaded (None
# when it has none), found the way perfbench/run.py's environment probe does
PRINT_BLAS_THREADS = """
import ctypes
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
for lib in libs:
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
            break
    if threads is not None:
        break
print(threads)
"""


def child_env(**blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run(argv, env, cwd=None):
    res = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd)
    assert res.returncode == 0, res.stderr
    return res.stdout


def blas_threads(stdout):
    threads = stdout.split()[-1]
    if threads == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    return int(threads)


@pytest.mark.parametrize("blas, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "user_value_kept"])
def test_cli_import_sets_blas_threads(blas, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS caps its thread count at the CPUs available")
    code = "import wgimage.cli\n" + PRINT_BLAS_THREADS
    assert blas_threads(run([sys.executable, "-c", code], child_env(**blas))) == threads


def test_console_script_runs_one_blas_thread(tmp_path, console_script):
    bindir = console_script(PRINT_BLAS_THREADS)
    env = child_env()
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", os.defpath)])
    assert blas_threads(run(["wgimage"], env, cwd=tmp_path)) == 1


def test_package_import_loads_no_numpy_and_keeps_environment():
    code = ("import os, sys\n"
            "before = dict(os.environ)\n"
            "import wgimage\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n")
    assert run([sys.executable, "-c", code], child_env()).split() == ["False", "True"]


def test_cli_import_generates_no_record_code():
    # the records are NamedTuples: nothing imports
    # dataclasses (numpy does not either), whose decorator writes and
    # compiles methods for every class at import
    code = "import sys, wgimage.cli\nprint('dataclasses' in sys.modules)\n"
    assert run([sys.executable, "-c", code], child_env()).split() == ["False"]


def test_lazy_exports_resolve():
    # in a fresh interpreter, so each name goes through the module __getattr__
    code = ("import wgimage\n"
            "names = wgimage.__all__\n"
            "print(len(names), all(getattr(wgimage, n) is not None for n in names),\n"
            "      set(names) <= set(dir(wgimage)))\n")
    assert run([sys.executable, "-c", code], child_env()).split() == [
        str(len(wgimage.__all__)), "True", "True"]
    assert set(wgimage.__all__) <= set(dir(wgimage))
    with pytest.raises(AttributeError, match="nope"):
        wgimage.nope
    with pytest.raises(ImportError, match="nope"):
        from wgimage import nope  # noqa: F401


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = child_env(OPENBLAS_NUM_THREADS=threads)
        stdout = [run([sys.executable, "-m", "wgimage.cli", *cmd, "--config", PLANAR_LHS,
                       "--out", "out"], env, cwd=cwd)
                  for cmd in (["spectrum"], ["image", "--sigma", "1e-3"])]
        csvs = {p.name: p.read_bytes() for p in sorted((cwd / "out").glob("*.csv"))}
        outputs.append((stdout, csvs))
    assert sorted(outputs[0][1]) == ["image.csv", "spectrum.csv"]
    assert outputs[0] == outputs[1]


def test_cli_process_freezes_its_import_heap(tmp_path, console_script):
    # main() without argv, as `python -m wgimage.cli` and the script call it
    tail = ("main()\n"
            "import gc\n"
            "print(gc.get_freeze_count() > 0)\n")
    bindir = console_script(tail)
    env = child_env()
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", os.defpath)])
    out = run(["wgimage", "modes", "--config", VERTICAL], env, cwd=tmp_path)
    assert out.split()[-1] == "True"


@pytest.mark.parametrize("prelude", ["", "gc.disable()"], ids=["enabled", "disabled"])
def test_explicit_argv_leaves_the_collector_alone(prelude):
    code = ("import gc\n"
            f"{prelude}\n"
            "enabled = gc.isenabled()\n"
            "import wgimage.cli\n"
            "imported = gc.get_freeze_count()\n"
            f"wgimage.cli.main(['modes', '--config', {VERTICAL!r}])\n"
            "print(imported, gc.get_freeze_count(), gc.isenabled() == enabled)\n")
    assert run([sys.executable, "-c", code], child_env()).split()[-3:] == ["0", "0", "True"]


@pytest.mark.parametrize("sigma, loaded", [("0", "False"), ("1e-6", "True")])
def test_noiseless_image_loads_no_random(tmp_path, sigma, loaded):
    code = ("import sys\n"
            "from wgimage.cli import main\n"
            f"main(['image', '--config', {VERTICAL!r}, '--sigma', {sigma!r}, '--out', 'out'])\n"
            "print('numpy.random' in sys.modules)\n")
    assert run([sys.executable, "-c", code], child_env(), cwd=tmp_path).split()[-1] == loaded
