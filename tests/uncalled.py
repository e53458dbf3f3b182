"""The package functions that no CLI run calls, each beside its keeper.

It runs `cli.main` for each of the five subcommands on every
configs/*.cfg (`mc-rate` at --trials 20) under `sys.setprofile`. The
profile is set before the package is imported, so calls made while it
loads count too. A function is a function or method that a wgimage
module defines: its module-level functions, and the functions, static
and class methods and property accessors of its classes. Functions
nested in another are not counted.

Each function that no run calls must have a keeper in KEEPERS: the
acceptance criterion that calls it (tests/test_acceptance.py) or the
ROADMAP item that will. It prints one `uncalled <name> <keeper>` line
per uncalled function, by name, then one line per fault of the table:
- `unlisted <name>`: no run calls it, and KEEPERS has no entry for it;
- `called <name>`: KEEPERS lists it, but a run now calls it;
- `missing <name>`: KEEPERS lists it, but the package defines no such
  function.
It exits 1 when it prints a fault line, else 0.

    python tests/uncalled.py

Like tests/output_digests.py, it sets the BLAS thread variables to 1 and
imports the package of its own checkout, from src/.
"""

import contextlib
import importlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wgimage"
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy  # noqa: E402,F401  (loaded before the profile: its calls are not the package's)

#: uncalled function -> its keeper: "criterion NN" of tests/test_acceptance.py
#: or "item NN" of ROADMAP.md; item 16 keeps the paths that the CLI takes
#: on configs unlike the shipped ones, and the records' and the package's
#: dunder contract
KEEPERS = {
    "_kernels._linear_lift": "item 1",
    "_record.eq": "item 16",
    "_record.ne": "item 16",
    "config._unread": "item 16",
    "estimate.HardThreshold.filter": "item 16",
    "estimate.HardThreshold.residual": "item 6",
    "estimate.Tikhonov.residual": "criterion 07",
    "estimate.coupling_matrix": "criterion 05",
    "estimate.estimate_amplitudes": "criterion 05",
    "estimate.mse_decomposition": "criterion 07",
    "estimate.optimal_epsilon": "criterion 08",
    "estimate.project_reduced": "criterion 05",
    "experiments.threshold_sigma": "criterion 13",
    "modes.HomogeneousDN.walls": "item 16",
    "rank.moment_family": "criterion 11",
    "rank.span_rank_collapse": "criterion 11",
    "rank.taylor_rank_prediction": "item 13",
    "synth._axis_nodes": "criterion 05",
    "synth._segment_nodes": "criterion 05",
    "synth.array_samples": "criterion 05",
    "synth.geometry_equal": "criterion 05",
    "synth.sample_field": "criterion 05",
    "wgimage.__dir__": "item 16",
}


def functions():
    """Name -> code object of each function and method a wgimage module
    defines, named `<module>.<qualname>` (`wgimage.<name>` in the
    package's __init__)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        modname = "wgimage" if path.stem == "__init__" else f"wgimage.{path.stem}"
        for obj in vars(importlib.import_module(modname)).values():
            for fn in _members(obj):
                if fn.__module__ == modname:
                    found[f"{modname.removeprefix('wgimage.')}.{fn.__qualname__}"] = fn.__code__
    return found


def _members(obj):
    """The function obj, or the functions a class obj holds."""
    if inspect.isfunction(obj):
        yield obj
    elif inspect.isclass(obj):
        for attr in vars(obj).values():
            if isinstance(attr, (staticmethod, classmethod)):
                attr = attr.__func__
            if isinstance(attr, property):
                yield from (f for f in (attr.fget, attr.fset, attr.fdel) if f is not None)
            elif inspect.isfunction(attr):
                yield attr


def called_codes():
    """The code objects of every call made by importing the CLI and
    running each subcommand on each shipped config."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from wgimage.cli import COMMANDS, main
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for cfg in sorted((ROOT / "configs").glob("*.cfg")):
                for command in COMMANDS:
                    extra = ["--trials", "20"] if command == "mc-rate" else []
                    main([command, "--config", str(cfg), "--out", f"{tmp}/{cfg.stem}", *extra])
    finally:
        sys.setprofile(None)
    return codes


def audit(defined, codes, keepers):
    """(the `uncalled` lines, the fault lines) of the functions `defined`
    (name -> code object) against the called `codes` and the table
    `keepers`."""
    uncalled = sorted(name for name, code in defined.items() if code not in codes)
    lines = [f"uncalled {name} {keepers[name]}" for name in uncalled if name in keepers]
    faults = [f"unlisted {name}" for name in uncalled if name not in keepers]
    faults += [f"called {name}" for name in sorted(keepers)
               if name in defined and name not in uncalled]
    faults += [f"missing {name}" for name in sorted(keepers) if name not in defined]
    return lines, faults


if __name__ == "__main__":
    codes = called_codes()
    lines, faults = audit(functions(), codes, KEEPERS)
    print("\n".join(lines + faults))
    sys.exit(1 if faults else 0)
