"""Each waveguide fact has one owner module: no module of the package
takes a private name from a sibling (`from .estimate import _gram`),
and only `modes` tells its waveguide models apart by class. A module
reads a model's facts from the model itself (its `walls`) or from its
ModeSet."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wgimage"
MODELS = {"HomogeneousDD", "HomogeneousDN", "Parabolic"}
SOURCES = sorted(PACKAGE.glob("*.py"))


def _names(node):
    """Every name and attribute named in an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def offenders(path):
    """`<file>:<line> <what>` for each private import from a sibling module
    and, outside modes.py, each isinstance test of a waveguide model.
    `from . import _record` takes a private module, not a private name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} from .{node.module} "
                                 f"import {alias.name}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and path.name != "modes.py"):
            models = sorted(MODELS.intersection(_names(node.args[1])))
            if models:
                found.append(f"{path.name}:{node.lineno} isinstance(..., {', '.join(models)})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_owner_per_fact(path):
    assert offenders(path) == []

