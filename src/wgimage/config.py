"""Experiment configuration: flat key=value text with dotted section keys.

Example:

    waveguide.model = homogeneous_dd
    waveguide.L = 20
    omega = 1.0
    source.x = 100
    source.z = 7.7
    array.kind = planar_lhs
    array.M = 20
    array.size = 0.125
    array.seed = 10
    noise.sigmas = 1e-5, 1e-2
    noise.trials = 200
    noise.seed = 2024

Lines starting with # and blank lines are ignored. The format is
diff-friendly on purpose; there is no nesting and no quoting.

`parse_config_text` and `load_config` return the entries: a dict of
key -> value text. Every key is declared once, in KEYS. `read_keys`
turns the entries into typed values through that table alone, and
`build_experiment(entries, command)` builds from them. Given the command
line's command, it also refuses what that command cannot run: a key it
needs is unset, or, for image and mc-rate, there is no receiver set, or
no search grid beyond it that holds the source. So a built config runs.
The one refusal left to run time is plain inversion of a singular
spectrum, which needs the spectrum (estimate raises SingularUnregularized
before any file is written).

A comma list (noise.sigmas, rank.ratios_<kind>) repeats no entry; its
values are compared parsed, so 1e-6 and 1e-06 are one value. rank-scan
scans each kind whose rank.ratios_<kind> is non-empty.
"""

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import _record
from .errors import ConfigError, TooFewReceivers
from .estimate import HardThreshold, RegPolicy, Tikhonov
from .image import SearchGrid, default_grid
from .modes import HomogeneousDD, HomogeneousDN, Parabolic, solve_modes
from .rank import DENSE_LINE_KINDS
from .synth import (
    Dense,
    Discrete,
    PointSource,
    array_x_max,
    dense_line,
    horizontal_line,
    lhs_design,
    vertical_line,
)


def parse_config_text(text):
    """The key -> value text entries of a config."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = val
    return entries


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# the key table

REQUIRED = object()


class Key(NamedTuple):
    """One declared key: default is REQUIRED, None (unset) or its value as
    text; `ok` checks the parsed value, `must` words that check for the
    error message; kinds are the array.kinds that read it (None: all)."""

    name: str
    default: object
    parse: Callable
    ok: Callable
    must: str
    kinds: tuple = None


def _real(text):
    """float(text), with -0 read as 0: a key's value then prints, writes and
    enters the config digest alike whichever zero the config spells."""
    return float(text) or 0.0


def _list(item):
    return lambda text: [item(tok.strip()) for tok in text.split(",") if tok.strip()]


def _pairs(sep):
    def parse(text):
        pairs = [tuple(map(_real, tok.split(sep))) for tok in text.split(";") if tok.strip()]
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ValueError(text)
        return pairs
    return parse


def _each(ok):
    return lambda values: all(map(ok, values))


def _distinct(ok):
    """The check of a comma list: each value passes ok, and none repeats."""
    return lambda values: len(set(values)) == len(values) and all(map(ok, values))


def _one_of(names):
    return str.lower, names.__contains__, "one of " + ", ".join(names)


_int = partial(int, base=0)
_FINITE = (_real, math.isfinite, "a finite number")
_POSITIVE = (_real, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (_real, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_COUNT = (_int, lambda n: n >= 1, "an integer >= 1")
_RATIOS = (_list(_real), _distinct(_POSITIVE[1]), "comma-separated distinct finite numbers > 0")

_MODELS = {"homogeneous_dd": HomogeneousDD, "homogeneous_dn": HomogeneousDN,
           "parabolic": Parabolic}
_REGULARIZERS = {"tikhonov": Tikhonov, "hard": HardThreshold, "none": None}
_LINES = ("vertical", "horizontal")
_LHS = ("planar_lhs",)
_DENSE_LINES = ("dense_vertical", "dense_horizontal")
_DENSE_PLANAR = ("dense_planar",)
_KINDS = _LINES + _LHS + ("points",) + _DENSE_LINES + _DENSE_PLANAR

KEYS = (
    Key("waveguide.model", "homogeneous_dd", *_one_of(_MODELS)),
    Key("waveguide.L", REQUIRED, *_POSITIVE),
    Key("waveguide.c_o", "1", *_POSITIVE),
    Key("omega", REQUIRED, *_POSITIVE),
    Key("source.x", None, *_FINITE),
    Key("source.z", None, *_FINITE),
    Key("array.kind", None, *_one_of(_KINDS)),
    Key("array.M", REQUIRED, *_COUNT, _LINES + _LHS),
    Key("array.z_a", "11", *_FINITE, _LINES),
    Key("array.z_a", None, *_FINITE, ("dense_vertical",)),
    Key("array.z_a", REQUIRED, *_FINITE, ("dense_horizontal",) + _DENSE_PLANAR),
    Key("array.extent", "0.25", *_POSITIVE, _LINES),
    Key("array.center_x", "0", *_FINITE, _LHS),
    Key("array.center_z", "11", *_FINITE, _LHS),
    Key("array.size", "0.125", *_POSITIVE, _LHS),
    Key("array.seed", "0", _int, lambda n: n >= 0, "an integer >= 0", _LHS),
    Key("array.points", REQUIRED, _pairs(","), _each(_each(math.isfinite)),
        "x1,z1; x2,z2; ... with finite coordinates", ("points",)),
    Key("array.a", None, *_POSITIVE, _DENSE_LINES),
    Key("array.a", REQUIRED, *_POSITIVE, _DENSE_PLANAR),
    Key("array.intervals", None, _pairs(":"),
        _each(lambda seg: math.isfinite(seg[0]) and _POSITIVE[1](seg[1])),
        "b1:h1; b2:h2; ... with b finite and h finite > 0", _DENSE_LINES),
    Key("noise.sigmas", "", _list(_real), _distinct(_NONNEGATIVE[1]),
        "comma-separated distinct finite numbers >= 0"),
    Key("noise.trials", "200", *_COUNT),
    # the 128-bit Philox key of every trial's draw; trial t sets the counter
    Key("noise.seed", "0", _int, lambda n: 0 <= n < 2**128, "an integer in [0, 2**128)"),
    Key("reg.kind", "tikhonov", *_one_of(_REGULARIZERS)),
    Key("reg.eps", None, *_NONNEGATIVE),
    Key("grid.x_min", "50", *_FINITE),
    Key("grid.x_max", "150", *_FINITE),
    Key("grid.z_min", None, *_FINITE),
    Key("grid.z_max", None, *_FINITE),
    Key("grid.step_fraction", "20", *_POSITIVE),
    Key("rank.eps", "1e-7", *_POSITIVE),
    Key("rank.ratios_vertical", "0.1, 0.2, 0.3, 0.4", *_RATIOS),
    Key("rank.ratios_horizontal", "0.05, 0.1", *_RATIOS),
    Key("rank.z_a", None, *_FINITE),
)


def _value(key, text):
    if text is REQUIRED:
        raise ConfigError(f"missing required key {key.name!r}")
    if text is None:
        return None
    try:
        val = key.parse(text)
        if key.ok(val):
            return val
    except ValueError:
        pass
    raise ConfigError(f"{key.name} must be {key.must}, got {text!r}")


def _unread(name, kind):
    if any(key.name == name for key in KEYS):
        where = f"array.kind = {kind}" if kind else "array.kind unset"
        return f"{name} is not read with {where}"
    section = name.partition(".")[0] + "."
    known = sorted({key.name for key in KEYS if key.name.startswith(section)})
    if known:
        return f"unknown key {name!r} ({section}* keys: {', '.join(known)})"
    known = sorted({key.name.split(".")[0] + ".*" * ("." in key.name) for key in KEYS})
    return f"unknown key {name!r} (keys: {', '.join(known)})"


def read_keys(entries):
    """Typed value (None: unset) of every key the entries' array.kind reads.
    Raises ConfigError, naming the key, on a missing, unknown or unread
    key, a value that fails its parser or check, and the cross-key rules."""
    v = {}
    for key in KEYS:  # array.kind comes before every row that depends on it
        if key.kinds is None or v["array.kind"] in key.kinds:
            v[key.name] = _value(key, entries.get(key.name, key.default))
    kind = v["array.kind"]
    for name in entries:
        if name not in v:
            raise ConfigError(_unread(name, kind))
    if kind in _DENSE_LINES and (v["array.a"] is None) == (v["array.intervals"] is None):
        raise ConfigError(f"array.kind = {kind} reads one of array.a and array.intervals")
    if kind == "dense_vertical" and (v["array.z_a"] is None) != (v["array.a"] is None):
        raise ConfigError("array.kind = dense_vertical reads array.z_a with array.a, never with "
                          "array.intervals (each interval b:h is centered at its own depth b)")
    if v["reg.kind"] == "none" and v["reg.eps"] is not None:
        raise ConfigError("reg.eps is not read with reg.kind = none (plain inversion)")
    if (v["source.x"] is None) != (v["source.z"] is None):
        raise ConfigError("source.x and source.z are set together or not at all")
    return v


def _geometry(kind, v):
    """(geometry, the keys that place it in depth): Discrete for receiver-set
    kinds, the product measure Dense(mu_x, mu_z) for dense_*: the
    synth.dense_line of one segment, vertical over depths [z_a - a, z_a + a]
    and horizontal over ranges [0, 2a] at depth z_a, or of the
    array.intervals segments b:h, each spanning [b - h, b + h]; planar
    [-a, a] x [z_a - a, z_a + a]."""
    if kind in _LINES:
        line, keys = ((vertical_line, "array.z_a/array.extent") if kind == "vertical"
                      else (horizontal_line, "array.z_a"))
        return Discrete(line(v["array.M"], v["array.z_a"], v["array.extent"])), keys
    if kind == "planar_lhs":
        points = lhs_design(v["array.M"], (v["array.center_x"], v["array.center_z"]),
                            v["array.size"], v["array.seed"])
        return Discrete(points), "array.center_z/array.size"
    if kind == "points":
        return Discrete(np.array(v["array.points"])), "array.points"
    z_a, a = v["array.z_a"], v["array.a"]
    if kind == "dense_planar":
        return Dense(((0.0, a),), ((z_a, a),)), "array.z_a/array.a"
    segs = v["array.intervals"]
    if kind == "dense_vertical":
        keys = "array.intervals" if segs else "array.z_a/array.a"
        return dense_line("vertical", segs or [(z_a, a)]), keys
    return dense_line("horizontal", segs or [(a, a)], z_a), "array.z_a"


def _spans(z):
    """Depth spans (b, h), each [b - h, b + h], of a set that a key places: a
    tuple of depth segments (b, h), or point depths (a number or an array),
    each a span with h = 0."""
    if isinstance(z, tuple):
        return np.array(z, dtype=float).T
    return np.atleast_1d(z), np.zeros(np.size(z))


class ExperimentConfig(NamedTuple):
    """Everything a runner needs, built and validated."""

    values: dict  # typed value of every key read (read_keys), for provenance
    ms: object
    source: PointSource
    geometry: object
    grid: SearchGrid
    reg: RegPolicy
    sigmas: list
    trials: int
    seed: int
    rank_eps: float
    # rank kind -> [(a/L, Dense)] of each kind with a non-empty
    # rank.ratios_<kind>, in DENSE_LINE_KINDS order; see experiments.rank_scan_rows
    rank_apertures: dict
    __eq__, __ne__ = _record.eq, _record.ne


#: the keys, unset by default, that each command cannot run without
_NEEDS = {"spectrum": ("array.kind",),
          "image": ("array.kind", "source.x", "source.z"),
          "mc-rate": ("array.kind", "source.x", "source.z", "noise.sigmas")}


def build_experiment(entries, command=None):
    """The validated ExperimentConfig of the entries. Given the command line's
    command, it also refuses what that command cannot run (see _NEEDS;
    image and mc-rate search a grid beyond a receiver set that holds the
    source), so the runner it is handed only computes."""
    v = read_keys(entries)
    kind, L = v["array.kind"], v["waveguide.L"]
    spec = _MODELS[v["waveguide.model"]](L=L, c_o=v["waveguide.c_o"])
    ms = solve_modes(spec, v["omega"])
    source = None if v["source.x"] is None else PointSource(v["source.x"], v["source.z"])
    geometry, depth_keys = (None, None) if kind is None else _geometry(kind, v)
    rank_z_a = 0.22 * L if v["rank.z_a"] is None else v["rank.z_a"]
    # rank-scan lines over [0, 2a], a = (a/L) L: the vertical one in depth,
    # the horizontal one in range at depth rank.z_a
    rank_apertures = {k: [(r, dense_line(k, ((r * L, r * L),), rank_z_a))
                          for r in v[f"rank.ratios_{k}"]]
                      for k in DENSE_LINE_KINDS if v[f"rank.ratios_{k}"]}
    # the data model is the field of a source beyond the array, at larger x
    reach = None if geometry is None else array_x_max(geometry)
    if source is not None and geometry is not None and not source.x_o > reach:
        raise ConfigError(f"source.x = {source.x_o:g} must lie beyond the array, "
                          f"which reaches x = {reach:g}")
    # a receiver set needs a row of the sensing matrix per mode
    if isinstance(geometry, Discrete) and geometry.points.shape[0] < ms.n_modes:
        key = "array.points" if kind == "points" else "array.M"
        raise TooFewReceivers(f"{key} gives {geometry.points.shape[0]} receivers for "
                              f"{ms.n_modes} guided modes")
    grid = default_grid(ms, v["grid.x_min"], v["grid.x_max"], v["grid.step_fraction"])._replace(
        **{k: v[f"grid.{k}"] for k in ("z_min", "z_max") if v[f"grid.{k}"] is not None})
    for lo, hi in (("x_min", "x_max"), ("z_min", "z_max")):
        if not getattr(grid, lo) < getattr(grid, hi):
            raise ConfigError(f"grid.{lo} must be < grid.{hi}, "
                              f"got {getattr(grid, lo)!r} >= {getattr(grid, hi)!r}")
    # (the keys that place it, its depth spans (b, h), what it is) for the
    # source, the array and each rank-scan aperture
    placed = [] if source is None else [("source.z", source.z_o, "the source")]
    placed += [] if geometry is None else [
        (depth_keys, geometry.points[:, 1], "every receiver") if isinstance(geometry, Discrete)
        else (depth_keys, geometry.mu_z, "the aperture")]
    placed += [("rank.z_a" if np.isscalar(ap.mu_z) else f"rank.ratios_{k}", ap.mu_z, "the aperture")
               for k, apertures in rank_apertures.items() for _, ap in apertures]
    placed = [(key, *_spans(z), what) for key, z, what in placed]
    if spec.walls:
        # a guide with walls spans [0, L]. Off its walls not every mode
        # vanishes, so a set of points may not lie all on them; a segment
        # may touch one. So may the search grid, which is checked on range
        # alone (what None): the mode sum is still the field on a wall
        grid_z = ("grid.z_min/grid.z_max", np.array([grid.z_min, grid.z_max]), np.zeros(2), None)
        for key, b, h, what in placed + [grid_z]:
            lo, hi = (b - h).min(), (b + h).max()
            if lo < 0 or hi > L:
                raise ConfigError(f"{key} puts depths {lo:g}..{hi:g} outside the guide [0, {L:g}]")
            if what and not h.any() and set(b.tolist()) <= set(spec.walls):
                at = " or ".join(f"{w:g}" for w in spec.walls)
                raise ConfigError(f"{key} puts {what} on a Dirichlet wall (z = {at}), "
                                  "where every mode vanishes")
    elif placed:
        # the graded guide is unbounded. Beyond their turning points its modes
        # decay away from the axis z = 0, so the depth of a set nearest the
        # axis decides whether the profiles on it have norm 0 (every mode is
        # 0 there, or its square underflows)
        near = [np.maximum(np.abs(b) - h, 0.0).min() for _, b, h, _ in placed]
        for (key, *_, what), norm in zip(placed, np.linalg.norm(ms.profile_matrix(near), axis=1)):
            if not norm > 0:
                raise ConfigError(f"{key} puts {what} where every guided mode vanishes")
    missing = [k for k in _NEEDS.get(command, ()) if v[k] in (None, [])]
    if missing:
        head = ", ".join(missing[:-1])
        raise ConfigError(f"{command} needs {head + ' and ' if head else ''}{missing[-1]}")
    if command == "rank-scan" and not rank_apertures:
        raise ConfigError("rank-scan needs a non-empty rank.ratios_vertical or "
                          "rank.ratios_horizontal")
    if command in ("image", "mc-rate"):
        if not isinstance(geometry, Discrete):
            raise ConfigError(f"{command} runs on a receiver set, not array.kind = {kind}")
        if not grid.x_min > reach:
            raise ConfigError(f"grid.x_min = {grid.x_min:g} must lie beyond the array, "
                              f"which reaches x = {reach:g}")
        for axis, at in (("x", source.x_o), ("z", source.z_o)):
            lo, hi = getattr(grid, f"{axis}_min"), getattr(grid, f"{axis}_max")
            if not lo <= at <= hi:
                raise ConfigError(f"source.{axis} = {at:g} lies outside the search grid, "
                                  f"{axis} in [{lo:g}, {hi:g}] (grid.{axis}_min, grid.{axis}_max)")
    return ExperimentConfig(
        values=v, ms=ms, source=source, geometry=geometry, grid=grid,
        reg=RegPolicy(_REGULARIZERS[v["reg.kind"]], v["reg.eps"]),
        sigmas=v["noise.sigmas"], trials=v["noise.trials"], seed=v["noise.seed"],
        rank_eps=v["rank.eps"], rank_apertures=rank_apertures)
