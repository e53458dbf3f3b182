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

Every key is declared once, in KEYS. `read_keys` turns a Config into
typed values through that table alone; `build_experiment` builds from them.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .estimate import HardThreshold, RegPolicy, Tikhonov
from .image import SearchGrid, default_grid
from .modes import HomogeneousDD, HomogeneousDN, Parabolic, solve_modes
from .synth import (
    Dense,
    Discrete,
    PointSource,
    horizontal_line,
    lhs_design,
    vertical_line,
)


class Config:
    """Parsed key=value entries, as text."""

    def __init__(self, entries):
        self.entries = dict(entries)

    def override(self, key, value):
        if value is not None:
            self.entries[key] = value


def parse_config_text(text):
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
    return Config(entries)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def _list(item):
    return lambda text: [item(tok.strip()) for tok in text.split(",") if tok.strip()]


def _pairs(sep):
    def parse(text):
        pairs = [tuple(map(float, tok.split(sep))) for tok in text.split(";") if tok.strip()]
        if not pairs or any(len(p) != 2 for p in pairs):
            raise ValueError(text)
        return pairs
    return parse


def _each(ok):
    return lambda values: all(map(ok, values))


def _one_of(names):
    return str.lower, names.__contains__, "one of " + ", ".join(names)


_int = partial(int, base=0)
_FINITE = (float, math.isfinite, "a finite number")
_POSITIVE = (float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = (float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_COUNT = (_int, lambda n: n >= 1, "an integer >= 1")
_RATIOS = (_list(float), _each(_POSITIVE[1]), "comma-separated finite numbers > 0")

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
    Key("array.z_a", REQUIRED, *_FINITE, _DENSE_LINES + _DENSE_PLANAR),
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
    Key("noise.sigmas", "", _list(float), _each(_NONNEGATIVE[1]),
        "comma-separated finite numbers >= 0"),
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
    Key("rank.kinds", "vertical, horizontal", _list(str), _each(_LINES.__contains__),
        "a comma list of vertical, horizontal"),
    Key("rank.ratios", None, *_RATIOS),
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


def read_keys(cfg):
    """Typed value (None: unset) of every key the config's array.kind reads.
    Raises ConfigError, naming the key, on a missing, unknown or unread
    key, a value that fails its parser or check, and the cross-key rules."""
    entries, v = cfg.entries, {}
    for key in KEYS:  # array.kind comes before every row that depends on it
        if key.kinds is None or v["array.kind"] in key.kinds:
            default = key.default
            if (key.name == "array.z_a" and v["array.kind"] == "dense_vertical"
                    and "array.intervals" in entries):
                default = None  # each interval b:h is centered at its own depth b
            v[key.name] = _value(key, entries.get(key.name, default))
    kind = v["array.kind"]
    for name in entries:
        if name not in v:
            raise ConfigError(_unread(name, kind))
    if kind in _DENSE_LINES and (v["array.a"] is None) == (v["array.intervals"] is None):
        raise ConfigError(f"array.kind = {kind} reads one of array.a and array.intervals")
    if kind == "dense_vertical" and v["array.intervals"] is not None and "array.z_a" in entries:
        raise ConfigError("array.z_a is not read with array.kind = dense_vertical and "
                          "array.intervals (each interval b:h is centered at depth b)")
    if v["reg.kind"] == "none" and v["reg.eps"] is not None:
        raise ConfigError("reg.eps is not read with reg.kind = none (plain inversion)")
    if (v["source.x"] is None) != (v["source.z"] is None):
        raise ConfigError("source.x and source.z are set together or not at all")
    return v


#: the keys that place each array kind in depth
_DEPTH_KEYS = {"vertical": "array.z_a/array.extent", "horizontal": "array.z_a",
               "planar_lhs": "array.center_z/array.size", "points": "array.points",
               "dense_vertical": "array.z_a/array.a", "dense_horizontal": "array.z_a",
               "dense_planar": "array.z_a/array.a"}


def _geometry(kind, v):
    """Discrete for receiver-set kinds, the product measure Dense(mu_x, mu_z)
    for dense_*: vertical x = 0 over [z_a - a, z_a + a], horizontal [0, 2a]
    at depth z_a, planar [-a, a] x [z_a - a, z_a + a]; each array.intervals
    segment b:h spans [b - h, b + h] in place of the one of half-length a."""
    if kind in _LINES:
        line = vertical_line if kind == "vertical" else horizontal_line
        return Discrete(line(v["array.M"], v["array.z_a"], v["array.extent"]))
    if kind == "planar_lhs":
        return Discrete(lhs_design(v["array.M"], (v["array.center_x"], v["array.center_z"]),
                                   v["array.size"], v["array.seed"]))
    if kind == "points":
        return Discrete(np.array(v["array.points"]))
    z_a, a = v["array.z_a"], v["array.a"]
    if kind == "dense_planar":
        return Dense(((0.0, a),), ((z_a, a),))
    segs = v["array.intervals"]
    if kind == "dense_vertical":
        return Dense(0.0, tuple(segs) if segs else ((z_a, a),))
    return Dense(tuple(segs) if segs else ((a, a),), z_a)


def _in_guide(name, z, L, walls, what):
    """Depths z must lie in [0, L], and not all on a Dirichlet wall, where
    every mode vanishes and the field is zero."""
    lo, hi = z.min(), z.max()
    if lo < 0 or hi > L:
        raise ConfigError(f"{name} puts depths {lo:g}..{hi:g} outside the guide [0, {L:g}]")
    if set(z.tolist()) <= set(walls):
        at = " or ".join(f"{w:g}" for w in walls)
        raise ConfigError(f"{name} puts {what} on a Dirichlet wall (z = {at}), "
                          "where every mode vanishes")


def _depth_in_guide(name, mu_z, L, walls):
    """_in_guide on the endpoints of a dense aperture's depth factor: a
    segment may touch a Dirichlet wall, a point mass may not lie on one."""
    if np.isscalar(mu_z):
        _in_guide(name, np.array([mu_z]), L, walls, "the aperture")
    else:
        _in_guide(name, np.ravel([(b - h, b + h) for b, h in mu_z]), L, (), "the aperture")


@dataclass
class ExperimentConfig:
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
    rank_kinds: list
    rank_apertures: dict  # rank kind -> [(a/L, Dense)], see experiments.rank_scan_rows


def build_experiment(cfg):
    v = read_keys(cfg)
    kind, L = v["array.kind"], v["waveguide.L"]
    spec = _MODELS[v["waveguide.model"]](L=L, c_o=v["waveguide.c_o"])
    ms = solve_modes(spec, v["omega"])
    source = None if v["source.x"] is None else PointSource(v["source.x"], v["source.z"])
    geometry = None if kind is None else _geometry(kind, v)
    # rank.ratios_<kind>, else rank.ratios, else the rank.ratios_<kind> default
    ratio_keys = {k: f"rank.ratios_{k}" if v["rank.ratios"] is None
                  or f"rank.ratios_{k}" in cfg.entries else "rank.ratios" for k in _LINES}
    rank_z_a = 0.22 * L if v["rank.z_a"] is None else v["rank.z_a"]
    # rank-scan apertures of total length 2a = 2 (a/L) L: the vertical one
    # x = 0 over depths [0, 2a], the horizontal one [0, 2a] at depth rank.z_a
    shapes = {"vertical": lambda a: Dense(0.0, ((a, a),)),
              "horizontal": lambda a: Dense(((a, a),), rank_z_a)}
    rank_apertures = {k: [(r, shapes[k](r * L)) for r in v[ratio_keys[k]]]
                      for k in v["rank.kinds"]}
    if not isinstance(spec, Parabolic):  # the graded guide is unbounded in depth
        walls = (L,) if isinstance(spec, HomogeneousDN) else (0.0, L)
        if source is not None:
            _in_guide("source.z", np.array([source.z_o]), L, walls, "the source")
        if isinstance(geometry, Discrete):
            _in_guide(_DEPTH_KEYS[kind], geometry.points[:, 1], L, walls, "every receiver")
        elif geometry is not None:
            intervals = kind == "dense_vertical" and v["array.intervals"]
            _depth_in_guide("array.intervals" if intervals else _DEPTH_KEYS[kind],
                            geometry.mu_z, L, walls)
        depth_keys = {"vertical": ratio_keys["vertical"], "horizontal": "rank.z_a"}
        for k, apertures in rank_apertures.items():
            for _, aperture in apertures:
                _depth_in_guide(depth_keys[k], aperture.mu_z, L, walls)
    grid = replace(default_grid(ms, v["grid.x_min"], v["grid.x_max"], v["grid.step_fraction"]),
                   **{k: v[f"grid.{k}"] for k in ("z_min", "z_max") if v[f"grid.{k}"] is not None})
    for lo, hi in (("x_min", "x_max"), ("z_min", "z_max")):
        if not getattr(grid, lo) < getattr(grid, hi):
            raise ConfigError(f"grid.{lo} must be < grid.{hi}, "
                              f"got {getattr(grid, lo)!r} >= {getattr(grid, hi)!r}")
    return ExperimentConfig(
        values=v, ms=ms, source=source, geometry=geometry, grid=grid,
        reg=RegPolicy(_REGULARIZERS[v["reg.kind"]], v["reg.eps"]),
        sigmas=v["noise.sigmas"], trials=v["noise.trials"], seed=v["noise.seed"],
        rank_eps=v["rank.eps"], rank_kinds=v["rank.kinds"], rank_apertures=rank_apertures)
