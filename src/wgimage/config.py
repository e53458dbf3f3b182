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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .image import SearchGrid, default_grid
from .modes import HomogeneousDD, HomogeneousDN, Parabolic, solve_modes
from .synth import (
    DenseHorizontal,
    DensePlanar,
    DenseVertical,
    Discrete,
    PointSource,
    horizontal_line,
    lhs_design,
    vertical_line,
)

_REQUIRED = object()


class Config:
    """Parsed key=value entries with typed access. Keeps the source text
    so outputs can embed its digest."""

    def __init__(self, entries, text=""):
        self.entries = dict(entries)
        self.text = text

    def get(self, key, default=_REQUIRED):
        if key in self.entries:
            return self.entries[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def get_str(self, key, default=_REQUIRED):
        return str(self.get(key, default))

    def get_float(self, key, default=_REQUIRED):
        val = self.get(key, default)
        try:
            return float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"key {key!r}: expected a number, got {val!r}") from None

    def get_int(self, key, default=_REQUIRED):
        val = self.get(key, default)
        try:
            return int(str(val), 0)
        except (TypeError, ValueError):
            raise ConfigError(f"key {key!r}: expected an integer, got {val!r}") from None

    def get_floats(self, key, default=_REQUIRED):
        val = self.get(key, default)
        if isinstance(val, (list, tuple, np.ndarray)):
            return [float(v) for v in val]
        try:
            return [float(tok) for tok in str(val).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {val!r}") from None

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
    return Config(entries, text)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# builders

_MODELS = {
    "homogeneous_dd": HomogeneousDD,
    "homogeneous_dn": HomogeneousDN,
    "parabolic": Parabolic,
}


def build_spec(cfg):
    name = cfg.get_str("waveguide.model", "homogeneous_dd").lower()
    if name not in _MODELS:
        raise ConfigError(
            f"waveguide.model must be one of {sorted(_MODELS)}, got {name!r}")
    L = cfg.get_float("waveguide.L")
    if L <= 0:
        raise ConfigError("waveguide.L must be positive")
    return _MODELS[name](L=L, c_o=cfg.get_float("waveguide.c_o", 1.0))


def build_modeset(cfg):
    return solve_modes(build_spec(cfg), cfg.get_float("omega"))


def build_source(cfg):
    return PointSource(cfg.get_float("source.x"), cfg.get_float("source.z"))


def _parse_segments(text):
    try:
        return tuple(
            (float(b), float(h))
            for b, _, h in (tok.strip().partition(":")
                            for tok in text.split(";") if tok.strip()))
    except ValueError:
        raise ConfigError(f"bad segment list {text!r}; expected b1:h1;b2:h2") from None


def build_geometry(cfg):
    """Array geometry from array.* keys. Receiver-set kinds (vertical,
    horizontal, planar_lhs, points) give Discrete geometries; dense_*
    kinds give continuous-aperture ones."""
    kind = cfg.get_str("array.kind").lower()
    if kind == "vertical":
        pts = vertical_line(cfg.get_int("array.M"),
                            cfg.get_float("array.z_a", 11.0),
                            cfg.get_float("array.extent", 0.25))
        return Discrete(pts)
    if kind == "horizontal":
        pts = horizontal_line(cfg.get_int("array.M"),
                              cfg.get_float("array.z_a", 11.0),
                              cfg.get_float("array.extent", 0.25))
        return Discrete(pts)
    if kind == "planar_lhs":
        pts = lhs_design(cfg.get_int("array.M"),
                         (cfg.get_float("array.center_x", 0.0),
                          cfg.get_float("array.center_z", 11.0)),
                         cfg.get_float("array.size", 0.125),
                         cfg.get_int("array.seed", 0))
        return Discrete(pts)
    if kind == "points":
        try:
            pts = np.array([[float(c) for c in tok.split(",")]
                            for tok in cfg.get_str("array.points").split(";")
                            if tok.strip()])
        except ValueError:
            raise ConfigError("array.points must be x1,z1;x2,z2;...") from None
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigError("array.points must be x1,z1;x2,z2;...")
        return Discrete(pts)
    if kind in ("dense_vertical", "dense_horizontal"):
        cls = DenseVertical if kind == "dense_vertical" else DenseHorizontal
        segs = cfg.get("array.intervals", None)
        return cls(z_a=cfg.get_float("array.z_a", 0.0),
                   a=cfg.get_float("array.a", 0.0),
                   intervals=_parse_segments(segs) if segs else None)
    if kind == "dense_planar":
        return DensePlanar(z_a=cfg.get_float("array.z_a"),
                           a=cfg.get_float("array.a"))
    raise ConfigError(f"unknown array.kind {kind!r}")


def build_grid(cfg, ms):
    base = default_grid(ms,
                        x_min=cfg.get_float("grid.x_min", 50.0),
                        x_max=cfg.get_float("grid.x_max", 150.0),
                        step_fraction=cfg.get_float("grid.step_fraction", 20.0))
    z_min = cfg.get_float("grid.z_min", base.z_min)
    z_max = cfg.get_float("grid.z_max", base.z_max)
    return SearchGrid(base.x_min, base.x_max, z_min, z_max, base.dx, base.dz)


@dataclass
class RegPolicy:
    """Regularizer choice: kind in {tikhonov, hard, none}; eps either the
    noise-driven heuristic ('heuristic') or an explicit value."""

    kind: str = "tikhonov"
    policy: str = "heuristic"
    eps: float = None


def build_reg_policy(cfg):
    kind = cfg.get_str("reg.kind", "tikhonov").lower()
    policy = cfg.get_str("reg.policy", "heuristic").lower()
    if kind not in ("tikhonov", "hard", "none"):
        raise ConfigError(f"reg.kind must be tikhonov, hard or none, got {kind!r}")
    if policy not in ("heuristic", "explicit"):
        raise ConfigError(f"reg.policy must be heuristic or explicit, got {policy!r}")
    eps = None
    if policy == "explicit":
        eps = cfg.get_float("reg.eps")
        if eps < 0:
            raise ConfigError("reg.eps must be nonnegative")
    return RegPolicy(kind=kind, policy=policy, eps=eps)


@dataclass
class ExperimentConfig:
    """Everything a runner needs, built and validated."""

    cfg: Config
    ms: object
    source: PointSource
    geometry: object
    grid: SearchGrid
    reg: RegPolicy
    sigmas: list = field(default_factory=list)
    trials: int = 200
    seed: int = 0


def build_experiment(cfg):
    ms = build_modeset(cfg)
    source = None
    if "source.x" in cfg.entries or "source.z" in cfg.entries:
        source = build_source(cfg)
    geometry = build_geometry(cfg) if "array.kind" in cfg.entries else None
    trials = cfg.get_int("noise.trials", 200)
    if trials < 1:
        raise ConfigError("noise.trials must be >= 1")
    sigmas = cfg.get_floats("noise.sigmas", [])
    for sig in sigmas:
        if not (np.isfinite(sig) and sig >= 0):
            raise ConfigError(f"noise.sigmas entries must be finite and >= 0, got {sig!r}")
    seed = cfg.get_int("noise.seed", 0)
    if not 0 <= seed < 2**128:
        # trial t draws from Philox(key=seed ^ t), whose key is a 128-bit word
        raise ConfigError(f"noise.seed must be in [0, 2**128), got {seed}")
    return ExperimentConfig(
        cfg=cfg,
        ms=ms,
        source=source,
        geometry=geometry,
        grid=build_grid(cfg, ms),
        reg=build_reg_policy(cfg),
        sigmas=sigmas,
        trials=trials,
        seed=seed,
    )
