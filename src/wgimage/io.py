"""Deterministic CSV export of experiment results.

Every file starts with `#`-prefixed comment lines carrying the tool
version, a hash of the generating configuration, and the seed, so any
output can be traced back to its inputs. Numbers are formatted with
{:.12g}: enough digits to round-trip the physics, short enough to diff.
"""

import hashlib

import numpy as np


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def config_digest(text):
    """12-hex-character digest identifying a configuration text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _header_lines(meta):
    from . import __version__
    lines = [f"# wgimage {__version__}"]
    if meta:
        for key in ("config", "seed"):
            if key in meta:
                lines.append(f"# {key} {meta[key]}")
        for key in sorted(k for k in meta if k not in ("config", "seed")):
            lines.append(f"# {key} {meta[key]}")
    return lines


def write_csv(path, columns, rows, meta=None):
    """Write rows of numbers under a column-name line, after the comment
    header. Deterministic bytes for identical inputs."""
    out = _header_lines(meta)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def write_spectrum_csv(path, spectrum, meta=None):
    rows = [(i + 1, v) for i, v in enumerate(np.asarray(spectrum))]
    write_csv(path, ("index", "value"), rows, meta)


def write_image_csv(path, im, meta=None):
    """Normalized image modulus on the grid, x-major."""
    norm = im if im.normalized else im.normalize()
    xs, zs = norm.grid.x, norm.grid.z
    rows = [(xs[i], zs[k], norm.values[i, k])
            for i in range(xs.size) for k in range(zs.size)]
    write_csv(path, ("x", "z", "I_normalized"), rows, meta)


def write_rates_csv(path, sigmas, rates, trials, seed, meta=None):
    rows = [(s, r, trials, seed) for s, r in zip(sigmas, rates)]
    write_csv(path, ("sigma", "error_rate", "trials", "seed"), rows, meta)


def write_rank_scan_csv(path, rows, meta=None):
    write_csv(path, ("a_over_L", "predicted", "measured"), rows, meta)


def save_heatmap_png(path, im, dpi=150):
    """Raster of the normalized image modulus, viridis colormap, x along
    the horizontal axis. Requires matplotlib (optional dependency)."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise RuntimeError(
            "PNG export needs matplotlib; install the [png] extra") from exc
    norm = im if im.normalized else im.normalize()
    xs, zs = norm.grid.x, norm.grid.z
    fig, ax = plt.subplots(figsize=(8, 3))
    mesh = ax.pcolormesh(xs, zs, np.abs(norm.values).T,
                         cmap="viridis", shading="nearest")
    fig.colorbar(mesh, ax=ax, label="|I| / max")
    ax.set_xlabel("x")
    ax.set_ylabel("z")
    fig.tight_layout()
    fig.savefig(path, dpi=dpi)
    plt.close(fig)
