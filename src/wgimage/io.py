"""Deterministic CSV export of experiment results.

Every file starts with `#`-prefixed comment lines carrying the tool
version, a hash of the effective configuration, and the seed, so any
output can be traced back to its inputs. Then come the column names and
one line per row. Each column keeps one format, fixed by its value in
the first row: integers are written exactly, floats with %.12g (enough
digits to round-trip the physics, short enough to diff). Rows stream to
the file one at a time; the image writer, whose grids reach 10^5 pixels,
never builds its rows in memory. Image rows are x-major: z varies
fastest.
"""

import hashlib
from itertools import chain, repeat

import numpy as np


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


def _conversion(v):
    if isinstance(v, str):
        return "%s"
    if isinstance(v, (int, np.integer)):
        return "%d"
    return "%.12g"


def write_csv(path, columns, rows, meta=None):
    """Write rows under a column-name line, after the comment header.

    `rows` is any iterable of tuples; it is consumed once. The first row
    fixes each column's format: a str is written as is, an int or numpy
    integer exactly, anything else with %.12g. Deterministic bytes for
    identical inputs."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header_lines(meta) + [",".join(columns)]) + "\n")
        if first is not None:
            fmt = ",".join(map(_conversion, first)) + "\n"
            fh.write(fmt % first)
            fh.writelines(map(fmt.__mod__, rows))


def write_spectrum_csv(path, spectrum, meta=None):
    rows = [(i + 1, v) for i, v in enumerate(np.asarray(spectrum))]
    write_csv(path, ("index", "value"), rows, meta)


def write_image_csv(path, im, meta=None):
    """Normalized image modulus on the grid, x-major. Each axis value is
    formatted once; the pixel rows stream from a generator."""
    norm = im.normalize()
    xs = ["%.12g" % x for x in norm.grid.x.tolist()]
    zs = ["%.12g" % z for z in norm.grid.z.tolist()]
    rows = chain.from_iterable(zip(repeat(x), zs, vals.tolist())
                               for x, vals in zip(xs, norm.values))
    write_csv(path, ("x", "z", "I_normalized"), rows, meta)


def write_rates_csv(path, sigmas, rates, trials, seed, meta=None):
    rows = [(s, r, trials, seed) for s, r in zip(sigmas, rates)]
    write_csv(path, ("sigma", "error_rate", "trials", "seed"), rows, meta)


def write_rank_scan_csv(path, rows, meta=None):
    write_csv(path, ("a_over_L", "predicted", "measured"), rows, meta)

