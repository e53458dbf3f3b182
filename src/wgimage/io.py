"""Deterministic CSV export of experiment results.

Every file starts with `#`-prefixed comment lines carrying the tool
version, a hash of the effective configuration, and the seed, so any
output can be traced back to its inputs. Then come the column names and
one line per row. Each column keeps one format, fixed by its value in
the first row: integers are written exactly, floats with %.12g (enough
digits to round-trip the physics, short enough to diff). Rows are
formatted in blocks of BLOCK_ROWS, one `%` per block, and the writer
holds one block at a time; the image writer, whose grids reach 10^5
pixels, hands it a generator and never builds all its rows in memory.
Image rows are x-major: z varies fastest.
"""

import hashlib
from itertools import chain, islice, repeat

import numpy as np

#: rows formatted by one `%`; an image block is about 140 kB of text
BLOCK_ROWS = 4096


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

    `rows` is any iterable of tuples; it is consumed once, BLOCK_ROWS
    rows at a time. The first row fixes each column's format: a str is
    written as is, an int or numpy integer exactly, anything else with
    %.12g. A row of another length raises TypeError. Deterministic bytes
    for identical inputs."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header_lines(meta) + [",".join(columns)]) + "\n")
        if first is None:
            return
        fmt = ",".join(map(_conversion, first)) + "\n"
        width = len(first)
        rows = chain((first,), rows)
        while block := list(islice(rows, BLOCK_ROWS)):
            # in one flat tuple a short row and a long row would balance out
            lengths = set(map(len, block))
            if lengths != {width}:
                raise TypeError(f"CSV rows of {sorted(lengths)} values for {width} columns")
            fh.write((fmt * len(block)) % tuple(chain.from_iterable(block)))


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

