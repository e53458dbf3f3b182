"""Deterministic CSV export of experiment results.

Every file starts with `#`-prefixed comment lines carrying the tool
version, a hash of the effective configuration, and the seed, so any
output can be traced back to its inputs. Then come the column names and
one line per row. Each column of a table of tuple rows keeps one
format, fixed by its value in the first row: integers are written
exactly, floats with %.12g (enough digits to round-trip the physics,
short enough to diff). `format_rows` turns tuple rows into text in
blocks of BLOCK_ROWS, one `%` per block. The image writer, whose grids
reach 10^5 pixels, formats one x row per `%` instead: the z part of each
line is built once per grid, so only the value column is substituted.
`write_csv` writes every file from such text chunks and holds one chunk
at a time, never all rows. Image rows are x-major: z varies fastest.
"""

from itertools import chain, islice

import numpy as np

#: tuple rows formatted by one `%` in `format_rows`
BLOCK_ROWS = 4096


def config_digest(text):
    """12-hex-character digest identifying a configuration text."""
    # imported here, not at module level: hashlib loads OpenSSL, a few ms
    # that only a CSV header needs, so `modes` and a bare `import
    # wgimage.cli` skip it. mc-rate loads it anyway, through the hmac
    # module that numpy.random imports.
    import hashlib

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


def format_rows(rows):
    """Text of tuple rows, one chunk per BLOCK_ROWS rows.

    `rows` is any iterable of tuples; it is consumed once. The first row
    fixes each column's format: a str is written as is, an int or numpy
    integer exactly, anything else with %.12g. A row of another length
    raises TypeError."""
    rows = iter(rows)
    first = next(rows, None)
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
        yield (fmt * len(block)) % tuple(chain.from_iterable(block))


def write_csv(path, columns, body, meta=None):
    """Write the comment header, the column-name line and then each text
    chunk of `body` (an iterable of str, consumed once). Deterministic
    bytes for identical inputs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header_lines(meta) + [",".join(columns)]) + "\n")
        fh.writelines(body)


def write_spectrum_csv(path, spectrum, meta=None):
    rows = [(i + 1, v) for i, v in enumerate(np.asarray(spectrum))]
    write_csv(path, ("index", "value"), format_rows(rows), meta)


def write_image_csv(path, im, meta=None):
    """Normalized image modulus on the grid, x-major, one text chunk per
    x row. Each line's z part is formatted once for the grid, so an x row
    is one `%` that substitutes only its values."""
    norm = im.normalize()
    xs = ["%.12g" % x for x in norm.grid.x.tolist()]
    # a %.12g number never contains "%", so x and z are safe in the template
    suffix = [",%.12g,%%.12g\n" % z for z in norm.grid.z.tolist()]
    body = ((x + x.join(suffix)) % tuple(vals.tolist())
            for x, vals in zip(xs, norm.values))
    write_csv(path, ("x", "z", "I_normalized"), body, meta)


def write_rates_csv(path, sigmas, rates, trials, seed, meta=None):
    rows = [(s, r, trials, seed) for s, r in zip(sigmas, rates)]
    write_csv(path, ("sigma", "error_rate", "trials", "seed"), format_rows(rows), meta)


def write_rank_scan_csv(path, rows, meta=None):
    write_csv(path, ("a_over_L", "predicted", "measured"), format_rows(rows), meta)

