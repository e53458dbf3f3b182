"""Deterministic CSV export of experiment results.

Every file starts with `#`-prefixed comment lines carrying the tool
version, a hash of the effective configuration, and the seed, so any
output can be traced back to its inputs. Then come the column names and
one line per row. Each table writer states its row format next to its
column names: integer columns (index, trials, seed, measured rank) with
%d, every other column with %.12g (enough digits to round-trip the
physics, short enough to diff). The image writer, whose grids reach
10^5 pixels, formats one x row per `%`: the z part of each line is built
once per grid, so only the value column is substituted. Image rows are
x-major: z varies fastest. `write_csv` creates the file's directory.
"""

import os

import numpy as np


def config_digest(text):
    """12-hex-character digest identifying a configuration text."""
    # imported here, not at module level: hashlib loads OpenSSL, a few ms
    # that only a CSV header needs, so `modes` and a bare `import
    # wgimage.cli` skip it. mc-rate loads it anyway, through the hmac
    # module that numpy.random imports.
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _header_lines(meta):
    """The comment lines: version, then `config` and `seed`, which every
    meta holds, then any other keys sorted."""
    from . import __version__
    keys = ["config", "seed"] + sorted(k for k in meta if k not in ("config", "seed"))
    return [f"# wgimage {__version__}"] + [f"# {key} {meta[key]}" for key in keys]


def write_csv(path, columns, body, meta):
    """Write the comment header, the column-name line and then each text
    chunk of `body` (an iterable of str, consumed once), creating the
    file's directory first. Deterministic bytes for identical inputs."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(_header_lines(meta) + [",".join(columns)]) + "\n")
        fh.writelines(body)


def write_spectrum_csv(path, spectrum, meta):
    body = ["%d,%.12g\n" % row for row in enumerate(np.asarray(spectrum).tolist(), 1)]
    write_csv(path, ("index", "value"), body, meta)


def write_image_csv(path, im, meta):
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


def write_rates_csv(path, sigmas, rates, trials, seed, meta):
    body = ["%.12g,%.12g,%d,%d\n" % (s, r, trials, seed) for s, r in zip(sigmas, rates)]
    write_csv(path, ("sigma", "error_rate", "trials", "seed"), body, meta)


def write_rank_scan_csv(path, rows, meta):
    """Rows are (a/L, predicted, measured) tuples; a row of another length
    raises TypeError."""
    body = ["%.12g,%.12g,%d\n" % row for row in rows]
    write_csv(path, ("a_over_L", "predicted", "measured"), body, meta)
