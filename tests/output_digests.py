"""SHA-256 digests of every output of the shipped configs and of the
generated dense apertures.

Runs the five subcommands on each configs/*.cfg at seeds 1 and 7, with
the shipped trial counts, then `spectrum` on each generated config of
GENERATED at seed 1 (and `rank-scan` on the first one of each guide),
and prints one line per output: the exit code, the digests of stdout and
stderr, and two digests of every CSV the run writes, one of its leading
`#` lines (the header: config digest, seed, ...) and one of the rest
(the body). So every byte stays pinned, and a change that only moves the
`# config` digest, such as a key added to or dropped from the key
table, shows up in header lines alone. The first lines name the numpy
and BLAS the outputs come from.

The generated configs take every path of the dense Gram that the
shipped ones miss: dense_vertical and dense_horizontal with array.a and
with two array.intervals, and dense_planar, in the L = 20
Dirichlet-Dirichlet and Neumann-Dirichlet guides (two horizontal
intervals off x = 0 give a complex Gram), and parabolic dense_vertical
segments both longer and shorter than k_o h = 1/2, the two branches of
the parabolic segment Gram.

    python tests/output_digests.py           # print the digests
    python tests/output_digests.py --write   # rewrite tests/output_digests.txt

All runs share this one interpreter, which sets the BLAS thread
variables to 1 and imports wgimage.cli before numpy, so BLAS runs on one
thread whatever the environment exports. They run in a temporary directory,
on copies of the configs (the generated ones written there too), with
the fixed relative --out `out`, so no printed path depends on where the
checkout lives.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "output_digests.txt"
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from wgimage.cli import COMMANDS, main  # noqa: E402  (before numpy: one BLAS thread)

SEEDS = (1, 7)

_GUIDE = {"omega": "1", "waveguide.L": "20"}
_SLAB = {
    "dense_vertical_a": {"array.kind": "dense_vertical", "array.z_a": "11", "array.a": "3"},
    "dense_vertical_intervals": {"array.kind": "dense_vertical",
                                 "array.intervals": "5:1; 12:2.5"},
    "dense_horizontal_a": {"array.kind": "dense_horizontal", "array.z_a": "7.7",
                           "array.a": "4"},
    "dense_horizontal_intervals": {"array.kind": "dense_horizontal", "array.z_a": "7.7",
                                   "array.intervals": "3:2; 9:1.5"},
    "dense_planar": {"array.kind": "dense_planar", "array.z_a": "11", "array.a": "3"},
}
_PARABOLIC = {
    "dense_vertical_long": {"array.kind": "dense_vertical", "array.z_a": "-2", "array.a": "3"},
    "dense_vertical_short": {"array.kind": "dense_vertical", "array.z_a": "1.5",
                             "array.a": "0.4"},
    "dense_vertical_intervals": {"array.kind": "dense_vertical",
                                 "array.intervals": "-3:0.3; 4:2"},
}
#: name -> entries of the generated dense-aperture configs
GENERATED = {f"{guide}_{name}": {"waveguide.model": model, **_GUIDE, **entries}
             for guide, model, apertures in (("dd", "homogeneous_dd", _SLAB),
                                             ("dn", "homogeneous_dn", _SLAB),
                                             ("parabolic", "parabolic", _PARABOLIC))
             for name, entries in apertures.items()}


def environment():
    """The header lines: the numpy and BLAS versions."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"numpy {np.__version__}", f"blas {blas['name']} {blas['version']}"]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _split_header(data):
    """(the leading `#` lines, the rest) of a CSV's bytes."""
    body = data
    while body.startswith(b"#"):
        body = body.partition(b"\n")[2]
    return data[:len(data) - len(body)], body


def digests():
    """The header lines, then `<config> <command> <seed> <output> <value>`
    for every run: its exit code, then the digests of its stdout, its
    stderr and each CSV it wrote, by name, as `<file> header <sha>` and
    `<file> body <sha>`."""
    lines = environment()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "configs", Path(tmp) / "configs")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            runs = [(cfg, command, seed) for cfg in sorted(Path("configs").glob("*.cfg"))
                    for command in COMMANDS for seed in SEEDS]
            Path("generated").mkdir()
            guides = set()
            for name, entries in GENERATED.items():
                cfg = Path("generated", f"{name}.cfg")
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
                runs.append((cfg, "spectrum", 1))
                if entries["waveguide.model"] not in guides:
                    guides.add(entries["waveguide.model"])
                    runs.append((cfg, "rank-scan", 1))
            for cfg, command, seed in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(cfg), "--out", "out",
                                 "--seed", str(seed)])
                run = f"{cfg.stem} {command} {seed}"
                lines += [f"{run} exit {code}",
                          f"{run} stdout {_sha(out.getvalue().encode())}",
                          f"{run} stderr {_sha(err.getvalue().encode())}"]
                for path in sorted(Path("out").glob("*")):
                    head, body = _split_header(path.read_bytes())
                    lines += [f"{run} {path.name} header {_sha(head)}",
                              f"{run} {path.name} body {_sha(body)}"]
                shutil.rmtree("out", ignore_errors=True)
        finally:
            os.chdir(cwd)
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    text = digests()
    if sys.argv[1:] == ["--write"]:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
