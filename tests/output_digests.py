"""SHA-256 digests of every output of the shipped configs.

Runs the five subcommands on each configs/*.cfg at seeds 1 and 7, with
the shipped trial counts, and prints one line per output: the exit code,
the digests of stdout and stderr, and the digest of every file the run
writes. The first lines name the numpy and BLAS the outputs come from.

    python tests/output_digests.py           # print the digests
    python tests/output_digests.py --write   # rewrite tests/output_digests.txt

All runs share this one interpreter, which sets the BLAS thread
variables to 1 and imports wgimage.cli before numpy, so BLAS runs on one
thread whatever the environment exports. They run in a temporary directory,
on copies of the configs, with the fixed relative --out `out`, so no
printed path depends on where the checkout lives.
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


def environment():
    """The header lines: the numpy and BLAS versions."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"numpy {np.__version__}", f"blas {blas['name']} {blas['version']}"]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests():
    """The header lines, then `<config> <command> <seed> <output> <value>`
    for every run: its exit code, then the digests of its stdout, its
    stderr and each file it wrote, by name."""
    lines = environment()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "configs", Path(tmp) / "configs")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for cfg in sorted(Path("configs").glob("*.cfg")):
                for command in COMMANDS:
                    for seed in SEEDS:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = main([command, "--config", str(cfg), "--out", "out",
                                         "--seed", str(seed)])
                        run = f"{cfg.stem} {command} {seed}"
                        lines += [f"{run} exit {code}",
                                  f"{run} stdout {_sha(out.getvalue().encode())}",
                                  f"{run} stderr {_sha(err.getvalue().encode())}"]
                        for path in sorted(Path("out").glob("*")):
                            lines.append(f"{run} {path.name} {_sha(path.read_bytes())}")
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
