"""The shipped configs' outputs keep their bytes: every exit code, stdout,
stderr and CSV of tests/output_digests.txt, recomputed in one child
interpreter (see output_digests.py). A change that moves an output
rewrites the file with `python tests/output_digests.py --write` and says
in CHANGES.md which outputs changed and why."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
HEADER = 2  # the numpy and BLAS lines


def test_shipped_outputs_match_their_digests():
    done = subprocess.run([sys.executable, str(TESTS / "output_digests.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    expected = (TESTS / "output_digests.txt").read_text().splitlines()
    actual = done.stdout.splitlines()
    assert actual[:HEADER] == expected[:HEADER], (
        f"the digests were made with {' / '.join(expected[:HEADER])}, this environment "
        f"has {' / '.join(actual[:HEADER])}: rewrite them here before comparing outputs")
    changed = sorted(set(actual[HEADER:]) ^ set(expected[HEADER:]))
    assert actual == expected, "outputs differ from their digests (- digest, + now):\n" + "\n".join(
        ("+ " if line in actual else "- ") + line for line in changed)
