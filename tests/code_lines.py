"""Non-doc code lines of each src/wgimage module and their total.

A code line holds a token other than a comment, and is neither blank nor
part of a lone-string statement (a docstring). Lines inside a multi-line
token count, as do the lines of a bracketed statement that hold one of
its tokens. Simplicity claims cite the total, and beside it the number of
knobs: the distinct key names of the config table (`config.KEYS`).

    python tests/code_lines.py

prints one `<module> <lines>` line per module, sorted by name, then
`total <lines>` and `keys <n>`. It imports the package of its own
checkout, from src/.
"""

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgimage"
sys.path.insert(0, str(SRC.parent))

from wgimage.config import KEYS  # noqa: E402

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """Number of non-doc code lines of one Python file."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NON_CODE:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def report():
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    rows = [f"{name} {n}" for name, n in counts.items()]
    rows += [f"total {sum(counts.values())}", f"keys {len({key.name for key in KEYS})}"]
    return "".join(row + "\n" for row in rows)


if __name__ == "__main__":
    sys.stdout.write(report())
