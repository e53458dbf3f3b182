"""The scripts under tests/ that pytest does not collect still run: the
code-line counter that simplicity claims cite, the seed-spread audit
that a change of draws or decisions reports, and the audit of the
functions no CLI run calls, whose table of keepers must stay current."""

import re
import subprocess
import sys
from pathlib import Path

import code_lines
import seed_spread
import uncalled
from wgimage.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_code_line_counter_totals_its_modules():
    *rows, total = code_lines.report().splitlines()
    counts = dict(row.split() for row in rows)
    assert sorted(counts) == sorted(path.name for path in code_lines.SRC.glob("*.py"))
    assert total == f"total {sum(map(int, counts.values()))}"


def test_code_line_counter_skips_docs_comments_and_blanks(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Doc\n\nstring."""\n\n# comment\nx = (1,\n\n     2)  # two\n\n'
                    'def f():\n    "doc"\n    return """a\nb"""\n')
    assert code_lines.code_lines(path) == 5  # x = (1, / 2) / def / return """a / b"""


def test_seed_spread_prints_each_cell_and_matches_mc_rate(tmp_path):
    seeds = [1, 2]
    lines = seed_spread.report(seeds).splitlines()
    names = [re.match(r"summary (.+) mean ", line)[1] for line in lines
             if line.startswith("summary ")]
    cells = {}
    for line in lines:
        if line.startswith("cell "):
            name, seed, value = re.fullmatch(r"cell (.+) seed (\d+) (\S+)", line).groups()
            assert (name, int(seed)) not in cells
            cells[name, int(seed)] = float(value)
    assert sorted(cells) == sorted((name, s) for name in names for s in seeds)
    assert main(["mc-rate", "--config", str(ROOT / "configs" / "vertical.cfg"),
                 "--out", str(tmp_path), "--seed", "1"]) == 0
    rows = [row.split(",") for row in (tmp_path / "rates.csv").read_text().splitlines()
            if row[:1].isdigit()]
    assert len(rows) == 4
    for sigma, rate, trials, _ in rows:
        assert cells[f"rate vertical {float(sigma):g} trials {trials}", 1] == float(rate)


def test_every_uncalled_function_has_a_current_keeper():
    # in a fresh interpreter, so that calls made while the package loads
    # count; a fault line (unlisted, called or missing) exits 1
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "uncalled.py")],
                         capture_output=True, text=True, timeout=300)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout + run.stderr
    assert [line.split()[1] for line in lines] == sorted(uncalled.KEEPERS)
    for line in lines:
        assert re.fullmatch(r"uncalled \S+ (criterion \d\d|item \d+)", line), line


def test_uncalled_audit_names_each_fault_of_its_table():
    def f():
        pass

    def g():
        pass

    defined = {"m.f": f.__code__, "m.g": g.__code__}
    keepers = {"m.g": "item 1", "m.gone": "criterion 05"}
    assert uncalled.audit(defined, {g.__code__}, keepers) == (
        [], ["unlisted m.f", "called m.g", "missing m.gone"])
    assert uncalled.audit(defined, {f.__code__}, keepers) == (
        ["uncalled m.g item 1"], ["missing m.gone"])
