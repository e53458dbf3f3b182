"""Each CSV table writer, and the image writer with its per-x-row
template, gives the bytes of a per-cell writer. The reference below is
that writer: every cell formatted on its own, integers exactly and
everything else with %.12g, and the rows joined in memory."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgimage import io
from wgimage.image import ImageMap, SearchGrid


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def reference_csv(path, columns, rows, meta):
    out = io._header_lines(meta)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def reference_image_csv(path, im, meta):
    norm = im.normalize()
    xs, zs = norm.grid.x, norm.grid.z
    rows = [(xs[i], zs[k], norm.values[i, k])
            for i in range(xs.size) for k in range(zs.size)]
    reference_csv(path, ("x", "z", "I_normalized"), rows, meta)


META = {"config": "0123456789ab", "seed": 2024, "sigma": 1e-6}


def _write_spectrum(path, rows):
    io.write_spectrum_csv(path, np.array([v for _, v in rows]), META)


def _write_rates(path, rows):
    sigmas, rates, trials, seeds = zip(*rows) if rows else ((), (), (0,), (0,))
    io.write_rates_csv(path, sigmas, rates, trials[0], seeds[0], META)


def _write_rank_scan(path, rows):
    io.write_rank_scan_csv(path, rows, META)


#: table writer -> (its columns, a writer call from reference rows)
WRITERS = {
    "spectrum": (("index", "value"), _write_spectrum),
    "rates": (("sigma", "error_rate", "trials", "seed"), _write_rates),
    "rank_scan": (("a_over_L", "predicted", "measured"), _write_rank_scan),
}


def _same_table(tmp_path, kind, rows):
    """Bytes of the `kind` table writer on `rows`, which must equal the
    per-cell reference's; returns the text."""
    columns, write = WRITERS[kind]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(new, rows)
    reference_csv(ref, columns, rows, META)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_text()


def _same_image(tmp_path, im):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    io.write_image_csv(new, im, META)
    reference_image_csv(ref, im, META)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_text()


def _body(text):
    return text.splitlines()[len(io._header_lines(META)) + 1:]


EDGES = [-0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1 + 0.2, 123456789012.5]
EDGE_TEXT = ["-0", "nan", "inf", "-inf", "1e-300", "0.3", "123456789012"]


def test_float_edge_values(tmp_path):
    text = _same_table(tmp_path, "spectrum", [(i + 1, v) for i, v in enumerate(EDGES)])
    assert _body(text) == [f"{i + 1},{t}" for i, t in enumerate(EDGE_TEXT)]
    text = _same_table(tmp_path, "rates", [(v, np.float64(v), 5, 7) for v in EDGES])
    assert _body(text) == [f"{t},{t},5,7" for t in EDGE_TEXT]
    text = _same_table(tmp_path, "rank_scan", [(v, np.float64(v), 3) for v in EDGES])
    assert _body(text) == [f"{t},{t},3" for t in EDGE_TEXT]


def test_numpy_scalars_and_wide_ints(tmp_path):
    seed = 2**128 - 1
    rows = [(np.float64(0.1), np.float32(0.5), np.int64(200), seed),
            (np.float32(2.0), np.float64(1.0), np.int64(200), seed)]
    text = _same_table(tmp_path, "rates", rows)
    assert _body(text) == [f"0.1,0.5,200,{seed}", f"2,1,200,{seed}"]
    rows = [(np.float64(0.1), np.float64(12.5), np.int64(-7)),
            (np.float32(0.25), 318.0, np.int64(2**62))]
    text = _same_table(tmp_path, "rank_scan", rows)
    assert _body(text) == ["0.1,12.5,-7", f"0.25,318,{2**62}"]
    text = _same_table(tmp_path, "spectrum", [(1, np.float32(0.1)), (2, 0.1)])
    assert _body(text) == ["1,%.12g" % np.float32(0.1), "2,0.1"]


@pytest.mark.parametrize("rows", [
    [(0.1, 0.5, 2), (0.2, 0.5)],
    [(0.1, 0.5, 2), (0.2, 0.5, 3, 9)],
    # flattened, the short and the long row would give the right count
    [(0.1, 0.5, 2), (0.2,), (0.3, 0.5, 3, 9)],
    # the bad row comes last, after many good ones
    [(0.1, 0.5, 2)] * 500 + [(0.2, 0.5)],
])
def test_row_of_another_length_raises(tmp_path, rows):
    with pytest.raises(TypeError):
        io.write_rank_scan_csv(tmp_path / "bad.csv", rows, META)
    # the rows are formatted before the file is opened
    assert not (tmp_path / "bad.csv").exists()


def test_no_rows_gives_header_and_column_line(tmp_path):
    for kind, (columns, _) in WRITERS.items():
        text = _same_table(tmp_path, kind, [])
        assert text.splitlines() == io._header_lines(META) + [",".join(columns)]


def test_write_csv_creates_the_directory(tmp_path, monkeypatch):
    path = tmp_path / "a" / "b" / "spectrum.csv"
    io.write_spectrum_csv(path, [2.0, 1.0], META)
    assert _body(path.read_text()) == ["1,2", "2,1"]
    io.write_spectrum_csv(path, [3.0], META)  # into the existing directory
    assert _body(path.read_text()) == ["1,3"]
    monkeypatch.chdir(tmp_path)  # a bare file name has no directory part
    io.write_spectrum_csv("bare.csv", [4.0], META)
    assert _body((tmp_path / "bare.csv").read_text()) == ["1,4"]


def test_image_single_row_and_column(tmp_path):
    rng = np.random.default_rng(3)
    one_x = SearchGrid(100.0, 100.0, 0.0, 2.0, 0.5, 0.25)
    assert one_x.x.size == 1 and one_x.z.size > 1
    text = _same_image(tmp_path, ImageMap(rng.random((1, one_x.z.size)), one_x))
    assert len(text.splitlines()) == len(io._header_lines(META)) + 1 + one_x.z.size
    one_z = SearchGrid(50.0, 51.0, 7.7, 7.7, 0.1, 0.5)
    assert one_z.z.size == 1 and one_z.x.size > 1
    _same_image(tmp_path, ImageMap(rng.random((one_z.x.size, 1)), one_z))


def test_image_unnormalized_complex_is_x_major(tmp_path):
    rng = np.random.default_rng(5)
    small = SearchGrid(50 + 1 / 7, 52.0, -1.0, 1.0, 0.7, 1 / 3)
    shape = (small.x.size, small.z.size)
    images = [ImageMap(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), small)]
    # a larger grid with exact zeros, values below 1e-4 (the exponent form
    # of %.12g) and negative z
    large = SearchGrid(50.0, 69.0, -3.0, 3.0, 0.5, 1 / 71)
    shape = (large.x.size, large.z.size)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 1, shape)
    values[rng.random(shape) < 0.1] = 0.0
    images.append(ImageMap(values, large))
    for im in images:
        grid = im.grid
        text = _same_image(tmp_path, im)
        body = _body(text)
        assert [ln.split(",")[0] for ln in body[:grid.z.size]] == ["%.12g" % grid.x[0]] * grid.z.size
        assert max(float(ln.split(",")[2]) for ln in body) == 1.0
    z_col, value_col = zip(*(ln.split(",")[1:] for ln in body))
    assert "-3" in z_col and "0" in value_col
    assert any("e-" in v for v in value_col)


_float = st.floats(allow_nan=True, allow_infinity=True)
_int = st.integers(min_value=0, max_value=2**128 - 1)
#: rows of each table writer's column types; a rates table has one trials
#: count and one seed
_rows = {
    "spectrum": st.lists(_float, max_size=30).map(
        lambda vs: [(i + 1, v) for i, v in enumerate(vs)]),
    "rates": st.tuples(st.lists(st.tuples(_float, _float), max_size=20), _int, _int).map(
        lambda c: [(s, r, c[1], c[2]) for s, r in c[0]]),
    "rank_scan": st.lists(st.tuples(_float, _float, _int), max_size=20),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_rows)).flatmap(lambda k: st.tuples(st.just(k), _rows[k])))
def test_table_writers_match_per_cell_reference(case):
    kind, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        _same_table(Path(tmp), kind, rows)


_axis_start = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_axis_step = st.floats(min_value=1e-3, max_value=10.0)
# exact zeros, the exponent form of %.12g below 1e-4, plain values, exact ones
_pixel = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e-4),
                   st.floats(min_value=-1e3, max_value=1e3), st.just(1.0))


@st.composite
def _images(draw):
    (x0, dx, nx), (z0, dz, nz) = (
        (draw(_axis_start), draw(_axis_step), draw(st.integers(1, 20))) for _ in range(2))
    grid = SearchGrid(x0, x0 + (nx - 1) * dx, z0, z0 + (nz - 1) * dz, dx, dz)
    shape = (grid.x.size, grid.z.size)
    cells = st.lists(_pixel, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    values = np.array(draw(cells)).reshape(shape)
    if draw(st.booleans()):
        values = values + 1j * np.array(draw(cells)).reshape(shape)
    return ImageMap(values, grid)


@settings(max_examples=80, deadline=None)
@given(_images())
def test_image_writer_matches_per_cell_reference(im):
    with tempfile.TemporaryDirectory() as tmp:
        _same_image(Path(tmp), im)
