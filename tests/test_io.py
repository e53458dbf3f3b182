"""The block CSV writers give the bytes of the per-cell writer they
replaced. The reference below is that writer: every cell formatted on
its own, with the int/float rule, and the rows joined in memory."""

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


def reference_csv(path, columns, rows, meta=None):
    out = io._header_lines(meta)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def reference_image_csv(path, im, meta=None):
    norm = im.normalize()
    xs, zs = norm.grid.x, norm.grid.z
    rows = [(xs[i], zs[k], norm.values[i, k])
            for i in range(xs.size) for k in range(zs.size)]
    reference_csv(path, ("x", "z", "I_normalized"), rows, meta)


META = {"config": "0123456789ab", "seed": 2024, "sigma": 1e-6}


def _same_csv(tmp_path, columns, rows, meta=META):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    io.write_csv(new, columns, io.format_rows(rows), meta)
    reference_csv(ref, columns, rows, meta)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_text()


def _same_image(tmp_path, im):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    io.write_image_csv(new, im, META)
    reference_image_csv(ref, im, META)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_text()


def test_float_edge_values(tmp_path):
    values = [-0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1 + 0.2, 123456789012.5]
    text = _same_csv(tmp_path, ("v", "w"), [(v, np.float64(v)) for v in values])
    assert text.splitlines()[-len(values):] == [
        "-0,-0", "nan,nan", "inf,inf", "-inf,-inf", "1e-300,1e-300",
        "0.3,0.3", "123456789012,123456789012"]


def test_numpy_scalars_and_wide_ints(tmp_path):
    rows = [(np.float64(0.1), np.int64(-7), 2**128 - 1),
            (np.float64(2.0), np.int64(2**62), 0)]
    text = _same_csv(tmp_path, ("f", "i", "seed"), rows)
    assert text.splitlines()[-2] == f"0.1,-7,{2**128 - 1}"
    assert text.splitlines()[-1] == f"2,{2**62},0"


def test_rows_may_be_a_generator(tmp_path):
    # the second list spans two full blocks and one row of a third
    for rows in ([(1, 0.5), (2, 0.25)],
                 [(i, 1.0 / (i + 1)) for i in range(2 * io.BLOCK_ROWS + 1)]):
        _same_csv(tmp_path, ("index", "value"), rows)
        ref = (tmp_path / "new.csv").read_bytes()
        io.write_csv(tmp_path / "gen.csv", ("index", "value"), io.format_rows(iter(rows)), META)
        assert (tmp_path / "gen.csv").read_bytes() == ref


@pytest.mark.parametrize("rows", [
    [(1, 0.5), (2,)],
    [(1, 0.5), (2, 0.1, 9)],
    # flattened, the short and the long row would fill a block's slots exactly
    [(1, 0.5), (2,), (3, 0.1, 9)],
    [(1, 0.5)] * (io.BLOCK_ROWS + 3) + [(2,), (3, 0.1, 9)],
])
def test_row_of_another_length_raises(tmp_path, rows):
    with pytest.raises(TypeError):
        io.write_csv(tmp_path / "bad.csv", ("index", "value"), io.format_rows(iter(rows)), META)


def test_no_rows_gives_header_and_column_line(tmp_path):
    text = _same_csv(tmp_path, ("a", "b"), [])
    assert text.splitlines() == io._header_lines(META) + ["a,b"]
    io.write_csv(tmp_path / "gen.csv", ("a", "b"), io.format_rows(iter([])), META)
    assert (tmp_path / "gen.csv").read_text() == text


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
    # more than two blocks of pixels, with exact zeros, values below 1e-4
    # (the exponent form of %.12g) and negative z
    large = SearchGrid(50.0, 69.0, -3.0, 3.0, 0.5, 1 / 71)
    shape = (large.x.size, large.z.size)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 1, shape)
    values[rng.random(shape) < 0.1] = 0.0
    images.append(ImageMap(values, large))
    assert large.x.size * large.z.size > 2 * io.BLOCK_ROWS + 1
    for im in images:
        grid = im.grid
        text = _same_image(tmp_path, im)
        body = text.splitlines()[len(io._header_lines(META)) + 1:]
        assert [ln.split(",")[0] for ln in body[:grid.z.size]] == ["%.12g" % grid.x[0]] * grid.z.size
        assert max(float(ln.split(",")[2]) for ln in body) == 1.0
    z_col, value_col = zip(*(ln.split(",")[1:] for ln in body))
    assert "-3" in z_col and "0" in value_col
    assert any("e-" in v for v in value_col)


_cells = {"int": st.integers(min_value=-2**130, max_value=2**130),
          "float": st.floats(allow_nan=True, allow_infinity=True)}


@st.composite
def _column_uniform_rows(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_cells)), min_size=1, max_size=5))
    row = st.tuples(*(_cells[k] for k in kinds))
    return kinds, draw(st.lists(row, max_size=20))


@settings(max_examples=60, deadline=None)
@given(_column_uniform_rows())
def test_column_uniform_rows_match_reference(case):
    kinds, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        _same_csv(Path(tmp), tuple(f"{k}{i}" for i, k in enumerate(kinds)), rows)


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
