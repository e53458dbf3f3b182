"""The record contract: the package's 19 record types build from positional
and keyword arguments with their defaults, print as `Name(field=value, ...)`,
are frozen (they refuse assignment to a field or a new attribute), and
never equal a record of another class, even one with equal fields."""

import copy
import pickle

import numpy as np
import pytest

import wgimage as wg
from wgimage.config import ExperimentConfig
from wgimage.rank import MomentFamily, SpanRank, TaylorRank

_A = np.array([[2.0, 0.5], [0.5, 1.0]])
_P = np.array([[0.0, 3.0], [0.0, 7.0]])
_GRID = wg.SearchGrid(50.0, 150.0, 0.0, 20.0, 0.5, 0.25)

# (class, positional arguments, field names in order)
CASES = [
    (ExperimentConfig, ({"omega": 1.0}, None, wg.PointSource(100.0, 7.7), None, _GRID,
                        wg.RegPolicy(), [1e-3], 10, 2024, 1e-7, {}),
     ("values", "ms", "source", "geometry", "grid", "reg", "sigmas", "trials", "seed",
      "rank_eps", "rank_apertures")),
    (wg.Tikhonov, (0.5,), ("eps",)),
    (wg.HardThreshold, (0.5,), ("eps",)),
    (wg.RegPolicy, (wg.HardThreshold, 0.5), ("kind", "eps")),
    (wg.CouplingMatrix, (_A, np.eye(2), np.array([2.2, 0.8]), wg.Dense(0.0, 5.0)),
     ("A", "V", "d", "geometry")),
    (wg.SensingMatrix, (_A + 0j, np.eye(2), np.array([2.2, 0.8]), np.eye(2), _P),
     ("B", "U", "s", "V", "points")),
    (wg.EstimationReport, (1.0, 2.0, 3.0), ("bias_sq", "variance", "mse")),
    (wg.SearchGrid, (50.0, 150.0, 0.0, 20.0, 0.5, 0.25),
     ("x_min", "x_max", "z_min", "z_max", "dx", "dz")),
    (wg.ImageMap, (np.ones((3, 2)), _GRID), ("values", "grid")),
    (wg.HomogeneousDD, (20.0, 1.5), ("L", "c_o")),
    (wg.HomogeneousDN, (20.0, 1.5), ("L", "c_o")),
    (wg.Parabolic, (10.0, 1.5), ("L", "c_o")),
    (TaylorRank, (3, 3, 5), ("Q", "linear", "planar")),
    (MomentFamily, (2, 5.0, {(0, 0): np.ones(2)}, {(0, 0): np.ones(3)}),
     ("Q", "z_a", "u", "v")),
    (SpanRank, (3, 3, 1e4, np.array([1.0, 0.5, 0.1])),
     ("rank", "expected", "gap", "spectrum")),
    (wg.PointSource, (100.0, 7.7), ("x_o", "z_o")),
    (wg.Discrete, (_P,), ("points",)),
    (wg.Dense, (0.0, ((10.0, 10.0),)), ("mu_x", "mu_z")),
    (wg.FieldSamples, (wg.Discrete(_P), _P, np.array([0.5, 0.5]), np.array([1j, 2.0])),
     ("geometry", "points", "weights", "values")),
]


@pytest.mark.parametrize("cls, args, fields", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, args, fields):
    rec = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for name, arg in zip(fields, args):
        assert getattr(rec, name) is arg or np.array_equal(getattr(rec, name), arg)
        assert getattr(by_keyword, name) is getattr(rec, name) or np.array_equal(
            getattr(by_keyword, name), getattr(rec, name))
    assert repr(rec) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields))
    # every record is frozen: no field is reassigned and none is added
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], args[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    # no record equals one of another class, even with the same fields
    for other_cls, other_args, other_fields in CASES:
        if other_cls is cls:
            continue
        others = [other_cls(*other_args)]
        if len(other_fields) == len(fields):
            others.append(other_cls(*args))
        for other in others:
            assert rec != other and not rec == other
            assert other != rec and not other == rec


def test_record_defaults():
    assert wg.HomogeneousDD(20).c_o == 1.0
    assert wg.Parabolic(L=10).c_o == 1.0
    assert wg.RegPolicy() == wg.RegPolicy(wg.Tikhonov, None)
    assert repr(wg.Tikhonov(eps=0.5)) == "Tikhonov(eps=0.5)"
    assert repr(wg.HomogeneousDD(20)) == "HomogeneousDD(L=20, c_o=1.0)"


def test_records_compare_by_class_and_fields():
    assert wg.Tikhonov(0.5) == wg.Tikhonov(0.5) and not wg.Tikhonov(0.5) != wg.Tikhonov(0.5)
    assert wg.Tikhonov(0.5) != wg.Tikhonov(0.25)
    assert hash(wg.Tikhonov(0.5)) == hash(wg.Tikhonov(0.5))
    assert wg.Tikhonov(0.5) != wg.HardThreshold(0.5)
    assert wg.HomogeneousDD(20) != wg.HomogeneousDN(20)
    assert wg.HomogeneousDD(20) != wg.Parabolic(20)
    assert wg.PointSource(20.0, 1.0) != wg.HomogeneousDD(20.0, 1.0)
    assert len({wg.HomogeneousDD(20), wg.HomogeneousDN(20), wg.HomogeneousDD(20.0)}) == 2
    pts = wg.Discrete(_P)
    assert pts == pts and pts != wg.Discrete(_P)  # a receiver set equals only itself


def test_search_grid_rejects_nonpositive_steps():
    for dx, dz in ((0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -1.0)):
        with pytest.raises(ValueError, match="positive"):
            wg.SearchGrid(0.0, 1.0, 0.0, 1.0, dx, dz)
    with pytest.raises(ValueError, match="positive"):
        _GRID._replace(dx=0.0)
    assert _GRID._replace(z_max=30.0) == wg.SearchGrid(50.0, 150.0, 0.0, 30.0, 0.5, 0.25)
    assert type(_GRID._replace(z_max=30.0)) is wg.SearchGrid


def test_discrete_makes_a_float_point_array():
    pts = wg.Discrete([[0, 3], [0, 7], [1, 9]]).points
    assert isinstance(pts, np.ndarray) and pts.dtype == float and pts.shape == (3, 2)
    assert wg.Discrete([0, 3]).points.shape == (1, 2)
    # frozen, yet copyable, as the frozen dataclass was
    for dup in (copy.copy(wg.Discrete(pts)), copy.deepcopy(wg.Discrete(pts)),
                pickle.loads(pickle.dumps(wg.Discrete(pts)))):
        assert type(dup) is wg.Discrete and np.array_equal(dup.points, pts)
