"""Value semantics of every class the layers build with ``farey.frozen``:
the behaviour ``@dataclass(frozen=True)`` gave them, on one instance each."""

import copy
import importlib
import pickle
from dataclasses import fields, replace

import pytest

from torus_cables import farey
from torus_cables.bypass import TorusState
from torus_cables.farey import ContinuedFraction, Slope
from torus_cables.legendrian import (
    Branch,
    CableSpec,
    Common,
    Generator,
    MountainRange,
    classify,
    mountain_range,
)
from torus_cables.torus_knots import (
    CensusRecord,
    TorusKnotSpec,
    influence_interval,
    locate,
    nonthickenable_profile,
    thickening_outcome,
    tori_census,
)
from torus_cables.transverse import TransverseBranch, quotient_transverse, verify_qualitative

from oracles import S, T25

CLS = classify(CableSpec(T25, 7, 5))
REPORT = verify_qualitative(T25, "qual4", 2, 3, 5)
TCLS = quotient_transverse(CLS)

# One instance of each value class; MountainRange is checked on its own.
SAMPLES = [
    S("3/7"),
    ContinuedFraction((3, 2, 2)),
    TorusState(S("3/7"), S("1/2")),
    T25,
    influence_interval(T25, 2),
    locate(T25, S("5/7")),
    nonthickenable_profile(T25, 2),
    tori_census(T25, S("5/2")),
    thickening_outcome(T25, S("2/3"), 1, inside_index=2),
    CLS.cable,
    CLS.branches[0],
    Common(1, 6),
    Branch(CLS.branches[0], 1, 2),
    CLS.parameters,
    CLS,
    TCLS.branches[-1],
    TCLS,
    REPORT.claims[0],
    REPORT,
]

# Changes that one class's checks reject, for every class that has checks.
INVALID = {
    Slope: ({"den": -7}, {"den": 0}, {"den": 9}),
    ContinuedFraction: ({"coeffs": (3, 1)},),
    TorusState: ({"ruling": S("3/7")},),
    TorusKnotSpec: ({"q": 4},),
    CensusRecord: ({"standard_count": 99},),
    CableSpec: ({"r": 0},),
    Generator: ({"sign": None}, {"tb": CLS.branches[0].tb + 1}),
    Branch: ({"x": -1}, {"x": CLS.branches[0].bound + 1}),
    TransverseBranch: ({"sl_top": 4}, {"merge_sl": TCLS.branches[-1].sl_top}),
}


def _names(x):
    return [f.name for f in fields(x)]


def _value_classes():
    found = set()
    for layer in ("farey", "bypass", "torus_knots", "legendrian", "transverse"):
        module = importlib.import_module(f"torus_cables.{layer}")
        found |= {v for v in vars(module).values()
                  if isinstance(v, type) and issubclass(v, farey._Value) and v is not farey._Value}
    return found


def test_every_value_class_is_sampled():
    assert len(_value_classes()) == 20
    assert {type(x) for x in SAMPLES} | {MountainRange} == _value_classes()


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_value_semantics(x):
    names = _names(x)
    values = tuple(getattr(x, n) for n in names)
    twin = type(x)(**dict(zip(names, values)))
    assert twin == x and not twin != x and twin is not x
    assert hash(x) == hash(values) == hash(twin)
    assert x != values and not x == values
    for other in SAMPLES + [Common(3, 7)]:
        if type(other) is not type(x):
            assert x != other and other != x
    assert repr(x) == f"{type(x).__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(TypeError):
        x < twin
    with pytest.raises(TypeError):
        x + twin
    with pytest.raises(TypeError):
        x * 2
    assert replace(x) == x
    assert pickle.loads(pickle.dumps(x)) == x
    for change in INVALID.get(type(x), ()):
        with pytest.raises(ValueError):
            replace(x, **change)
        # A doctored value, built past the constructor, is checked again on
        # every route back through it.
        doctored = tuple.__new__(type(x), tuple(change.get(n, v) for n, v in zip(names, values)))
        with pytest.raises(ValueError):
            copy.copy(doctored)
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(doctored))


def test_types_never_compare_equal_across_classes():
    assert Common(1, 2) != Slope(1, 2)
    assert Slope(1, 2) != (1, 2) and (1, 2) != Slope(1, 2)
    assert len({Common(1, 2), Slope(1, 2), (1, 2)}) == 3


def test_constructors_normalize_in_new():
    assert CableSpec(T25, -7, -5) == CableSpec(T25, 7, 5)
    assert replace(CableSpec(T25, 7, 5), r=-7, s=-5).s == 5
    assert ContinuedFraction([3, 2.0]).coeffs == (3, 2)


def test_mountain_range_compares_by_identity():
    mr = mountain_range(CLS, CLS.tb_max - 4)
    twin = replace(mr)
    assert mr == mr and not mr != mr
    assert twin != mr and twin.counts == mr.counts
    assert hash(mr) == object.__hash__(mr)
    assert repr(mr).startswith(f"MountainRange(tb_floor={mr.tb_floor}, tb_max={mr.tb_max}, counts={{")
