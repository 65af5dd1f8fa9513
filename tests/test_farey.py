import importlib
import math
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torus_cables

from torus_cables.farey import (
    INFINITY,
    ContinuedFraction,
    Slope,
    ccw_strictly_between,
    cf_eval,
    cf_expand,
    circular_key,
    edge_slopes,
    extreme_neighbors,
    farey_combine,
    intersect,
    is_edge,
    mediant,
    neighbors,
    neighbors_oracle,
    normalize,
)

from oracles import S, grid_slopes, positive_slopes


def test_normalize_examples():
    assert normalize(6, 4) == Slope(3, 2)
    assert normalize(-2, -3) == Slope(2, 3)
    assert normalize(5, 0) == Slope(1, 0)


def test_normalize_rejects_zero_over_zero():
    with pytest.raises(ValueError):
        normalize(0, 0)


def test_normalize_agrees_with_the_validating_constructor():
    # normalize builds its reduced result without Slope's checks; every
    # multiple of every grid slope, either sign and 0/1 included, must give
    # the value Slope(num, den) validates.
    for s in grid_slopes(40, include_infinity=False):
        for k in (1, 2, 7, -1, -6):
            got = normalize(k * s.num, k * s.den)
            assert type(got) is Slope and got == Slope(s.num, s.den), (s, k)
            assert repr(got) == repr(s) and hash(got) == hash(s)


def test_parse_roundtrip():
    for text in ("5/3", "-1/2", "7", "1/0", "0/1"):
        assert str(Slope.parse(text)) in (text, text + "/1")
    assert Slope.parse("inf") == INFINITY


def test_cf_expand_examples():
    assert cf_expand(S("5/3")).coeffs == (2, 3)
    assert cf_expand(S("4/3")).coeffs == (2, 2, 2)
    assert cf_expand(S("7/1")).coeffs == (7,)
    assert str(cf_expand(S("7/1"))) == "[7]"


def test_cf_expand_rejects_nonpositive():
    for bad in ("-1/2", "0/1", "1/0"):
        with pytest.raises(ValueError):
            cf_expand(S(bad))


def test_cf_eval_examples():
    assert cf_eval(ContinuedFraction((2, 3))) == S("5/3")
    assert cf_eval(ContinuedFraction((1,))) == S("1/1")
    assert cf_eval(ContinuedFraction((2, 2, 2))) == S("4/3")
    assert cf_eval(ContinuedFraction((1, 2))) == S("1/2")


def test_continued_fraction_is_canonical_only():
    for coeffs in ((2, 2, 1), (0,), (2, 0), ()):
        with pytest.raises(ValueError):
            ContinuedFraction(coeffs)


def test_cf_invariants():
    for u in positive_slopes(25, 25):
        cf = cf_expand(u)
        assert cf.coeffs[0] >= 1
        assert all(c >= 2 for c in cf.coeffs[1:])
        assert cf_eval(cf) == u


def test_neighbors_examples():
    assert neighbors(S("5/3")) == (S("2/1"), S("3/2"))
    assert neighbors(S("3/1")) == (INFINITY, S("2/1"))
    assert neighbors(S("1/3")) == (S("1/2"), S("0/1"))


def test_neighbors_oracle_examples():
    assert neighbors_oracle(S("5/3"), 10) == (S("2/1"), S("3/2"))
    assert neighbors_oracle(S("1/2"), 10) == (S("1/1"), S("0/1"))
    assert neighbors_oracle(S("4/3"), 10) == (S("3/2"), S("1/1"))


def test_extreme_neighbors_of_every_finite_slope():
    # Negative slopes and 0/1 included; a brute-force scan of denominators
    # <= 60 finds every neighbor in one of the two families.
    for s in grid_slopes(30, include_infinity=False):
        upper, lower = extreme_neighbors(s)
        assert is_edge(s, upper) and is_edge(s, lower) and is_edge(upper, lower)
        assert (upper.num + lower.num, upper.den + lower.den) == (s.num, s.den)
        assert lower.value < s.value and (upper.is_infinite or s.value < upper.value)
        found = [INFINITY] if s.den == 1 else []
        for b in range(1, 61):
            for e in (1, -1):
                top = s.num * b - e
                if top % s.den == 0:
                    found.append(normalize(top // s.den, b))
        assert edge_slopes(s, 60) == found, s
        for t in found:
            if t != upper:
                assert lower.value <= t.value and (upper.is_infinite or t.value < upper.value)
            in_family = [
                base
                for base in (upper, lower)
                if (t.den - base.den) % s.den == 0
                and (t.den - base.den) // s.den >= 0
                and t.num - base.num == (t.den - base.den) // s.den * s.num
            ]
            assert in_family, (s, t)
    with pytest.raises(ValueError):
        extreme_neighbors(INFINITY)


def test_neighbors_rejects_nonpositive():
    for bad in ("-1/2", "0/1", "1/0"):
        with pytest.raises(ValueError, match="neighbors are defined for positive slopes"):
            neighbors(S(bad))


def test_every_cache_is_bounded():
    # Long-running use must not grow memory through an unbounded cache.
    caches = {}
    for info in pkgutil.iter_modules(torus_cables.__path__):
        module = importlib.import_module(f"torus_cables.{info.name}")
        scopes = [vars(module)] + [vars(v) for v in vars(module).values() if isinstance(v, type)]
        for scope in scopes:
            for name, obj in scope.items():
                if hasattr(obj, "cache_parameters"):
                    caches[f"{module.__name__}.{name}"] = obj.cache_parameters()["maxsize"]
    assert "torus_cables.bypass._edge_candidates" in caches
    assert all(size is not None for size in caches.values()), caches


def test_mediant_examples():
    assert mediant(S("2/1"), S("3/2")) == S("5/3")
    assert mediant(S("0/1"), S("1/0")) == S("1/1")
    assert mediant(S("2/3"), S("1/1")) == S("3/4")


def test_farey_combine_examples():
    assert farey_combine(S("2/3"), S("1/1"), 1, 1) == S("3/4")
    assert farey_combine(S("2/3"), S("1/1"), 2, 1) == S("5/7")
    assert farey_combine(S("1/1"), S("2/1"), 3, 1) == S("5/4")
    assert Fraction(2, 3) < Fraction(5, 7) < Fraction(1, 1)


def test_farey_combine_rejects_non_edges():
    with pytest.raises(ValueError):
        farey_combine(S("5/3"), S("1/1"), 1, 1)


def test_farey_combine_stays_inside_the_edge_interval():
    pairs = [(S("2/3"), S("1/1")), (S("0/1"), S("1/0")), (S("2/1"), S("1/0")),
             (S("-1/2"), S("0/1")), (S("1/2"), S("2/3"))]
    for a, b in pairs:
        for m in range(1, 4):
            for n in range(1, 4):
                c = farey_combine(a, b, m, n)
                # the arc of the edge (a, b) that holds their mediant
                lo, hi = (a, b) if ccw_strictly_between(mediant(a, b), a, b) else (b, a)
                assert ccw_strictly_between(c, lo, hi), (a, b, m, n)


def test_is_edge_examples():
    assert is_edge(S("5/3"), S("2/1"))
    assert not is_edge(S("5/3"), S("1/1"))
    assert is_edge(S("0/1"), S("1/0"))


def test_intersect_examples():
    assert intersect(S("5/3"), S("1/0")) == 3
    assert intersect(S("7/2"), S("7/2")) == 0
    assert intersect(S("3/2"), S("2/3")) == 5


slope_pairs = st.tuples(st.integers(-40, 40), st.integers(0, 40)).filter(
    lambda t: t != (0, 0) and not (t[1] == 0 and t[0] == 0)
)


@given(slope_pairs, slope_pairs)
@settings(derandomize=True)
def test_intersect_symmetric_and_edge_iff_one(pa, pb):
    a, b = normalize(*pa), normalize(*pb)
    assert intersect(a, b) == intersect(b, a)
    assert (intersect(a, b) == 0) == (a == b)
    assert is_edge(a, b) == (intersect(a, b) == 1)


@given(st.integers(1, 60), st.integers(1, 60))
@settings(derandomize=True)
def test_cf_roundtrip(num, den):
    u = normalize(num, den)
    assert cf_eval(cf_expand(u)) == u


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=60, derandomize=True)
def test_neighbors_match_oracle(num, den):
    u = normalize(num, den)
    assert neighbors(u) == neighbors_oracle(u, 150)


@given(slope_pairs, slope_pairs)
@settings(derandomize=True)
def test_mediant_between_finite(pa, pb):
    a, b = normalize(*pa), normalize(*pb)
    if a == b:
        return
    m = mediant(a, b)
    if a.is_infinite or b.is_infinite:
        fin = b if a.is_infinite else a
        if not m.is_infinite and not fin.is_infinite:
            assert m.value > fin.value or m == fin  # pushed toward infinity
        return
    lo, hi = sorted((a.value, b.value))
    assert lo < m.value < hi


def test_circular_order_layout():
    ordering = [S("0/1"), S("1/3"), S("1/2"), S("1/1"), S("2/1"), S("1/0"),
                S("-3/1"), S("-1/1"), S("-1/2"), S("-1/3")]
    keys = [circular_key(s) for s in ordering]
    assert keys == sorted(keys)


def test_ccw_between():
    assert ccw_strictly_between(S("1/2"), S("0/1"), S("1/1"))
    assert not ccw_strictly_between(S("3/2"), S("0/1"), S("1/1"))
    # wrap through infinity and the negatives
    assert ccw_strictly_between(S("-1/2"), S("2/1"), S("1/3"))
    assert not ccw_strictly_between(S("1/2"), S("2/1"), S("1/3"))
    # the arc is open at both ends, which must differ
    assert not ccw_strictly_between(S("0/1"), S("0/1"), S("1/1"))
    with pytest.raises(ValueError):
        ccw_strictly_between(S("1/2"), S("1/1"), S("1/1"))


def test_slope_value_and_floor():
    assert S("7/2").value == Fraction(7, 2)
    assert math.floor(S("7/2").value) == 3
    with pytest.raises(ValueError):
        INFINITY.value
