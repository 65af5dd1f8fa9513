from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_cables.farey import Slope, intersect, mediant, normalize
from torus_cables.torus_knots import (
    INFLUENCE_UPPER,
    TorusKnotSpec,
    exceptional_indices,
    exceptional_slope,
    influence_interval,
    locate,
    nonthickenable_profile,
    thickening_outcome,
    tori_census,
    width,
)

from oracles import (
    CRITERION_10_KNOTS, S, T23, T25, T34, _census_target_by_scan, _region_by_scan,
    _thickening_by_circular_order, grid_slopes)

T57 = TorusKnotSpec(5, 7)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusKnotSpec(3, 2)
    with pytest.raises(ValueError):
        TorusKnotSpec(2, 4)
    with pytest.raises(ValueError):
        TorusKnotSpec(1, 5)


def test_width_examples():
    assert width(T23) == 1
    assert width(T25) == 3
    assert width(T34) == 5


def test_exceptional_slope_examples():
    assert exceptional_slope(T23, 4) == S("4/1")
    assert exceptional_slope(T25, 2) == S("2/3")
    assert exceptional_slope(T25, 3) == S("1/1")


def test_exceptional_indices_examples():
    assert exceptional_indices(T23, 5) == frozenset({2, 3, 4, 5})
    assert exceptional_indices(T25, 8) == frozenset({2, 4, 5, 7, 8})
    assert exceptional_indices(T34, 6) == frozenset({2, 3, 4, 6})


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        exceptional_slope(T25, 0)
    with pytest.raises(ValueError):
        exceptional_indices(T25, 1)
    with pytest.raises(ValueError):
        influence_interval(T25, 0)
    with pytest.raises(ValueError):
        nonthickenable_profile(T25, 0)


def test_influence_interval_examples():
    iv = influence_interval(T25, 2)
    assert (iv.center, iv.upper, iv.lower) == (S("2/3"), S("1/1"), S("1/2"))
    iv = influence_interval(T25, 4)
    assert (iv.center, iv.upper, iv.lower) == (S("4/3"), S("3/2"), S("1/1"))
    iv = influence_interval(T23, 2)
    assert (iv.center, iv.upper, iv.lower) == (S("2/1"), S("1/0"), S("1/1"))


def test_locate_examples():
    assert str(locate(T25, S("3/4"))) == "influence_upper(2)"
    assert str(locate(T25, S("3/5"))) == "influence_lower(2)"
    assert str(locate(T25, S("2/5"))) == "simple_mid"
    assert str(locate(T23, S("7/2"))) == "trefoil_band(3)"
    assert str(locate(T23, S("1/1"))) == "trefoil_band(1)"
    assert str(locate(T25, S("1/3"))) == "low_range"
    assert str(locate(T34, S("-7/2"))) == "negative"


def test_locate_rejects_meridian_and_longitude():
    for bad in ("0/1", "1/0"):
        with pytest.raises(ValueError):
            locate(T25, S(bad))


def test_locate_partition_exhaustive():
    # one tag per slope, matching the independent scan, denominators <= 40
    for spec in (T25, T34):
        for den in range(1, 41):
            for num in range(-12, 13):
                if num == 0 or gcd(abs(num), den) != 1:
                    continue
                slope = Slope(num, den)
                region = locate(spec, slope)
                expected = _region_by_scan(spec, slope)
                if isinstance(expected, tuple):
                    assert (region.kind, region.index) == expected, f"{spec} {slope}"
                else:
                    assert region.kind == expected, f"{spec} {slope}"


@st.composite
def _knots_and_slopes(draw):
    q = draw(st.integers(3, 40))
    p = draw(st.integers(2, q - 1).filter(lambda p: gcd(p, q) == 1))
    spec = TorusKnotSpec(p, q)
    w = spec.width
    if draw(st.booleans()):  # within 1/(w*m) of n/w, where the intervals sit
        n, m, d = draw(st.integers(1, 3 * w)), draw(st.integers(2, 3 * w)), draw(st.integers(-1, 1))
        return spec, normalize(n * m + d, w * m)
    den = draw(st.integers(1, 3 * w))
    num = draw(st.integers(-3 * den, 3 * den).filter(lambda a: a != 0 and gcd(abs(a), den) == 1))
    return spec, Slope(num, den)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_knots_and_slopes())
def test_locate_matches_scan_on_wide_knots(case):
    spec, slope = case
    region = locate(spec, slope)
    expected = _region_by_scan(spec, slope)
    if isinstance(expected, tuple):
        assert (region.kind, region.index) == expected
    else:
        assert region.kind == expected


@st.composite
def _huge_knots_near_exceptional(draw):
    # p, q up to 10^6 (w up to about 10^12), and a slope within 1/(w*m) of
    # n/w for n <= 60, where the first intervals of influence sit.  The
    # halves of an interval are 1/(w*y) and 1/(w*(w-y)) wide for the upper
    # neighbor x/y of n/w, so m is drawn from 2 to 4w to reach inside both
    # and past them.  Drawn uniformly from a generator seeded by the draw,
    # since hypothesis' own integers crowd at the small end.
    rnd = Random(draw(st.integers(0, 2**64)))
    p = rnd.randint(2, 10**6 - 1)
    q = rnd.randint(p + 1, 10**6)
    while gcd(p, q) != 1:
        q = rnd.randint(p + 1, 10**6)
    spec = TorusKnotSpec(p, q)
    w = spec.width
    n, m, d = rnd.randint(1, 60), rnd.randint(2, 4 * w), rnd.randint(-1, 1)
    return spec, normalize(n * m + d, w * m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_huge_knots_near_exceptional())
def test_locate_matches_scan_at_huge_widths(case):
    spec, slope = case
    region = locate(spec, slope)
    expected = _region_by_scan(spec, slope)
    if isinstance(expected, tuple):
        assert (region.kind, region.index) == expected
    else:
        assert region.kind == expected


def _slopes_in(lo, hi, max_den, closed=False):
    out = []
    for den in range(1, max_den + 1):
        for num in range(-(4 * max_den), 4 * max_den + 1):
            if gcd(abs(num), den) != 1:
                continue
            s = Slope(num, den)
            inside = lo.value < s.value < hi.value
            boundary = s == lo or s == hi
            if inside or (closed and boundary):
                out.append(s)
    return out


def test_pairing_minimality():
    # For outside slopes, the pairing with anything in the closed interval is
    # minimized only at the endpoints; lower-half slopes pair worse with the
    # upper half than with the upper endpoint.  Denominators up to 30.
    for spec, n in ((T25, 2), (T25, 4), (T34, 2)):
        iv = influence_interval(spec, n)
        inside_closed = _slopes_in(iv.lower, iv.center, 30, closed=True) + _slopes_in(
            iv.center, iv.upper, 30, closed=True
        )
        outside = [
            s
            for s in (
                Slope(a, b)
                for b in range(1, 13)
                for a in range(1, 40)
                if gcd(a, b) == 1
            )
            if s.value < iv.lower.value or s.value > iv.upper.value
        ]
        for rp in outside[::3]:
            floor_pair = min(intersect(rp, iv.upper), intersect(rp, iv.lower))
            for sp in inside_closed[::2]:
                pairing = intersect(rp, sp)
                assert pairing >= floor_pair
                if pairing == floor_pair:
                    assert sp in (iv.upper, iv.lower)
        lower_half = _slopes_in(iv.lower, iv.center, 25)
        upper_half = _slopes_in(iv.center, iv.upper, 25)
        for rp in lower_half:
            for sp in upper_half:
                assert intersect(rp, sp) > intersect(rp, iv.upper)


def test_nonthickenable_profile_examples():
    prof = nonthickenable_profile(T25, 3)
    assert (prof.n_k, prof.dividing_curves, prof.torus_count) == (3, 6, 2)
    prof = nonthickenable_profile(T25, 2)
    assert (prof.n_k, prof.dividing_curves, prof.torus_count) == (1, 2, 2)
    for spec in (T23, T25, T34):
        prof = nonthickenable_profile(spec, 1)
        assert (prof.n_k, prof.dividing_curves, prof.torus_count) == (1, 2, 1)


def test_census_influence_consistency():
    # slopes inside an upper influence interval count two extra tori
    for spec, n in ((T25, 2), (T25, 4), (T34, 3)):
        iv = influence_interval(spec, n)
        inside = mediant(iv.center, iv.upper)
        rec_in = tori_census(spec, inside)
        assert rec_in.torus_count == rec_in.standard_count + 2


def test_census_rejects_uncovered_slopes():
    with pytest.raises(ValueError):
        tori_census(T25, S("1/4"))  # below 1/w
    with pytest.raises(ValueError):
        tori_census(T25, S("2/7"))  # in (0, 1/w), not a reciprocal integer
    with pytest.raises(ValueError):
        tori_census(T23, S("1/2"))  # trefoil below the bands
    with pytest.raises(ValueError):
        tori_census(T25, S("-1/2"))  # negative reciprocal integer
    with pytest.raises(ValueError):
        tori_census(T25, S("-1/1"))  # the reciprocal integer -1 itself
    with pytest.raises(ValueError):
        tori_census(T25, S("1/0"))


def test_census_negative():
    rec = tori_census(T25, S("-2/3"))  # between -1 and -1/2, tb target -1
    assert rec.torus_count == rec.standard_count == 2 * (3 - (-2))
    assert "tb=-1" in rec.note


def test_census_matches_reciprocal_scan_over_both_signs():
    below_minus_one = above_one = 0
    for spec, signs in ((T25, (1, -1)), (T34, (1, -1)), (T57, (1, -1)), (T23, (-1,))):
        w = spec.width
        for den in range(1, 21):
            for num in (sign * a for sign in signs for a in range(1, 3 * den + 1)):
                if gcd(abs(num), den) != 1:
                    continue
                slope, v = Slope(num, den), Fraction(num, den)
                if (num > 0 and v < Fraction(1, w)) or num == -1:
                    with pytest.raises(ValueError):
                        tori_census(spec, slope)
                    continue
                rec = tori_census(spec, slope)
                if num == 1:  # the reciprocal integer 1/den
                    assert rec.torus_count == rec.standard_count == w - den + 1, (spec, slope)
                    assert f"tb={den}" in rec.note
                    continue
                t = _census_target_by_scan(v)
                assert rec.standard_count == 2 * (w - t + 1), (spec, slope)
                assert f"tb={t}" in rec.note, (spec, slope, rec.note)
                upper = locate(spec, slope).kind == INFLUENCE_UPPER
                extra = rec.torus_count - rec.standard_count
                assert extra == (2 if upper else 0), (spec, slope)
                below_minus_one += v < -1
                above_one += v > 1
    # the grid reaches v <= -1, where floor(b/a) is -1, and non-trefoil v > 1
    assert (below_minus_one, above_one) == (1024, 768)


def test_thickening_outcome_examples():
    out = thickening_outcome(T25, S("3/4"), 1, inside_index=2)
    assert out.kind == "thickens_partial" and out.limit == S("2/3")
    assert str(out) == "thickens to slope 2/3 (index 2) but no further"
    out = thickening_outcome(T25, S("-1/2"), 1, inside_index=2)
    assert out.kind == "thickens_to_max"
    out = thickening_outcome(T25, S("1/1"), 1, inside_index=3)
    assert out.kind == "thickens_to_max"
    out = thickening_outcome(T25, S("2/3"), 1, inside_index=2)
    assert out.kind == "non_thickenable" and str(out) == "non-thickenable"
    out = thickening_outcome(T25, S("1/1"), 3, inside_index=3)
    assert out.kind == "non_thickenable"
    # inside N_k with k == 1 or gcd(w, k) > 1 (w = 3), no interval of influence traps the slope
    for dividing, k in ((S("2/1"), 3), (S("-1/1"), 1)):
        out = thickening_outcome(T25, dividing, 1, inside_index=k)
        assert str(out) == "thickens to the standard neighborhood of the maximal-tb representative"
    # trefoil: band slopes trapped, negative and infinite slopes escape
    out = thickening_outcome(T23, S("7/2"), 1, inside_index=3)
    assert out.kind == "thickens_partial" and out.limit == S("3/1")
    out = thickening_outcome(T23, S("1/0"), 1, inside_index=3)
    assert out.kind == "thickens_to_max"


def test_thickening_outcome_rejects():
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("1/2"), 1, inside_index=2)  # not interior to N_2
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("3/4"), 1)  # influence slope needs context
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("2/3"), 1)  # exceptional slope needs context
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("0/1"), 1)
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("3/4"), 0, inside_index=2)
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("3/4"), 1, inside_index=0)
    with pytest.raises(ValueError):
        thickening_outcome(T25, S("1/1"), 4, inside_index=3)  # more curves than N_3 carries


def _kind_or_error(outcome, *args):
    try:
        return outcome(*args)
    except ValueError:
        return ValueError


def test_thickening_outcome_matches_circular_order():
    # The integer placements against the circular order and the edge scan's
    # upper neighbor, on 1/0 and every nonzero slope of the grid.
    checked = 0
    for spec in CRITERION_10_KNOTS[:5]:
        for dividing in grid_slopes(12)[1:]:
            for curve_pairs in range(1, 4):
                for k in range(1, 13):
                    args = spec, dividing, curve_pairs, k
                    got = _kind_or_error(lambda *a: thickening_outcome(*a).kind, *args)
                    assert got == _kind_or_error(_thickening_by_circular_order, *args), args
                    checked += 1
    assert checked == 32940


def test_thickening_outcome_without_context():
    assert thickening_outcome(T25, S("-5/7"), 1).kind == "thickens_to_max"
    assert thickening_outcome(T25, S("2/5"), 1).kind == "thickens_to_max"
    assert thickening_outcome(T25, S("3/5"), 1).kind == "thickens_to_max"  # lower half
    assert thickening_outcome(T25, S("1/1"), 1).kind == "thickens_to_max"  # e_3, fewer curves
