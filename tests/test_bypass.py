from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torus_cables.bypass import (
    BACK,
    FRONT,
    TorusState,
    attach_bypass,
    attach_bypass_oracle,
)
from torus_cables.farey import Slope, ccw_strictly_between, extreme_neighbors, is_edge, normalize

from oracles import S, grid_slopes


def st_(d, r):
    return TorusState(dividing=S(d), ruling=S(r))


# Frozen anchors, computed with the brute-force arc search first.
FROZEN = [
    ("1/2", "0/1", FRONT, "1/3"),
    ("1/2", "0/1", BACK, "1/1"),
    ("2/3", "1/1", FRONT, "1/2"),
    # Under the arc convention fixed here, the back attachment at this
    # state lands on 3/4 (the front one gives 1/2); both values frozen.
    ("2/3", "1/1", BACK, "3/4"),
    ("1/0", "0/1", FRONT, "1/1"),
    ("1/0", "0/1", BACK, "-1/1"),
    ("3/2", "1/2", FRONT, "1/1"),
]


@pytest.mark.parametrize("dividing,ruling,side,expected", FROZEN)
def test_frozen_values(dividing, ruling, side, expected):
    state = st_(dividing, ruling)
    assert attach_bypass(state, side) == S(expected)
    assert attach_bypass_oracle(state, side, 12) == S(expected)


def test_rejects_bad_state():
    with pytest.raises(ValueError):
        TorusState(dividing=S("1/2"), ruling=S("1/2"))
    with pytest.raises(ValueError):
        attach_bypass(st_("1/2", "0/1"), "sideways")


def test_oracle_without_candidates_raises():
    # 2/9 has no edge to a slope of denominator 1.
    with pytest.raises(ValueError, match=r"^no candidate on the arc; raise den_bound$"):
        attach_bypass_oracle(st_("2/9", "0/1"), FRONT, 1)


def test_result_is_edge_on_the_arc():
    for dividing in grid_slopes(6):
        for ruling in grid_slopes(6):
            if dividing == ruling:
                continue
            state = TorusState(dividing, ruling)
            for side in (FRONT, BACK):
                new = attach_bypass(state, side)
                assert is_edge(new, dividing)
                if side == FRONT:
                    assert ccw_strictly_between(new, ruling, dividing)
                else:
                    assert ccw_strictly_between(new, dividing, ruling)


@given(
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda t: t != (0, 0)),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)).filter(lambda t: t != (0, 0)),
)
@settings(max_examples=80, derandomize=True)
def test_oracle_equivalence_random(pd, pr):
    dividing, ruling = normalize(*pd), normalize(*pr)
    if dividing == ruling:
        return
    state = TorusState(dividing, ruling)
    for side in (FRONT, BACK):
        assert attach_bypass(state, side) == attach_bypass_oracle(state, side, 45)


@st.composite
def deep_family_states(draw):
    # A dividing slope with denominator up to 200 and a ruling slope a few
    # Farey steps away: first deep into one of its two neighbor families,
    # then up to two short steps on, so the answer lies at a large k.
    q = draw(st.integers(1, 200))
    p = draw(st.integers(-3 * q, 3 * q).filter(lambda p: gcd(p, q) == 1))
    dividing = ruling = Slope(p, q)
    for kmax in [50] + [2] * draw(st.integers(0, 2)):
        if ruling.is_infinite:
            break
        base = draw(st.sampled_from(extreme_neighbors(ruling)))
        k = draw(st.integers(0, kmax))
        ruling = normalize(base.num + k * ruling.num, base.den + k * ruling.den)
    assume(ruling != dividing)
    return TorusState(dividing, ruling)


@given(deep_family_states())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_oracle_equivalence_deep_in_a_family(state):
    den_bound = state.ruling.den + 2 * state.dividing.den + 2
    for side in (FRONT, BACK):
        assert attach_bypass(state, side) == attach_bypass_oracle(state, side, den_bound)


def test_repeated_front_attachment_walks_toward_the_ruling():
    # Iterating the front rule moves the dividing slope monotonically toward
    # the ruling slope in arc order and settles among its edge-neighbors.
    for d, r in [("3/2", "1/2"), ("5/3", "0/1"), ("1/2", "2/1"), ("-1/3", "1/1")]:
        ruling = S(r)
        current = S(d)
        previous = None
        for _ in range(8):
            new = attach_bypass(TorusState(current, ruling), FRONT)
            if previous is not None:
                # strictly closer to the ruling than the previous dividing slope
                assert ccw_strictly_between(new, ruling, current)
            previous, current = current, new
        assert is_edge(current, ruling)


def test_infinite_dividing_slope_cases():
    assert attach_bypass(st_("1/0", "3/2"), FRONT) == S("2/1")
    assert attach_bypass(st_("1/0", "-3/2"), FRONT) == S("-1/1")
    assert attach_bypass_oracle(st_("1/0", "3/2"), FRONT, 20) == S("2/1")
