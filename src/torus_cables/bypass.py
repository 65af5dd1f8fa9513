"""Dividing-slope dynamics of a bypass attached to a standard convex torus.

For a torus with two dividing curves of slope ``s`` and ruling curves of
slope ``r``, a bypass attached to the front along a ruling curve replaces
``s`` by the slope on the counterclockwise arc from ``r`` to ``s`` that is
closest to ``r`` (in arc order) among slopes sharing a tessellation edge
with ``s``; the ruling slope itself is excluded.  A bypass attached to the
back obeys the same rule on the arc from ``s`` to ``r``.

The slopes sharing an edge with a finite ``s`` form two families,
``upper + k*s`` and ``lower + k*s`` for k >= 0, where ``upper`` and
``lower`` are the extreme neighbors of ``s``.  Walking counterclockwise from
``s`` the first family falls to ``upper``, there is a gap up to ``lower``,
and the second family rises back to ``s``.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

from .farey import Slope, ccw_strictly_between, circular_key, edge_slopes, extreme_neighbors, frozen

FRONT = "front"
BACK = "back"
SIDES = (FRONT, BACK)


@frozen
class TorusState:
    """Standard convex torus with two dividing curves: dividing slope and
    ruling slope."""

    dividing: Slope
    ruling: Slope

    def __post_init__(self):
        if self.dividing == self.ruling:
            raise ValueError("ruling slope must differ from the dividing slope")


def _check(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _first_neighbor_ccw_after(s: Slope, r: Slope) -> Slope:
    """First slope with an edge to s met strictly after r, walking ccw."""
    if s.is_infinite:
        # Neighbors of the infinite slope are the integer slopes.
        return Slope(r.num // r.den + 1, 1)
    upper, lower = extreme_neighbors(s)
    # Signs of s - r, lower - r and upper - r for a finite r = a/b; an
    # infinite r fails both tests below and falls through to lower.
    p, q, a, b = s.num, s.den, r.num, r.den
    d = p * b - a * q
    lo = lower.num * b - a * lower.den
    hi = upper.num * b - a * upper.den
    if d > 0 and lo <= 0:
        # lower <= r < s: the first k with lower + k*s above r.
        k = -lo // d + 1
        return Slope(lower.num + k * p, lower.den + k * q)
    if d < 0 and hi > 0:
        # s < r < upper: the last k with upper + k*s above r.
        k = (hi - 1) // -d
        return Slope(upper.num + k * p, upper.den + k * q)
    return lower


def attach_bypass(state: TorusState, side: str) -> Slope:
    """New dividing slope after attaching one bypass along a ruling curve."""
    _check(side)
    s, r = state.dividing, state.ruling
    if side == FRONT:
        return _first_neighbor_ccw_after(s, r)
    # The back rule is the front rule in the mirrored circular order, and
    # negating every slope reverses that order.
    return -_first_neighbor_ccw_after(-s, -r)


@lru_cache(maxsize=4096)
def _edge_candidates(s: Slope, den_bound: int, ruling_window: int) -> tuple:
    # The edge_slopes of s, sorted by circular position.  For an infinite
    # dividing slope the edge condition forces integer candidates, windowed
    # around the ruling slope.
    if s.is_infinite:
        found = [Slope(a, 1) for a in range(-ruling_window, ruling_window + 1)]
    else:
        found = edge_slopes(s, den_bound)
    found.sort(key=circular_key)
    return tuple(map(circular_key, found)), tuple(found)


def attach_bypass_oracle(state: TorusState, side: str, den_bound: int) -> Slope:
    """Brute-force search over all slopes of denominator <= den_bound.

    Enumerates every slope satisfying the edge condition with the dividing
    slope, orders the candidates along the circle, and walks the attachment
    arc away from the ruling slope; the first candidate strictly inside the
    arc is by definition the arc-closest one.
    """
    _check(side)
    if den_bound < 1:
        raise ValueError("den_bound must be positive")
    s, r = state.dividing, state.ruling
    window = den_bound + (abs(r.num // r.den) + 2 if s.is_infinite else 0)
    keys, slopes = _edge_candidates(s, den_bound, window)
    kr = circular_key(r)
    if side == FRONT:
        # first candidate counterclockwise after the ruling slope
        j, arc = bisect.bisect_right(keys, kr), (r, s)
    else:
        # first candidate clockwise after (counterclockwise before) the ruling
        j, arc = bisect.bisect_left(keys, kr) - 1, (s, r)
    if slopes and ccw_strictly_between(slopes[j % len(slopes)], *arc):
        return slopes[j % len(slopes)]
    raise ValueError("no candidate on the arc; raise den_bound")
