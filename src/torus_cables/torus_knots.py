"""Exceptional slopes, influence intervals and the solid-torus census for a
positive torus knot.

For the (p, q)-torus knot with q > p > 1 the relevant constant is
``w = p*q - p - q`` (the contact width).  The exceptional slopes are
``k/w`` for positive integers ``k``; around each sits an interval of
influence bounded by its two extreme tessellation neighbors.  These
intervals control which solid tori representing the knot can be thickened
and which cables fail to be Legendrian simple.
"""

from __future__ import annotations

from math import gcd

from .farey import (
    Slope,
    ccw_strictly_between,
    frozen,
    neighbor_terms,
    neighbors,
    normalize,
)

LOW_RANGE = "low_range"
SIMPLE_MID = "simple_mid"
NEGATIVE = "negative"
INFLUENCE_UPPER = "influence_upper"
INFLUENCE_LOWER = "influence_lower"
TREFOIL_BAND = "trefoil_band"


@frozen
class TorusKnotSpec:
    """A positive (p, q)-torus knot, normalized so that q > p > 1."""

    p: int
    q: int

    def __new__(cls, p, q):
        if not (q > p > 1):
            raise ValueError("need q > p > 1")
        if gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")
        return tuple.__new__(cls, (p, q))

    @property
    def width(self) -> int:
        return self.p * self.q - self.p - self.q

    @property
    def is_trefoil(self) -> bool:
        return (self.p, self.q) == (2, 3)

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


def width(spec: TorusKnotSpec) -> int:
    """Contact width p*q - p - q."""
    return spec.width


def exceptional_slope(spec: TorusKnotSpec, k: int) -> Slope:
    """The k-th exceptional slope k/(pq - p - q), normalized."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return normalize(k, spec.width)


def exceptional_indices(spec: TorusKnotSpec, bound: int) -> frozenset:
    """Indices n in [2, bound] coprime to the width."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    w = spec.width
    return frozenset(n for n in range(2, bound + 1) if gcd(n, w) == 1)


@frozen
class InfluenceInterval:
    """Exceptional slope e with its extreme neighbors; J = (lower, upper) is
    the open interval of influence and I = [e, upper) its upper half."""

    index: int
    center: Slope
    upper: Slope
    lower: Slope

    def in_upper_half(self, slope: Slope) -> bool:
        """slope lies in the half-open interval I = [center, upper)."""
        if slope.is_infinite:
            return False
        v = slope.value
        if v < self.center.value:
            return False
        return self.upper.is_infinite or v < self.upper.value


def influence_interval(spec: TorusKnotSpec, n: int) -> InfluenceInterval:
    """Populated interval record around the n-th exceptional slope."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    e = exceptional_slope(spec, n)
    upper, lower = neighbors(e)
    return InfluenceInterval(index=n, center=e, upper=upper, lower=lower)


@frozen
class Region:
    """Location of a cable slope relative to the influence intervals."""

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind}({self.index})"


# The regions without an index, one value each.
_NEGATIVE, _LOW_RANGE, _SIMPLE_MID = Region(NEGATIVE), Region(LOW_RANGE), Region(SIMPLE_MID)


def locate(spec: TorusKnotSpec, slope: Slope) -> Region:
    """Classify a finite nonzero slope into its region.

    The regions partition the valid slopes: negative, low range
    (0 < slope <= 1/w), the two halves of each interval of influence with
    coprime index, and the simple middle range.  One floor division places
    a slope ``a/b`` above the low range: ``n = floor(a*w/b)`` gives
    ``n/w <= a/b < (n+1)/w``, so only the upper half of the n-th interval
    or the lower half of the (n+1)-th can hold it.  For the trefoil every
    integer index is exceptional and the intervals are nested, so positive
    slopes >= 1 are tagged by the integer band [n, n+1) they fall in,
    ``n = floor(a/b)``.

    Both half tests compare ``a/b`` with a neighbor of ``n/w`` or
    ``(n+1)/w`` read as integers from :func:`~torus_cables.farey.neighbor_terms`,
    so the call builds no slope and no interval, only the ``Region`` it
    returns; the three regions without an index are one shared value each.
    """
    a, b = slope.num, slope.den
    if b == 0 or a == 0:
        raise ValueError("cable slopes must be finite and nonzero")
    if a < 0:
        return _NEGATIVE
    if spec.is_trefoil:
        return Region(TREFOIL_BAND, a // b) if a >= b else _LOW_RANGE
    w = spec.width
    if a * w <= b:
        return _LOW_RANGE
    n = a * w // b
    if n >= 2 and gcd(n, w) == 1:
        x, y, _, _ = neighbor_terms(n, w)  # the upper neighbor x/y of n/w
        if a * y < x * b:
            return Region(INFLUENCE_UPPER, n)
    if gcd(n + 1, w) == 1:
        _, _, x, y = neighbor_terms(n + 1, w)  # the lower neighbor x/y of (n+1)/w
        if x * b < a * y:
            return Region(INFLUENCE_LOWER, n + 1)
    return _SIMPLE_MID


@frozen
class NonThickenableProfile:
    """Census of non-thickenable tori at the k-th exceptional slope."""

    index: int
    n_k: int
    dividing_curves: int
    torus_count: int


def nonthickenable_profile(spec: TorusKnotSpec, k: int) -> NonThickenableProfile:
    """There are two non-thickenable tori at slope k/w for k > 1 (one for
    k = 1), carrying 2*gcd(w, k) dividing curves."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    n_k = gcd(spec.width, k)
    return NonThickenableProfile(
        index=k,
        n_k=n_k,
        dividing_curves=2 * n_k,
        torus_count=1 if k == 1 else 2,
    )


@frozen
class CensusRecord:
    """Count of solid tori with two dividing curves of a given slope."""

    torus_count: int
    standard_count: int
    dividing_curve_pairs: int
    note: str

    def __new__(cls, torus_count, standard_count, dividing_curve_pairs, note):
        if standard_count > torus_count:
            raise ValueError("standard_count cannot exceed torus_count")
        return tuple.__new__(cls, (torus_count, standard_count, dividing_curve_pairs, note))


def tori_census(spec: TorusKnotSpec, slope: Slope) -> CensusRecord:
    """Count the solid tori representing the knot with two dividing curves
    of the given slope, and how many of them are (or thicken to) standard
    neighborhoods of Legendrian knots.

    One rule counts both signs: a slope ``a/b`` strictly between ``1/t``
    and ``1/(t-1)``, ``t = floor(b/a) + 1`` (``1/0`` is -infinity below and
    +infinity above), gives ``2*(w - t + 1)`` tori, each thickening to a
    standard neighborhood of a ``tb = t`` Legendrian knot, plus the two
    trapped at ``n/w`` in the upper half of the n-th interval of influence.
    ``1/t`` itself gives ``w - t + 1``; trefoil slopes > 1 count per band.
    Positive slopes below ``1/w``, ``-1/t`` and the trefoil's ``(0, 1]``
    are rejected rather than guessed.
    """
    if slope.is_infinite or slope.num == 0:
        raise ValueError("census slopes must be finite and nonzero")
    a, b = slope.num, slope.den
    w = spec.width
    if spec.is_trefoil and a > 0:
        if a <= b:
            raise ValueError(f"census for the trefoil covers slopes > 1 and negative slopes, not {slope}")
        n = a // b
        count, standard = 2 * n, 2
        note = f"band [{n},{n + 1}): two thicken to a standard neighborhood"
    elif a > 0 and a * w < b:
        raise ValueError(f"slope {slope} lies below 1/{w}; the census does not cover it")
    elif a == 1:
        count = standard = w - b + 1
        note = f"each is a standard neighborhood of a tb={b} representative"
    elif a == -1:
        raise ValueError(f"negative reciprocal-integer slope {slope} is not covered by the census")
    else:
        t = b // a + 1  # 1/t < slope < 1/(t-1)
        count = standard = 2 * (w - t + 1)
        region = locate(spec, slope)
        if region.kind == INFLUENCE_UPPER:
            count += 2
            note = (f"all but the two tori trapped at slope {exceptional_slope(spec, region.index)} "
                    f"thicken to standard neighborhoods of tb={t} representatives")
        else:
            note = f"each thickens to a standard neighborhood of a tb={t} representative"
            if a < 0:
                note += " (count by the basic-slice pairing)"
    return CensusRecord(
        torus_count=count,
        standard_count=standard,
        dividing_curve_pairs=1,
        note=note,
    )


THICKENS_TO_MAX = "thickens_to_max"
THICKENS_PARTIAL = "thickens_partial"
NON_THICKENABLE = "non_thickenable"


@frozen
class ThickeningOutcome:
    kind: str
    index: int | None = None
    limit: Slope | None = None

    def __str__(self) -> str:
        if self.kind == THICKENS_TO_MAX:
            return "thickens to the standard neighborhood of the maximal-tb representative"
        if self.kind == THICKENS_PARTIAL:
            return f"thickens to slope {self.limit} (index {self.index}) but no further"
        return "non-thickenable"


def thickening_outcome(
    spec: TorusKnotSpec,
    dividing: Slope,
    curve_pairs: int,
    inside_index: int | None = None,
) -> ThickeningOutcome:
    """Thickening behavior of a convex solid torus representing the knot.

    ``inside_index`` identifies a containing non-thickenable torus when
    that topological context is known; it cannot be recovered from the
    slope alone.  Without it, only slopes outside every upper-half interval
    of influence are decidable (they thicken maximally), and ambiguous
    inputs are rejected.
    """
    if curve_pairs < 1:
        raise ValueError("curve_pairs must be a positive integer")
    if dividing.num == 0:
        raise ValueError("the meridian is not a valid dividing slope")
    w = spec.width
    if inside_index is None:
        return _outcome_without_context(spec, dividing, curve_pairs)
    k = inside_index
    if k < 1:
        raise ValueError("inside_index must be a positive integer")
    e_k = exceptional_slope(spec, k)
    # Interior slopes of the containing torus run counterclockwise from its
    # dividing slope to the meridian.
    if dividing != e_k and not ccw_strictly_between(dividing, e_k, Slope(0, 1)):
        raise ValueError(
            f"inconsistent input: slope {dividing} cannot sit inside a torus of slope {e_k}"
        )
    n_k = gcd(w, k)
    if dividing == e_k:
        if curve_pairs == n_k:
            return ThickeningOutcome(NON_THICKENABLE, index=k, limit=e_k)
        if curve_pairs < n_k:
            return ThickeningOutcome(THICKENS_TO_MAX)
        raise ValueError(
            f"torus at slope {e_k} with {2 * curve_pairs} dividing curves is outside the classified cases"
        )
    if k == 1 or n_k > 1:
        return ThickeningOutcome(THICKENS_TO_MAX)
    iv = influence_interval(spec, k)
    if iv.in_upper_half(dividing):
        return ThickeningOutcome(THICKENS_PARTIAL, index=k, limit=e_k)
    return ThickeningOutcome(THICKENS_TO_MAX)


def _outcome_without_context(spec, dividing, curve_pairs):
    w = spec.width
    if dividing.is_positive():
        k, rem = divmod(dividing.num * w, dividing.den)
        if rem == 0 and curve_pairs == gcd(w, k):  # dividing = k/w
            raise ValueError(
                f"slope {dividing} with {2 * curve_pairs} dividing curves may or may not "
                "thicken; supply the containing torus index"
            )
        if locate(spec, dividing).kind in (INFLUENCE_UPPER, TREFOIL_BAND):
            raise ValueError(
                f"slope {dividing} lies in an interval of influence; the outcome "
                "depends on the containing torus, supply its index"
            )
    return ThickeningOutcome(THICKENS_TO_MAX)
