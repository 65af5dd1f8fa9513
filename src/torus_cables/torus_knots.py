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

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .farey import (
    Slope,
    ccw_strictly_between,
    neighbors,
    normalize,
    slope_floor,
)

LOW_RANGE = "low_range"
SIMPLE_MID = "simple_mid"
NEGATIVE = "negative"
INFLUENCE_UPPER = "influence_upper"
INFLUENCE_LOWER = "influence_lower"
TREFOIL_BAND = "trefoil_band"


@dataclass(frozen=True)
class TorusKnotSpec:
    """A positive (p, q)-torus knot, normalized so that q > p > 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (self.q > self.p > 1):
            raise ValueError("need q > p > 1")
        if gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Region:
    """Location of a cable slope relative to the influence intervals."""

    kind: str
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind}({self.index})"


def locate(spec: TorusKnotSpec, slope: Slope) -> Region:
    """Classify a finite nonzero slope into its region.

    The regions partition the valid slopes: negative, low range
    (0 < slope <= 1/w), the two halves of each interval of influence with
    coprime index, and the simple middle range.  For the trefoil every
    integer index is exceptional and the intervals are nested, so positive
    slopes >= 1 are tagged by the integer band [n, n+1) they fall in.
    """
    if slope.is_infinite or slope.num == 0:
        raise ValueError("cable slopes must be finite and nonzero")
    if slope.is_negative():
        return Region(NEGATIVE)
    if spec.is_trefoil:
        if slope.value >= 1:
            return Region(TREFOIL_BAND, slope_floor(slope))
        return Region(LOW_RANGE)
    w = spec.width
    if slope.value <= exceptional_slope(spec, 1).value:
        return Region(LOW_RANGE)
    scaled = slope.value * w
    lo = scaled.numerator // scaled.denominator
    for n in {lo, lo + 1}:
        if n < 2 or gcd(n, w) != 1:
            continue
        iv = influence_interval(spec, n)
        if iv.in_upper_half(slope):
            return Region(INFLUENCE_UPPER, n)
        if iv.lower.value < slope.value < iv.center.value:
            return Region(INFLUENCE_LOWER, n)
    return Region(SIMPLE_MID)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CensusRecord:
    """Count of solid tori with two dividing curves of a given slope."""

    torus_count: int
    standard_count: int
    dividing_curve_pairs: int
    note: str

    def __post_init__(self):
        if self.standard_count > self.torus_count:
            raise ValueError("standard_count cannot exceed torus_count")


def tori_census(spec: TorusKnotSpec, slope: Slope) -> CensusRecord:
    """Count the solid tori representing the knot with two dividing curves
    of the given slope, and how many of them are (or thicken to) standard
    neighborhoods of Legendrian knots.

    Covered slopes: trefoil slopes > 1; general slopes >= 1/w split into the
    reciprocal-integer case, the generic case, and the influence case; and
    negative slopes strictly between consecutive reciprocal integers.
    Anything else is rejected rather than guessed.
    """
    if slope.is_infinite or slope.num == 0:
        raise ValueError("census slopes must be finite and nonzero")
    w = spec.width
    if spec.is_trefoil:
        if slope.value > 1:
            n = slope_floor(slope)
            return CensusRecord(
                torus_count=2 * n,
                standard_count=2,
                dividing_curve_pairs=1,
                note=f"band [{n},{n + 1}): two thicken to a standard neighborhood",
            )
        if slope.is_negative():
            return _negative_census(spec, slope)
        raise ValueError(f"census for the trefoil covers slopes > 1 and negative slopes, not {slope}")
    if slope.is_negative():
        return _negative_census(spec, slope)
    # positive slope, general knot
    if slope.num == 1:
        n = slope.den
        if n > w:
            raise ValueError(f"slope {slope} lies below 1/{w}; the census does not cover it")
        count = w - n + 1
        return CensusRecord(
            torus_count=count,
            standard_count=count,
            dividing_curve_pairs=1,
            note=f"each is a standard neighborhood of a tb={n} representative",
        )
    if slope.value < Slope(1, w).value:
        raise ValueError(f"slope {slope} lies below 1/{w}; the census does not cover it")
    # 1/n < slope < 1/(n-1) with n >= 1 (n = 1 meaning slope > 1)
    recip = 1 / slope.value
    n = recip.numerator // recip.denominator + 1
    base = 2 * (w - n + 1)
    region = locate(spec, slope)
    if region.kind == INFLUENCE_UPPER:
        return CensusRecord(
            torus_count=base + 2,
            standard_count=base,
            dividing_curve_pairs=1,
            note=f"all but the two tori trapped at slope {exceptional_slope(spec, region.index)} "
            f"thicken to standard neighborhoods of tb={n} representatives",
        )
    return CensusRecord(
        torus_count=base,
        standard_count=base,
        dividing_curve_pairs=1,
        note=f"each thickens to a standard neighborhood of a tb={n} representative",
    )


def _negative_census(spec: TorusKnotSpec, slope: Slope) -> CensusRecord:
    # slope strictly between 1/(n+1) and 1/n for a negative integer n; the
    # count pairs two basic slices with each Legendrian class of tb = n + 1.
    w = spec.width
    v = slope.value
    n = -1 if v <= -1 else v.denominator // v.numerator  # floor(1/v) on (-1, 0)
    if 1 / v == n:
        raise ValueError(f"negative reciprocal-integer slope {slope} is not covered by the census")
    count = 2 * (w - n)
    return CensusRecord(
        torus_count=count,
        standard_count=count,
        dividing_curve_pairs=1,
        note=f"each thickens to a standard neighborhood of a tb={n + 1} representative "
        "(count by the basic-slice pairing)",
    )


THICKENS_TO_MAX = "thickens_to_max"
THICKENS_PARTIAL = "thickens_partial"
NON_THICKENABLE = "non_thickenable"


@dataclass(frozen=True)
class ThickeningOutcome:
    kind: str
    index: Optional[int] = None
    limit: Optional[Slope] = None

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
    inside_index: Optional[int] = None,
    inside_sign: int = 1,
) -> ThickeningOutcome:
    """Thickening behavior of a convex solid torus representing the knot.

    ``inside_index``/``inside_sign`` identify a containing non-thickenable
    torus when that topological context is known; it cannot be recovered
    from the slope alone.  Without it, only slopes outside every upper-half
    interval of influence are decidable (they thicken maximally), and
    ambiguous inputs are rejected.
    """
    if curve_pairs < 1:
        raise ValueError("curve_pairs must be a positive integer")
    if dividing.num == 0:
        raise ValueError("the meridian is not a valid dividing slope")
    if inside_sign not in (1, -1):
        raise ValueError("inside_sign must be +1 or -1")
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
    if dividing.is_positive() and not dividing.is_infinite:
        scaled = dividing.value * w
        if scaled.denominator == 1:
            k = scaled.numerator
            if curve_pairs == gcd(w, k):
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
