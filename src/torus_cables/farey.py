"""Exact slope arithmetic on the torus and the Farey tessellation.

A slope is a reduced fraction num/den describing an essential curve on a
torus: ``num`` counts longitudes, ``den`` counts meridians, and ``1/0``
stands for the infinite slope.  Two slopes are joined by an edge of the
Farey tessellation exactly when their pairing ``|num_a*den_b - num_b*den_a|``
equals one.

The circular order used throughout the package places 0 at the start,
positive slopes increasing counterclockwise through the infinite slope, and
the negative slopes continuing from -infinity back around to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True, order=False)
class Slope:
    """A reduced slope num/den with den >= 0; den == 0 encodes infinity."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 0:
            raise ValueError("slope must be normalized with den >= 0")
        if self.den == 0 and self.num != 1:
            raise ValueError("infinite slope must be normalized to 1/0")
        if (self.num, self.den) == (0, 0):
            raise ValueError("0/0 is not a slope")
        if gcd(abs(self.num), self.den) != 1 and self.den != 0:
            raise ValueError(f"slope {self.num}/{self.den} is not reduced")

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def value(self) -> Fraction:
        """Numeric value; raises for the infinite slope."""
        if self.den == 0:
            raise ValueError("infinite slope has no numeric value")
        return Fraction(self.num, self.den)

    def is_positive(self) -> bool:
        return self.den > 0 and self.num > 0

    def is_negative(self) -> bool:
        return self.den > 0 and self.num < 0

    def __neg__(self) -> "Slope":
        if self.den == 0:
            return self
        return normalize(-self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "5/3", "-1/2", "7" or "inf" into a normalized slope."""
        t = text.strip()
        if t in ("inf", "Inf", "INF", "oo"):
            return INFINITY
        if "/" in t:
            a, b = t.split("/", 1)
            return normalize(int(a), int(b))
        return normalize(int(t), 1)


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def normalize(num: int, den: int) -> Slope:
    """Canonical representative: gcd one, den >= 0, sign on the numerator."""
    if (num, den) == (0, 0):
        raise ValueError("0/0 is not a slope")
    if den == 0:
        return INFINITY
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    return Slope(num // g, den // g)


@dataclass(frozen=True)
class ContinuedFraction:
    """Minus-sign continued fraction a0 - 1/(a1 - 1/(... - 1/an)).

    Only canonical expansions exist: a0 >= 1 and ai >= 2 afterwards, the
    form :func:`cf_expand` produces.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if not cs:
            raise ValueError("continued fraction needs at least one coefficient")
        if cs[0] < 1:
            raise ValueError("leading coefficient must be >= 1")
        if any(c < 2 for c in cs[1:]):
            raise ValueError("coefficients after the first must be >= 2")

    def __str__(self) -> str:
        head = str(self.coeffs[0])
        if len(self.coeffs) == 1:
            return f"[{head}]"
        return f"[{head}; " + ", ".join(str(c) for c in self.coeffs[1:]) + "]"


def cf_expand(u: Slope) -> ContinuedFraction:
    """Expand a finite positive slope by the greedy ceiling algorithm."""
    if not u.is_positive():
        raise ValueError(f"continued fractions are defined for positive slopes, got {u}")
    a, b = u.num, u.den
    coeffs = []
    while True:
        q = -((-a) // b)  # ceil(a/b)
        coeffs.append(q)
        rem = q * b - a
        if rem == 0:
            break
        a, b = b, rem
    return ContinuedFraction(tuple(coeffs))


def cf_eval(cf: ContinuedFraction) -> Slope:
    """Evaluate a continued fraction back to an exact slope."""
    num, den = cf.coeffs[-1], 1
    for a in reversed(cf.coeffs[:-1]):
        # x -> a - 1/x, with x = num/den
        num, den = a * num - den, num
    return normalize(num, den)


def extreme_neighbors(s: Slope) -> tuple:
    """:func:`neighbors` for every finite slope, negative and 0/1 included.

    Every other neighbor of ``s`` is ``upper + k*s`` or ``lower + k*s``
    (componentwise) for some k >= 1.
    """
    if s.is_infinite:
        raise ValueError("the infinite slope has no extreme neighbors")
    p, q = s.num, s.den
    y = -pow(p, -1, q) % q
    upper = Slope((p * y + 1) // q, y) if y else INFINITY
    return upper, Slope(p - upper.num, q - upper.den)


def neighbors(u: Slope) -> tuple:
    """The two extreme tessellation neighbors of a finite positive slope.

    Returns ``(upper, lower)``: the largest slope above ``u`` sharing an edge
    with it (infinite when ``u`` is an integer) and the smallest slope below.
    ``u`` is the mediant of the two, and they share an edge with each other.
    Closed form, for ``u = p/q``: with ``y = (-p^-1) mod q``,
    ``upper = ((p*y + 1)/q) / y`` (infinite when ``q == 1``) and
    ``lower = u - upper`` componentwise.
    """
    if not u.is_positive():
        raise ValueError(f"neighbors are defined for positive slopes, got {u}")
    return extreme_neighbors(u)


def neighbors_oracle(u: Slope, den_bound: int) -> tuple:
    """Brute-force version of :func:`neighbors`.

    Scans every denominator up to ``den_bound`` (plus the infinite slope),
    solves the edge condition for the numerator, and keeps the extreme
    neighbor on each side of ``u``: the largest above and the smallest below.
    Independent of the closed form.
    """
    if not u.is_positive():
        raise ValueError(f"neighbors are defined for positive slopes, got {u}")
    if den_bound < u.den:
        raise ValueError("den_bound must be at least the denominator of u")
    best_above = None
    best_below = None
    for b in range(1, den_bound + 1):
        for e in (1, -1):
            top = u.num * b - e
            if top % u.den:
                continue
            t = normalize(top // u.den, b)
            if e == 1:  # t < u
                if best_below is None or t.value < best_below.value:
                    best_below = t
            else:  # t > u
                if best_above is None or t.value > best_above.value:
                    best_above = t
    if u.den == 1:
        best_above = INFINITY  # tops every finite neighbor
    return best_above, best_below


def mediant(a: Slope, b: Slope) -> Slope:
    """Componentwise sum of two slopes, normalized."""
    n, d = a.num + b.num, a.den + b.den
    if (n, d) == (0, 0):
        raise ValueError(f"mediant of {a} and {b} degenerates to 0/0")
    return normalize(n, d)


def farey_combine(a: Slope, b: Slope, m: int, n: int) -> Slope:
    """Weighted mediant m*a + n*b of an edge pair, lying strictly between."""
    if m < 1 or n < 1:
        raise ValueError("weights must be positive integers")
    if not is_edge(a, b):
        raise ValueError(f"{a} and {b} do not share a tessellation edge")
    num = m * a.num + n * b.num
    den = m * a.den + n * b.den
    if (num, den) == (0, 0):
        raise ValueError("combination degenerates to 0/0")
    return normalize(num, den)


def intersect(a: Slope, b: Slope) -> int:
    """Minimal geometric intersection number of the two curves."""
    return abs(a.num * b.den - b.num * a.den)


def is_edge(a: Slope, b: Slope) -> bool:
    """True when the slopes are joined by an edge of the tessellation."""
    return intersect(a, b) == 1


# -- circular order ---------------------------------------------------------

def circular_key(s: Slope) -> tuple:
    """Sort key realizing the counterclockwise order 0, positives, inf, negatives."""
    if s.den == 0:
        return (2, Fraction(0))
    v = s.value
    if v == 0:
        return (0, v)
    return (1, v) if v > 0 else (3, v)


def ccw_strictly_between(x: Slope, a: Slope, b: Slope) -> bool:
    """True when x lies strictly inside the counterclockwise arc from a to b."""
    if a == b:
        raise ValueError("arc endpoints must differ")
    ka, kx, kb = circular_key(a), circular_key(x), circular_key(b)
    if kx == ka or kx == kb:
        return False
    if ka < kb:
        return ka < kx < kb
    return kx > ka or kx < kb
