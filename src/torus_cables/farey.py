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

from collections import namedtuple
from math import gcd


def _fraction(num: int, den: int):
    # Rebinds itself to fractions.Fraction on the first call, so that only a
    # caller that asks for a numeric value pays for importing fractions.
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(num, den)


# -- immutable value types ----------------------------------------------------

def _blocked(self, other):
    raise TypeError(f"{type(self).__name__} values are not ordered, added or repeated")


class _DataclassFields:
    """``__dataclass_fields__`` built on first use, so that
    ``dataclasses.replace`` and ``dataclasses.fields`` accept every value
    type while no command imports ``dataclasses``."""

    def __get__(self, obj, owner):
        from dataclasses import make_dataclass

        fields = make_dataclass(owner.__name__, owner._fields).__dataclass_fields__
        owner.__dataclass_fields__ = fields  # later lookups skip this descriptor
        return fields


class _Value(tuple):
    """The tuple of a value's fields; see :func:`frozen`."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()
    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _blocked
    __add__ = __radd__ = __mul__ = __rmul__ = _blocked

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # NotImplemented would let tuple.__eq__ answer for a plain tuple.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return tuple(self)


def frozen(cls):
    """Rebuild an annotated class as an immutable tuple of its fields.

    It behaves as under ``@dataclass(frozen=True)``: the annotations, in
    order, are the fields and class-level values their defaults;
    ``__post_init__`` checks run on construction; the repr reads
    ``Name(field=value, ...)``; a value equals only a value of its own class
    with equal fields, and hashes as the tuple of its fields.  Attributes
    cannot be set or deleted, and ordering, ``+`` and ``*`` raise
    ``TypeError``.  ``collections.namedtuple`` supplies the constructor,
    with keywords and defaults, and the field accessors; a class that
    normalizes its fields defines ``__new__`` itself.
    """
    ns = dict(cls.__dict__)
    names = tuple(ns["__annotations__"])
    fields = namedtuple(cls.__name__, names, defaults=[ns.pop(n) for n in names if n in ns])
    for name in ("__dict__", "__weakref__"):
        ns.pop(name, None)
    ns.update({n: fields.__dict__[n] for n in names}, __slots__=(), _fields=names)
    for name in ("__new__", "__repr__"):
        ns.setdefault(name, fields.__dict__[name])
    check = ns.pop("__post_init__", None)
    if check is not None:
        ns["__init__"] = lambda self, *args, **kwargs: check(self)
    return type(cls.__name__, (_Value,), ns)


@frozen
class Slope:
    """A reduced slope num/den with den >= 0; den == 0 encodes infinity."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 0:
            raise ValueError("slope must be normalized with den >= 0")
        if self.den == 0 and self.num != 1:
            raise ValueError("infinite slope must be normalized to 1/0")
        if gcd(abs(self.num), self.den) != 1 and self.den != 0:
            raise ValueError(f"slope {self.num}/{self.den} is not reduced")

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def value(self):
        """Numeric value as a Fraction; raises for the infinite slope."""
        if self.den == 0:
            raise ValueError("infinite slope has no numeric value")
        return _fraction(self.num, self.den)

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


def normalize(num: int, den: int) -> Slope:
    """Canonical representative: gcd one, den >= 0, sign on the numerator."""
    if (num, den) == (0, 0):
        raise ValueError("0/0 is not a slope")
    if den == 0:
        return INFINITY
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    # Reduced with den > 0 by construction, so Slope's checks are skipped.
    return tuple.__new__(Slope, (num // g, den // g))


@frozen
class ContinuedFraction:
    """Minus-sign continued fraction a0 - 1/(a1 - 1/(... - 1/an)).

    Only canonical expansions exist: a0 >= 1 and ai >= 2 afterwards, the
    form :func:`cf_expand` produces.
    """

    coeffs: tuple

    def __new__(cls, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if not cs:
            raise ValueError("continued fraction needs at least one coefficient")
        if cs[0] < 1:
            raise ValueError("leading coefficient must be >= 1")
        if any(c < 2 for c in cs[1:]):
            raise ValueError("coefficients after the first must be >= 2")
        return tuple.__new__(cls, (cs,))

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


def edge_slopes(s: Slope, den_bound: int) -> list:
    """Every slope of denominator <= den_bound with an edge to a finite s.

    Scans the denominators and solves the edge condition for the numerator;
    ``1/0`` is included when ``s`` is an integer.
    """
    out = [INFINITY] if s.den == 1 else []
    for b in range(1, den_bound + 1):
        for e in (1, -1):
            top = s.num * b - e
            if top % s.den == 0:
                out.append(Slope(top // s.den, b))
    return out


def neighbors_oracle(u: Slope, den_bound: int) -> tuple:
    """Brute-force version of :func:`neighbors`, independent of the closed form.

    Every :func:`edge_slopes` of a positive ``u`` lies between 0/1 and 1/0,
    so the largest is the extreme one above ``u`` and the smallest below.
    """
    if not u.is_positive():
        raise ValueError(f"neighbors are defined for positive slopes, got {u}")
    if den_bound < u.den:
        raise ValueError("den_bound must be at least the denominator of u")
    found = edge_slopes(u, den_bound)
    keys = [circular_key(s) for s in found]  # one key per candidate
    return found[keys.index(max(keys))], found[keys.index(min(keys))]


def mediant(a: Slope, b: Slope) -> Slope:
    """Componentwise sum of two slopes, normalized."""
    n, d = a.num + b.num, a.den + b.den
    return normalize(n, d)


def farey_combine(a: Slope, b: Slope, m: int, n: int) -> Slope:
    """Weighted mediant m*a + n*b of an edge pair, lying strictly between."""
    if m < 1 or n < 1:
        raise ValueError("weights must be positive integers")
    if not is_edge(a, b):
        raise ValueError(f"{a} and {b} do not share a tessellation edge")
    num = m * a.num + n * b.num
    den = m * a.den + n * b.den
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
        return (2, 0)  # 1/0 is alone in its class
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
