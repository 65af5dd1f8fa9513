"""Legendrian classification of cables of positive torus knots.

The classification of the (r, s)-cable (the curve of slope s/r on the
boundary of a tubular neighborhood) is generated by a finite list of
Legendrian knots together with a stabilization-equivalence model:

* ``peak`` generators form the *simple family*: all of their stabilizations
  merge freely, giving at most one class per lattice point.  That shared
  class is called *common* below.
* ``branch`` generators are protected: the words ``S_sign^x S_(-sign)^y``
  applied to a branch generator stay distinct from everything else while
  ``x`` does not exceed the generator's bound, and collapse into the common
  class as soon as it does.  ``y`` is never bounded.

Every Legendrian class is therefore either ``Common(rot, tb)`` or
``Branch(generator, x, y)`` with ``tb = tb_g - x - y`` and
``rot = rot_g + sign_g*(x - y)``.

``stabilize`` is the one transition rule of the model.  The mountain range
is the set of lattice points its words reach: ``mountain_range`` floods the
generator heads level by level and counts the distinct classes per point.
``classes_at`` is the solved form of the same lattice; it answers point
queries and is the flood's oracle in the tests.

Which generators occur depends only on where the cable slope falls relative
to the intervals of influence of the underlying knot; cables of the trefoil
additionally carry one protected pair per integer band below the slope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .farey import Slope, intersect, normalize
from .torus_knots import (
    INFLUENCE_LOWER,
    INFLUENCE_UPPER,
    LOW_RANGE,
    SIMPLE_MID,
    TREFOIL_BAND,
    Region,
    TorusKnotSpec,
    influence_interval,
    locate,
)

PEAK = "peak"
BRANCH_L = "branch_l"
BRANCH_K = "branch_k"


@dataclass(frozen=True)
class CableSpec:
    """The (r, s)-cable of a positive torus knot; slope s/r, s normalized >= 1."""

    knot: TorusKnotSpec
    r: int
    s: int

    def __post_init__(self):
        r, s = self.r, self.s
        if s < 0:
            r, s = -r, -s
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "s", s)
        if r == 0:
            raise ValueError("r must be nonzero (the longitude is not a cable)")
        if s == 0:
            raise ValueError("s must be nonzero (the meridian is not a cable)")
        if gcd(abs(r), s) != 1:
            raise ValueError("r and s must be coprime")

    @property
    def slope(self) -> Slope:
        return normalize(self.s, self.r)

    def __str__(self) -> str:
        return f"{self.knot}_({self.r},{self.s})"


@dataclass(frozen=True)
class Generator:
    """One generating Legendrian knot of the classification.

    ``sign`` and ``bound`` are carried by protected branches only.  The
    ``destabilizable`` flag is False exactly for the generators below
    maximal tb that the classification singles out as non-destabilizable.
    """

    kind: str
    tb: int
    rot: int
    sign: Optional[int] = None
    index: Optional[int] = None
    bound: Optional[int] = None
    destabilizable: bool = True

    def __post_init__(self):
        if (self.tb + self.rot) % 2 == 0:
            raise ValueError(f"tb + rot must be odd, got ({self.tb}, {self.rot})")
        if self.kind != PEAK and (self.sign not in (1, -1) or self.bound is None or self.bound < 0):
            raise ValueError("protected branches need a sign and a nonnegative bound")

    @property
    def protected(self) -> bool:
        return self.kind != PEAK

    @property
    def id(self) -> str:
        if self.kind == PEAK:
            return f"peak:{self.rot}"
        tag = "+" if self.sign == 1 else "-"
        if self.kind == BRANCH_L:
            return f"protected_l:{self.index}:{tag}"
        return f"protected_k:{tag}"


@dataclass(frozen=True)
class Common:
    """The single merged class of the simple family at a lattice point."""

    rot: int
    tb: int


@dataclass(frozen=True)
class Branch:
    """The protected class S_sign^x S_(-sign)^y of a branch generator."""

    gen: Generator
    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError("stabilization counts must be nonnegative")
        if self.x > self.gen.bound:
            raise ValueError("x exceeds the protection bound")

    @property
    def tb(self) -> int:
        return self.gen.tb - self.x - self.y

    @property
    def rot(self) -> int:
        return self.gen.rot + self.gen.sign * (self.x - self.y)


@dataclass(frozen=True)
class Parameters:
    """Derived quantities reported alongside a classification."""

    w: int
    n: Optional[int] = None
    k: Optional[int] = None
    e_n: Optional[Slope] = None
    e_n_a: Optional[Slope] = None
    e_n_c: Optional[Slope] = None
    c: Optional[int] = None
    c_prime: Optional[int] = None
    tb_max: int = 0


@dataclass(frozen=True)
class Classification:
    cable: CableSpec
    region: Region
    parameters: Parameters
    generators: tuple

    @property
    def tb_max(self) -> int:
        return self.parameters.tb_max

    @property
    def simple(self) -> bool:
        """Legendrian simple: no generator is protected."""
        return not self.branches

    @property
    def peaks(self) -> tuple:
        return tuple(g for g in self.generators if g.kind == PEAK)

    @property
    def branches(self) -> tuple:
        return tuple(g for g in self.generators if g.protected)


def bennequin_bound(cable: CableSpec) -> int:
    """Upper bound r*s - r + s*w for tb + |rot| coming from the Seifert genus."""
    return cable.r * cable.s - cable.r + cable.s * cable.knot.width


def _check_framing(cable: CableSpec) -> None:
    """Reject the (r,1)-cables with r < w: the underlying knot itself."""
    if cable.s == 1 and cable.r < cable.knot.width:
        raise ValueError(
            f"the ({cable.r},1)-cable is the underlying knot with a framing the cable "
            "formulas do not cover; only r >= width is supported for s = 1"
        )


def max_tb(cable: CableSpec) -> int:
    """Maximal Thurston-Bennequin invariant of the cable.

    The Bennequin bound in the low range 0 < s/r <= 1/w, where it is
    attained, and ``r*s`` everywhere else: ``classify(cable).tb_max``
    without building the generators.  Rejects the ``s = 1`` cables that
    :func:`classify` rejects.
    """
    _check_framing(cable)
    if locate(cable.knot, cable.slope).kind == LOW_RANGE:
        return bennequin_bound(cable)
    return cable.r * cable.s


def _peak_rots(r: int, s: int, k: int, w: int) -> list:
    """Rotation numbers of the maximal-tb peaks, sorted: the cables of the
    Legendrian torus knots L with ``tb(L) = k``, that is
    ``+/-(r - s*k) + s*rot(L)`` for ``rot(L)`` in ``k-w, k-w+2, ..., w-k``."""
    return sorted(
        {sign * (r - s * k) + s * rho for rho in range(k - w, w - k + 1, 2) for sign in (1, -1)}
    )


def classify(cable: CableSpec) -> Classification:
    """Full classification of the Legendrian representatives of the cable.

    ``tb_max`` is the Bennequin bound in the low range and ``r*s`` elsewhere,
    as :func:`max_tb` says.  The low range has one peak at rot 0.  Every
    other region, negative slopes and the trefoil bands included, has the
    one peak family of :func:`_peak_rots` with ``k = ceil(r/s)``: the peaks
    are cables of the Legendrian torus knots with ``tb(L) = k``.  Each
    region adds its ``protected_l`` pairs and at most one ``protected_k``
    pair, in that order and plus before minus, together with its own
    parameters.  The classification is simple exactly when no generator is
    protected.
    """
    knot, r, s = cable.knot, cable.r, cable.s
    w = knot.width
    slope = cable.slope
    _check_framing(cable)
    region = locate(knot, slope)
    rs = r * s
    tb_max = bennequin_bound(cable) if region.kind == LOW_RANGE else rs
    params = {}
    k_pair = None  # (tb, |rot|, bound, destabilizable) of the protected_k heads

    if region.kind == LOW_RANGE:
        gens = [Generator(PEAK, tb=tb_max, rot=0)]
    else:
        k = -(-r // s)  # ceil(r/s)
        gens = [Generator(PEAK, tb=rs, rot=i) for i in _peak_rots(r, s, k, w)]
    if region.kind == TREFOIL_BAND:
        n = region.index
        params.update(n=n, c=r - 1 if n >= 2 else None)
        gens += [
            Generator(BRANCH_L, tb=rs, rot=sign * (s - r), sign=sign, index=j, bound=r - 1)
            for j in range(2, n + 1)
            for sign in (1, -1)
        ]
        if s != r * n:
            delta = r * (n + 1) - s
            params["c_prime"] = r - delta - 1
            k_pair = (rs - delta, r * n, params["c_prime"], False)
    elif region.kind in (SIMPLE_MID, INFLUENCE_UPPER, INFLUENCE_LOWER):
        params["k"] = k
        if region.kind != SIMPLE_MID:
            n = region.index
            iv = influence_interval(knot, n)
            pair_upper = intersect(slope, iv.upper)
            if region.kind == INFLUENCE_UPPER:
                params["c"] = pair_upper - 1
                k_pair = (rs, s * w - r, params["c"], True)
            else:  # INFLUENCE_LOWER
                pair_center = intersect(slope, iv.center)
                params["c"] = pair_upper - pair_center - 1
                k_pair = (rs - pair_center, r * (n - 1), params["c"], False)
            params.update(n=n, e_n=iv.center, e_n_a=iv.upper, e_n_c=iv.lower)

    if k_pair is not None:
        tb, rot, bound, destabilizable = k_pair
        gens += [
            Generator(
                BRANCH_K,
                tb=tb,
                rot=sign * rot,
                sign=sign,
                bound=bound,
                destabilizable=destabilizable,
            )
            for sign in (1, -1)
        ]
    return Classification(
        cable=cable,
        region=region,
        parameters=Parameters(w=w, tb_max=tb_max, **params),
        generators=tuple(gens),
    )


# -- the class model --------------------------------------------------------

def common_reachable(cls: Classification, rot: int, tb: int) -> bool:
    """Whether the merged simple-family class exists at the lattice point.

    The common class lives on the union of the downward cones of the peaks
    and of the first-collapse points of the protected branches.
    """
    if (rot + tb) % 2 == 0:
        return False
    for g in cls.generators:
        if g.kind == PEAK:
            apex_rot, apex_tb = g.rot, g.tb
        else:
            apex_rot = g.rot + g.sign * (g.bound + 1)
            apex_tb = g.tb - (g.bound + 1)
        if tb <= apex_tb and abs(rot - apex_rot) <= apex_tb - tb:
            return True
    return False


def classes_at(cls: Classification, rot: int, tb: int) -> list:
    """All distinct Legendrian classes at a lattice point."""
    if (rot + tb) % 2 == 0:
        return []
    found = []
    for g in cls.branches:
        twice_x = (g.tb - tb) + g.sign * (rot - g.rot)
        if twice_x % 2 or twice_x < 0:
            continue
        x = twice_x // 2
        y = (g.tb - tb) - x
        if y < 0 or x > g.bound:
            continue
        found.append(Branch(g, x, y))
    if common_reachable(cls, rot, tb):
        found.append(Common(rot, tb))
    return found


def count_classes(cls: Classification, rot: int, tb: int) -> int:
    """Number of Legendrian classes realizing (rot, tb)."""
    return len(classes_at(cls, rot, tb))


def stabilize(klass, sign: int):
    """Stabilize a class: tb drops by one, rot moves by ``sign``.

    A protected class whose bound would be exceeded collapses into the
    common class at the new lattice point.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if isinstance(klass, Common):
        return Common(klass.rot + sign, klass.tb - 1)
    if not isinstance(klass, Branch):
        raise TypeError(f"not a Legendrian class: {klass!r}")
    if sign == klass.gen.sign:
        if klass.x + 1 > klass.gen.bound:
            return Common(klass.rot + sign, klass.tb - 1)
        return Branch(klass.gen, klass.x + 1, klass.y)
    return Branch(klass.gen, klass.x, klass.y + 1)


def destabilizes(cls: Classification, klass) -> bool:
    """Whether some class one level up stabilizes onto this one."""
    rot = klass.rot
    tb = klass.tb
    for sign in (1, -1):
        for cand in classes_at(cls, rot - sign, tb + 1):
            if stabilize(cand, sign) == klass:
                return True
    return False


@dataclass(frozen=True, eq=False)
class MountainRange:
    """Class counts per (rot, tb) lattice point, down to a tb floor."""

    tb_floor: int
    tb_max: int
    counts: dict

    def count(self, rot: int, tb: int) -> int:
        return self.counts.get((rot, tb), 0)


def mountain_range(cls: Classification, tb_floor: int) -> MountainRange:
    """All nonzero class counts with tb between the floor and the maximum.

    The classes are flooded from the generator heads: each level is every
    stabilization of the level above plus the heads at that tb, and a
    point's count is the number of distinct classes on it.  ``counts`` is
    keyed in (tb, rot) ascending order.
    """
    if tb_floor > cls.tb_max:
        raise ValueError(f"tb floor {tb_floor} exceeds the maximal tb {cls.tb_max}")
    heads = {}
    for g in cls.generators:
        heads.setdefault(g.tb, set()).add(Branch(g, 0, 0) if g.protected else Common(g.rot, g.tb))
    level, rows = set(), []
    for tb in range(cls.tb_max, tb_floor - 1, -1):
        level = {stabilize(c, sign) for c in level for sign in (1, -1)} | heads.get(tb, set())
        rows.append((tb, sorted(c.rot for c in level)))
    counts = {}
    while rows:  # the floor row first; each row is freed once copied
        tb, rots = rows.pop()
        counts.update(((rot, tb), n) for rot, n in Counter(rots).items())
    return MountainRange(tb_floor=tb_floor, tb_max=cls.tb_max, counts=counts)


def count_three_points(cls: Classification, tb_floor: int) -> list:
    """Lattice points carrying three classes, scanned down to the floor."""
    mr = mountain_range(cls, tb_floor)
    return sorted(pt for pt, c in mr.counts.items() if c == 3)


# -- invariants of curves on convex tori -------------------------------------

def divide_tb(r: int, s: int) -> int:
    """tb of an (r, s)-curve realized as a dividing-set-parallel divide."""
    if gcd(abs(r), abs(s)) != 1:
        raise ValueError("r and s must be coprime")
    return r * s


def ruling_tb(r: int, s: int, dividing: Slope, curve_pairs: int = 1) -> int:
    """tb of an (r, s)-ruling curve on a torus with the given dividing set."""
    if gcd(abs(r), abs(s)) != 1:
        raise ValueError("r and s must be coprime")
    if curve_pairs < 1:
        raise ValueError("curve_pairs must be a positive integer")
    slope = normalize(s, r)
    if slope == dividing:
        raise ValueError("ruling slope must differ from the dividing slope")
    return r * s - curve_pairs * intersect(slope, dividing)


def cable_rot(r: int, s: int, rot_meridian_disk: int, rot_seifert: int) -> int:
    """rot of an (r, s)-curve from the meridian disk and Seifert boundaries."""
    return r * rot_meridian_disk + s * rot_seifert
