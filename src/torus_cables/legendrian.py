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

The common class lives exactly on the union of the peaks' downward cones,
the points ``(rot, tb)`` with ``|rot - peak| <= tb_max - tb``.  A collapse
never adds a point to it: every protected head lies in some peak's cone,
and the point a branch collapses onto lies in its head's own cone, which
nests in that peak's (the reasons, region by region, are on
:class:`Classification`).

The peaks all sit at ``tb_max`` and their rots form at most two arithmetic
progressions, so a :class:`Classification` stores them as those
progressions, ``peaks``, one or two ``range`` objects, next to its protected
``branches``: it holds the same few numbers at any width.  The queries read
the progressions, so their cost does not grow with the width; ``peak_rots``
and ``generators`` expand them, on each access, for the callers that list
every peak.  A peak needs ``tb + rot`` odd, and a progression's step ``2s``
is even, so ``generators`` checks that parity once per progression and
builds the peaks past ``Generator``'s own check, with ``map`` and ``zip``
and the cyclic garbage collector paused.  The peaks hold no reference that
could close a cycle, so no collector pass could free one, and reference
counting frees them; the pause is process-wide for the one build, so a
``gc.disable()`` that another thread makes during it is undone when the
build ends.

``stabilize`` is the one transition rule of the model, and the mountain
range is the set of lattice points its words reach.  ``classes_at`` is the
solved form of that lattice at one point; ``mountain_range`` builds each
row from the same solved form as a union of parity-stepped intervals, so
its work grows with the rows and the cells, not with the words.  The peaks
are two interleaved progressions (see :func:`_peak_rots`), so the gap after
a peak depends only on the parity of its place.  The cones of two
neighboring peaks merge once the depth reaches half their gap less one, so
the open parities give each row's peak intervals one of three forms: one
interval, the pairs across the smaller gap, or every peak alone.  A row
costs its intervals and branches, not every peak.  The sweep keeps each
row as its runs of equal count, ``MountainRange.runs``, and the per-cell
``counts`` is expanded from the runs once the sweep is done; the renderer
walks the runs.
``destabilizes`` reads from the same solved form whether a class has a
predecessor one level up.  No function here applies ``stabilize``; the
oracles in ``tests/oracles.py`` do.  There ``mountain_range`` is checked by
``_flood_counts``, the flood of ``stabilize`` from the generator heads, by
``_solved_counts``, ``classes_at`` on every cell, and by
``_apex_scan_mountain_range``, the scan of every apex on every row;
``destabilizes`` by ``_searched_destabilizes``, the search of the upper
neighbors through ``stabilize``; ``common_reachable`` by
``_scanned_common_reachable``; ``_peak_rots`` by ``_sorted_peak_rots``; and
``Classification.generators`` by ``_listed_generators``.

Which generators occur depends only on where the cable slope falls relative
to the intervals of influence of the underlying knot; cables of the trefoil
additionally carry one protected pair per integer band below the slope.
"""

from __future__ import annotations

import gc
from itertools import repeat
from math import gcd, inf
from operator import sub

from .farey import Slope, frozen, intersect, normalize
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


@frozen
class CableSpec:
    """The (r, s)-cable of a positive torus knot; slope s/r, s normalized >= 1."""

    knot: TorusKnotSpec
    r: int
    s: int

    def __new__(cls, knot, r, s):
        if s < 0:
            r, s = -r, -s
        if r == 0:
            raise ValueError("r must be nonzero (the longitude is not a cable)")
        if s == 0:
            raise ValueError("s must be nonzero (the meridian is not a cable)")
        if gcd(abs(r), s) != 1:
            raise ValueError("r and s must be coprime")
        return tuple.__new__(cls, (knot, r, s))

    @property
    def slope(self) -> Slope:
        return normalize(self.s, self.r)

    def __str__(self) -> str:
        return f"{self.knot}_({self.r},{self.s})"


@frozen
class Generator:
    """One generating Legendrian knot of the classification.

    ``sign`` and ``bound`` are carried by protected branches only.  The
    ``destabilizable`` flag is False exactly for the generators below
    maximal tb that the classification singles out as non-destabilizable.
    """

    kind: str
    tb: int
    rot: int
    sign: int | None
    index: int | None
    bound: int | None
    destabilizable: bool

    def __new__(cls, kind, tb, rot, sign=None, index=None, bound=None, destabilizable=True):
        if (tb + rot) % 2 == 0:
            raise ValueError(f"tb + rot must be odd, got ({tb}, {rot})")
        if kind != PEAK and (sign not in (1, -1) or bound is None or bound < 0):
            raise ValueError("protected branches need a sign and a nonnegative bound")
        return tuple.__new__(cls, (kind, tb, rot, sign, index, bound, destabilizable))

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


@frozen
class Common:
    """The single merged class of the simple family at a lattice point."""

    rot: int
    tb: int


@frozen
class Branch:
    """The protected class S_sign^x S_(-sign)^y of a branch generator."""

    gen: Generator
    x: int
    y: int

    def __new__(cls, gen, x, y):
        if x < 0 or y < 0:
            raise ValueError("stabilization counts must be nonnegative")
        if x > gen.bound:
            raise ValueError("x exceeds the protection bound")
        return tuple.__new__(cls, (gen, x, y))

    @property
    def tb(self) -> int:
        return self.gen.tb - self.x - self.y

    @property
    def rot(self) -> int:
        return self.gen.rot + self.gen.sign * (self.x - self.y)


@frozen
class Parameters:
    """Derived quantities reported alongside a classification."""

    w: int
    n: int | None = None
    k: int | None = None
    e_n: Slope | None = None
    e_n_a: Slope | None = None
    e_n_c: Slope | None = None
    c: int | None = None
    c_prime: int | None = None
    tb_max: int = 0


@frozen
class Classification:
    """A cable's classification: its peaks, every one at ``tb_max``, and its
    protected branches.

    ``peaks`` holds the peak rots as one or two ascending ``range`` objects,
    the lower progression first (see :func:`_peak_rots`); the two share one
    step ``2s`` and one length and interleave term by term, lower first, so
    ``peaks[0][0]`` is the lowest rot and ``peaks[-1][-1]`` the highest.
    ``peak_rots`` and ``generators`` list them in ascending rot.  So the
    gap after the ``i``-th of ``peak_rots`` depends only on ``i % 2``, which
    :func:`mountain_range` reads.

    Every protected head lies in the downward cone of some peak,
    ``|g.rot - peak| <= tb_max - g.tb``, so the common class is the union
    of the peak cones alone.  Only the trefoil bands and the two intervals
    of influence carry branches, and there ``tb_max = r*s``; ``w`` is the
    knot's width and ``n`` the region's index:

    * trefoil band, ``protected_l``: ``w = 1`` and ``k = 1``, so the peaks
      are ``+/-(s - r)``, and each head is one of them;
    * trefoil band, ``protected_k``: ``|r*n - (s - r)| = delta = tb_max -
      tb``, so each head sits on the edge of the cone of the peak at
      ``+/-(s - r)``;
    * ``influence_upper``: the head's rot ``+/-(s*w - r)`` is the extreme
      peak rot, and its tb is ``tb_max``;
    * ``influence_lower``: ``|r*(n-1) - (s*w - r)| = r*n - s*w =
      pair_center = tb_max - tb``, so each head sits on the edge of the
      extreme peak's cone.

    A branch first collapses from ``S_sign^bound`` of its head onto
    ``(rot + sign*(bound + 1), tb - bound - 1)``, on the edge of the head's
    cone, and every later collapse lands lower in that cone; the head's
    cone nests in the peak's.
    """

    cable: CableSpec
    region: Region
    parameters: Parameters
    peaks: tuple
    branches: tuple

    @property
    def tb_max(self) -> int:
        return self.parameters.tb_max

    @property
    def simple(self) -> bool:
        """Legendrian simple: no generator is protected."""
        return not self.branches

    @property
    def peak_rots(self) -> tuple:
        """The peak rots, strictly ascending, built on each access."""
        rots = [0] * sum(map(len, self.peaks))
        for i, progression in enumerate(self.peaks):
            rots[i::len(self.peaks)] = progression
        return tuple(rots)

    @property
    def generators(self) -> tuple:
        """Every generator, built on each access: the peaks in ascending rot,
        each ``Generator(PEAK, tb_max, rot)``, then the branches.  Each
        progression is built in place, with no list of the rots.

        ``Generator``'s check runs once per progression, on its first two
        terms, and the peaks are built past it.  The two terms fix the step:
        if ``tb_max + rot`` is odd at the first and the step is even, it is
        odd at every term.  A progression that fails raises the
        ``ValueError`` of its first failing term, as building every peak
        would.

        The peaks are built by ``map`` and ``zip``, with no bytecode per
        peak, while the cyclic garbage collector is paused.  A peak holds
        only a ``str``, ints, ``None`` and ``True``, so no collector pass
        could free anything, and reference counting still frees every
        peak.  The pause is process-wide and covers the one build, result
        tuple included, so the call starts no collection.  It ends as it
        began, also on an error: the collector is re-enabled only if it was
        on, and then makes up the skipped passes with one gen-0 pass at the
        next allocation.  The state is the one read at entry, and it is the
        process's, not the thread's: a ``gc.disable()`` that another thread
        makes during the build is undone when the build ends."""
        tb = self.tb_max
        for progression in self.peaks:
            for rot in progression[:2]:
                Generator(PEAK, tb, rot)
        gens = [None] * sum(map(len, self.peaks))
        was = gc.isenabled()
        gc.disable()
        try:
            for i, progression in enumerate(self.peaks):
                gens[i::len(self.peaks)] = map(tuple.__new__, repeat(Generator), zip(
                    repeat(PEAK), repeat(tb), progression,
                    repeat(None), repeat(None), repeat(None), repeat(True)))
            gens += self.branches
            return tuple(gens)
        finally:
            if was:
                gc.enable()


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
    """Maximal Thurston-Bennequin invariant of the cable:
    ``classify(cable).tb_max``, which costs O(1) in the knot's width.
    Raises what :func:`classify` raises.
    """
    return classify(cable).tb_max


def _peak_rots(r: int, s: int, w: int) -> tuple:
    """Rotation numbers of the maximal-tb peaks, as one or two ascending
    ``range`` objects, the lower first: the cables of the Legendrian torus
    knots L with ``tb(L) = k = ceil(r/s)``, that is ``+/-(r - s*k) +
    s*rot(L)`` for ``rot(L)`` in ``k-w, k-w+2, ..., w-k``.

    The two signs give two progressions of ``w - k + 1`` terms with step
    ``2s``, none when ``w < k``.  With ``h = s*k - r``, ``0 <= h < s``, the
    upper progression is the lower one shifted by ``2h``, less than one
    step.  When ``h = 0``, which for a cable means ``s = 1``, the two
    coincide and the peaks are the lower progression alone.  Otherwise they
    interleave term by term, lower first, and consecutive rots differ by
    ``2h`` and ``2s - 2h`` in turn: the gap after the ``i``-th peak depends
    only on ``i % 2``, which :func:`mountain_range` reads from the first
    three rots.  Building the ranges costs O(1) in ``w``.
    """
    k = -(-r // s)  # ceil(r/s)
    h = s * k - r
    start = s * (k - w) - h
    lower = range(start, start + 2 * s * (w - k + 1), 2 * s)
    if h == 0:
        return (lower,)
    return lower, range(start + 2 * h, lower.stop + 2 * h, 2 * s)


def classify(cable: CableSpec) -> Classification:
    """Full classification of the Legendrian representatives of the cable.

    ``tb_max`` is the Bennequin bound in the low range 0 < s/r <= 1/w, where
    it is attained, and ``r*s`` elsewhere.  The low range has one peak at
    rot 0.  Every other region, negative slopes and the trefoil bands
    included, has the one peak family of :func:`_peak_rots`: the peaks are
    cables of the Legendrian torus knots with ``tb(L) = ceil(r/s)``.  The
    peaks are kept as their progressions, so a call costs O(1) in the
    width; no list of peak rots and no peak ``Generator`` is built.  Each
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
    k_pair = None  # (tb, |rot|, bound) of the protected_k heads

    peaks = (range(0, 1),) if region.kind == LOW_RANGE else _peak_rots(r, s, w)
    branches = []
    if region.kind == TREFOIL_BAND:
        n = region.index
        params.update(n=n, c=r - 1 if n >= 2 else None)
        branches += [
            Generator(BRANCH_L, tb=rs, rot=sign * (s - r), sign=sign, index=j, bound=r - 1)
            for j in range(2, n + 1)
            for sign in (1, -1)
        ]
        if s != r * n:
            delta = r * (n + 1) - s
            params["c_prime"] = r - delta - 1
            k_pair = (rs - delta, r * n, params["c_prime"])
    elif region.kind in (SIMPLE_MID, INFLUENCE_UPPER, INFLUENCE_LOWER):
        params["k"] = -(-r // s)  # ceil(r/s)
        if region.kind != SIMPLE_MID:
            n = region.index
            iv = influence_interval(knot, n)
            pair_upper = intersect(slope, iv.upper)
            if region.kind == INFLUENCE_UPPER:
                params["c"] = pair_upper - 1
                k_pair = (rs, s * w - r, params["c"])
            else:  # INFLUENCE_LOWER
                pair_center = intersect(slope, iv.center)
                params["c"] = pair_upper - pair_center - 1
                k_pair = (rs - pair_center, r * (n - 1), params["c"])
            params.update(n=n, e_n=iv.center, e_n_a=iv.upper, e_n_c=iv.lower)

    if k_pair is not None:
        tb, rot, bound = k_pair
        branches += [
            Generator(
                BRANCH_K,
                tb=tb,
                rot=sign * rot,
                sign=sign,
                bound=bound,
                destabilizable=tb == tb_max,
            )
            for sign in (1, -1)
        ]
    return Classification(
        cable=cable,
        region=region,
        parameters=Parameters(w=w, tb_max=tb_max, **params),
        peaks=peaks,
        branches=tuple(branches),
    )


# -- the class model --------------------------------------------------------

def common_reachable(cls: Classification, rot: int, tb: int) -> bool:
    """Whether the merged simple-family class exists at the lattice point.

    The common class lives on the union of the peaks' downward cones: every
    protected head, and so every point a branch collapses from, already lies
    in one of them (see :class:`Classification`).  The peaks all sit at
    ``tb_max``, so the point lies in a peak cone exactly when some peak rot
    falls in ``[rot - d, rot + d]``, ``d = tb_max - tb``.  In each
    progression of ``peaks`` the first term at or above ``rot - d`` comes
    from one floor division, so the query costs O(1) in the width.
    """
    if (rot + tb) % 2 == 0:
        return False
    d = cls.tb_max - tb
    for progression in cls.peaks:
        i = max(-((progression.start - rot + d) // progression.step), 0)  # ceil
        if i < len(progression) and progression[i] <= rot + d:
            return True
    return False


def classes_at(cls: Classification, rot: int, tb: int) -> list:
    """All distinct Legendrian classes at a lattice point."""
    if (rot + tb) % 2 == 0:
        return []
    found = []
    for g in cls.branches:
        twice_x = (g.tb - tb) + g.sign * (rot - g.rot)
        if twice_x < 0:
            continue
        x = twice_x // 2
        y = (g.tb - tb) - x
        if y < 0 or x > g.bound:
            continue
        found.append(Branch(g, x, y))
    if common_reachable(cls, rot, tb):
        found.append(Common(rot, tb))
    return found


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


def _collapse_counts(klass) -> tuple:
    """The fewest positive and the fewest negative stabilizations that
    collapse a class into the common class; ``inf`` where none do."""
    if isinstance(klass, Common):
        return 0, 0
    left = klass.gen.bound - klass.x + 1
    return (left, inf) if klass.gen.sign == 1 else (inf, left)


def destabilizes(cls: Classification, klass) -> bool:
    """Whether some class one level up stabilizes onto this one.

    ``klass`` is a class of ``cls``, as :func:`classes_at` returns it.  A
    ``Branch(g, x, y)`` destabilizes exactly when ``x + y > 0``: its
    predecessor ``Branch(g, x - 1, y)`` or ``Branch(g, x, y - 1)`` exists one
    level up, and nothing stabilizes onto a head.  A ``Common`` lives in
    a peak's downward cone, and below ``tb_max`` its upper neighbor toward
    that peak lies in the cone too; only the point one level straight
    under a peak would lack one, and parity puts no class there.  So it
    destabilizes exactly when ``tb < tb_max``.  A branch collapsing onto it
    needs no term of its own, since the common class is the union of the
    peak cones (see :class:`Classification`).
    """
    if isinstance(klass, Branch):
        return klass.x + klass.y > 0
    return klass.tb < cls.tb_max


@frozen
class MountainRange:
    """Class counts per (rot, tb) lattice point, down to a tb floor.

    ``runs`` holds the same counts by row: one tuple per tb from
    ``tb_floor`` up to ``tb_max``, each a tuple of runs ``(rot_start,
    rot_stop, count)`` in ascending rot, disjoint and non-empty, every run
    covering ``range(rot_start, rot_stop, 2)`` with one nonzero count.
    ``counts`` expands them into one entry per cell, keyed in (tb, rot)
    ascending order.

    The floor row ``runs[0]`` is non-empty and spans every row: its first
    start is at most any row's first start, and its last stop at least any
    row's last stop.  Every cell lies in a peak's downward cone, the peak
    family is never empty, and the cones widen downward, so the floor row
    holds the whole width of the rows above it.

    Compared by identity: ``counts`` is a dict, and no caller compares two
    ranges by value.
    """

    tb_floor: int
    tb_max: int
    counts: dict
    runs: tuple

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def count(self, rot: int, tb: int) -> int:
        return self.counts.get((rot, tb), 0)


def mountain_range(cls: Classification, tb_floor: int) -> MountainRange:
    """All nonzero class counts with tb between the floor and the maximum.

    Each row is built from the solved form.  The common class covers the
    union of the peak cones ``[rot - d, rot + d]`` at depth ``d = tb_max -
    tb`` (see :class:`Classification`).  The cones of two consecutive peaks
    merge exactly when their gap is at most ``2d + 2``.  The gap after
    ``rots[i]`` depends only on ``i % 2`` (see :func:`_peak_rots`), so each
    row compares ``2d + 2`` with the first two gaps, and the parities whose
    gap is still wider give the peak intervals one of three forms: one
    interval from the first rot to the last, when no gap is open; the pairs
    across the smaller gap, when only the wider is; every peak alone, when
    both are.  The sweep climbs, so the open parities only grow: a call
    builds its peak intervals at most three times, each time as two slices
    of the rots, their starts and their ends.  Those intervals are disjoint
    and more than 2 apart, so each gives one pair of edges.  The family is
    never empty, so the first form has an interval.  A branch ``g`` at
    depth ``d = g.tb - tb`` adds one class on every second rot from
    ``g.rot - sign*d`` to ``g.rot + sign*(2*min(bound, d) - d)``.
    One sweep over the interval edges yields each row's runs of equal
    count, kept as ``runs``; ``counts`` is expanded from them after the
    sweep, keyed in (tb, rot) ascending order.  A row costs O(intervals +
    branches), not O(peaks), and the expansion O(cells).  The peak rots are
    listed once per call from ``peaks``; each is a cell of the top row.
    """
    tb_max = cls.tb_max
    if tb_floor > tb_max:
        raise ValueError(f"tb floor {tb_floor} exceeds the maximal tb {tb_max}")
    rots, branches = cls.peak_rots, cls.branches
    gaps = list(map(sub, rots[1:3], rots))  # the gap after rots[i] is gaps[i % 2]
    opened = []  # the parities whose gap is still open
    peaks = [(rots[0], rots[-1])]  # the end rots of each merged run of peaks
    runs = []
    for tb in range(tb_floor, tb_max + 1):
        d = tb_max - tb
        now = [i for i, gap in enumerate(gaps) if gap > 2 * d + 2]
        if now != opened:  # one gap class opens: the pairs across the other, or every peak
            opened, i, step = now, now[0], 3 - len(now)
            peaks = list(zip(rots[:1] + rots[i + 1::step], rots[i:-1:step] + rots[-1:]))
        edges = []
        for lo, hi in peaks:
            edges += ((lo - d, 1), (hi + d + 2, -1))
        for g in branches:
            d = g.tb - tb
            if d < 0:
                continue
            ends = (g.rot - g.sign * d, g.rot + g.sign * (2 * min(g.bound, d) - d))
            edges += ((min(ends), 1), (max(ends) + 2, -1))
        edges.sort()
        row = []
        n = 0
        for rot, step in edges:
            if n and rot > start:
                row.append((start, rot, n))
            n += step
            start = rot
        runs.append(tuple(row))
    counts = {(rot, tb): n for tb, row in zip(range(tb_floor, tb_max + 1), runs)
              for start, stop, n in row for rot in range(start, stop, 2)}
    return MountainRange(tb_floor=tb_floor, tb_max=tb_max, counts=counts, runs=tuple(runs))


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
