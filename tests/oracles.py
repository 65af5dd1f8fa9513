"""The brute-force oracles of the library's closed forms, and the input
families the tests run them on.

Each oracle sits under the closed form it checks and is registered there,
with the families it runs on, by :func:`oracle_of`.  The library's own
oracles (``neighbors_oracle``, ``attach_bypass_oracle``, ``cf_eval`` and
``classify_transverse``) are registered the same way.  ``ORACLES`` and
``UNPAIRED`` are what ``test_package`` walks ``torus_cables.__all__``
against.

pytest collects nothing here.  The test modules share code only through
this module, and it imports none of them.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd

from hypothesis import strategies as st

from torus_cables import bypass, cli, farey, transverse
from torus_cables.farey import Slope
from torus_cables.legendrian import (
    PEAK, Branch, CableSpec, Classification, Common, Generator, _peak_rots, bennequin_bound,
    classes_at, common_reachable, destabilizes, mountain_range, stabilize)
from torus_cables.torus_knots import (
    INFLUENCE_LOWER, INFLUENCE_UPPER, LOW_RANGE, NEGATIVE, SIMPLE_MID, TREFOIL_BAND, TorusKnotSpec,
    exceptional_indices, exceptional_slope, influence_interval, locate, tori_census)


# -- input families ------------------------------------------------------------

def S(text: str) -> Slope:
    return Slope.parse(text)


def positive_slopes(max_num: int, max_den: int):
    """All reduced positive slopes with bounded numerator and denominator."""
    for den in range(1, max_den + 1):
        for num in range(1, max_num + 1):
            if gcd(num, den) == 1:
                yield Slope(num, den)


def grid_slopes(bound: int, include_infinity: bool = True):
    """All reduced slopes with |num| <= bound and den <= bound, plus 0 and inf."""
    out = [Slope(0, 1)]
    if include_infinity:
        out.append(Slope(1, 0))
    for den in range(1, bound + 1):
        for num in range(-bound, bound + 1):
            if num != 0 and gcd(abs(num), den) == 1:
                out.append(Slope(num, den))
    return out


def reduced_pairs(bound: int):
    """Reduced (r, s) with 1 <= |r|, s <= bound and r nonzero."""
    for r in range(-bound, bound + 1):
        if r == 0:
            continue
        for s in range(1, bound + 1):
            if gcd(abs(r), s) == 1:
                yield r, s


T23 = TorusKnotSpec(2, 3)
T25 = TorusKnotSpec(2, 5)
T34 = TorusKnotSpec(3, 4)

# Criterion 10's knots.
CRITERION_10_KNOTS = [T23, T25, T34, TorusKnotSpec(2, 7), TorusKnotSpec(3, 5), TorusKnotSpec(4, 5)]


def grid_cables(knots, bound: int):
    """The cables of each knot with reduced ``(r, s)``, ``|r|, s <= bound``,
    knot by knot.  The s = 1 cables with ``r`` below the width are left out:
    each is the knot itself, outside the formulas."""
    for knot in knots:
        for r, s in reduced_pairs(bound):
            if not (s == 1 and r < knot.width):
                yield CableSpec(knot, r, s)


# Wider than criterion 10's knots: every knot of width up to 30, and the
# near-diagonal ones (q - p <= 2) up to width 119, whose many peaks put
# dozens of common cones on one row.
_WIDE_KNOTS = [
    TorusKnotSpec(p, q)
    for p in range(2, 120)
    for q in range(p + 1, 123)
    if gcd(p, q) == 1 and p * q - p - q <= 119 and (q - p <= 2 or p * q - p - q <= 30)
]


@lru_cache(maxsize=None)
def _branched_cables():
    # The cables of the test's box whose slope falls in an interval of
    # influence or a trefoil band, the regions that carry protected
    # branches: about one box cable in ten.
    branched = (INFLUENCE_UPPER, INFLUENCE_LOWER, TREFOIL_BAND)
    return [
        (knot, r, s)
        for knot in _WIDE_KNOTS
        for r, s in reduced_pairs(40)
        if 2 <= s <= 24 and locate(knot, CableSpec(knot, r, s).slope).kind in branched
    ]


_WIDE_CABLES = st.one_of(
    st.tuples(st.sampled_from(_WIDE_KNOTS), st.integers(-40, 40), st.integers(2, 24)),
    st.deferred(lambda: st.sampled_from(_branched_cables())))


_PEAK_CABLES = st.one_of(
    _WIDE_CABLES,
    st.tuples(st.sampled_from(_WIDE_KNOTS), st.integers(-40, -1), st.integers(1, 24)),  # negative slopes
    st.tuples(st.just(T23), st.integers(1, 30), st.integers(2, 90)),  # trefoil bands, s > r
)


# Trefoil cables in the bands n = s // r from 1 to 50, which carry up to 49
# protected_l pairs.
_TREFOIL_BANDS = st.integers(1, 12).flatmap(
    lambda r: st.tuples(st.just(T23), st.just(r), st.integers(r + 1, 51 * r - 1)))


# -- the registry --------------------------------------------------------------

# closed form -> [(oracle, the families it runs on)]
ORACLES = {}


def oracle_of(closed_form, *families):
    """Register the decorated function as an oracle of ``closed_form``, run
    on ``families``: family objects, or a description of one a test builds
    inline."""
    def register(oracle):
        ORACLES.setdefault(closed_form, []).append((oracle, families))
        return oracle
    return register


oracle_of(farey.neighbors, positive_slopes)(farey.neighbors_oracle)
oracle_of(farey.cf_expand, positive_slopes)(farey.cf_eval)  # the round trip
oracle_of(bypass.attach_bypass, grid_slopes)(bypass.attach_bypass_oracle)
oracle_of(transverse.quotient_transverse, grid_cables)(transverse.classify_transverse)


# -- torus_knots.locate --------------------------------------------------------

@oracle_of(locate, "reduced slopes of denominator <= 40 on T(2,5), T(3,4)", "_knots_and_slopes",
           "_huge_knots_near_exceptional")
def _region_by_scan(spec, slope):
    # Independent region decision by direct interval comparisons.
    if slope.is_negative():
        return NEGATIVE
    if spec.is_trefoil:
        return TREFOIL_BAND if slope.value >= 1 else LOW_RANGE
    w = spec.width
    if slope.value <= exceptional_slope(spec, 1).value:
        return LOW_RANGE
    scaled = slope.value * w
    bound = max(2, scaled.numerator // scaled.denominator + 2)
    for n in sorted(exceptional_indices(spec, bound)):
        iv = influence_interval(spec, n)
        if iv.in_upper_half(slope):
            return INFLUENCE_UPPER, n
        if iv.lower.value < slope.value < iv.center.value:
            return INFLUENCE_LOWER, n
    return SIMPLE_MID


# -- torus_knots.tori_census ---------------------------------------------------

@oracle_of(tori_census, "slopes of denominator <= 20 on T(2,5), T(3,4), T(5,7), T(2,3)")
def _census_target_by_scan(v):
    # The integer t with 1/t < v < 1/(t-1); 1/0 is -infinity as the lower
    # end and +infinity as the upper end.  None for 0 and reciprocals.
    for t in range(-v.denominator - 1, v.denominator + 2):
        above_lower = t == 0 or Fraction(1, t) < v
        below_upper = t == 1 or v < Fraction(1, t - 1)
        if above_lower and below_upper:
            return t
    return None


# -- legendrian._peak_rots and Classification.generators: the peaks -----------

@oracle_of(_peak_rots, "(r, s, w) with |r| <= 200, s <= 12, w <= 60", _PEAK_CABLES)
def _sorted_peak_rots(r, s, k, w):
    # The set-and-sort listing of the peak family, the oracle of _peak_rots.
    return sorted(
        {sign * (r - s * k) + s * rho for rho in range(k - w, w - k + 1, 2) for sign in (1, -1)}
    )


@oracle_of(Classification.generators, _WIDE_CABLES, _TREFOIL_BANDS)
def _listed_generators(cls):
    # The eager construction classify used before it kept the peaks as
    # rots: one Generator per peak, at the tb and the rots computed here
    # from the cable, then the branches.  The oracle of generators.
    cable = cls.cable
    r, s, w = cable.r, cable.s, cable.knot.width
    if cls.region.kind == LOW_RANGE:
        peaks = [Generator(PEAK, tb=bennequin_bound(cable), rot=0)]
    else:
        peaks = [Generator(PEAK, r * s, rot) for rot in _sorted_peak_rots(r, s, -(-r // s), w)]
    return [*peaks, *cls.branches]


# -- legendrian.common_reachable: the common class -----------------------------

def _common_apexes(cls: Classification, peak_rots):
    """The apexes ``(rot, tb)`` of the common class's downward cones: each
    given peak rot at ``tb_max``, and each protected branch's first-collapse
    point."""
    for rot in peak_rots:
        yield rot, cls.tb_max
    for g in cls.branches:
        yield g.rot + g.sign * (g.bound + 1), g.tb - g.bound - 1


def _heads_in_peak_cones(cls):
    # The invariant the common class's reading from the peaks alone rests on
    # (common_reachable, destabilizes, mountain_range): every protected head
    # lies in the downward cone of some peak.
    top = cls.tb_max
    return all(any(g.tb <= top and abs(g.rot - rot) <= top - g.tb for rot in cls.peak_rots)
               for g in cls.branches)


@oracle_of(common_reachable, _PEAK_CABLES)
def _scanned_common_reachable(cls, rot, tb):
    # The scan of every apex cone, the oracle of common_reachable's bisection.
    if (rot + tb) % 2 == 0:
        return False
    return any(
        tb <= apex_tb and abs(rot - apex_rot) <= apex_tb - tb
        for apex_rot, apex_tb in _common_apexes(cls, cls.peak_rots)
    )


def _probe_points(cls):
    # Lattice points around the two end peaks, a middle peak and each
    # branch's collapse point, a few levels above and below each.
    rots = cls.peak_rots
    centers = {(rot, cls.tb_max) for rot in (rots[0], rots[len(rots) // 2], rots[-1])}
    centers |= set(_common_apexes(cls, ()))
    return [(rot + dr, tb - dt) for rot, tb in centers for dr in range(-4, 5) for dt in range(-2, 4)]


# -- legendrian.destabilizes ---------------------------------------------------

@oracle_of(destabilizes, grid_cables, _WIDE_CABLES)
def _searched_destabilizes(cls, klass):
    # The search through the upper neighbors, the oracle of destabilizes.
    rot = klass.rot
    tb = klass.tb
    for sign in (1, -1):
        for cand in classes_at(cls, rot - sign, tb + 1):
            if stabilize(cand, sign) == klass:
                return True
    return False


# -- legendrian.mountain_range -------------------------------------------------

@oracle_of(mountain_range, grid_cables)
def _solved_counts(cls, tb_floor):
    # The solved form on every cell of the band, one rot cell past the
    # generator cones on each side.
    counts = {}
    for tb in range(tb_floor, cls.tb_max + 1):
        lo = min(g.rot - (g.tb - tb) for g in cls.generators) - 1
        hi = max(g.rot + (g.tb - tb) for g in cls.generators) + 1
        for rot in range(lo, hi + 1):
            c = len(classes_at(cls, rot, tb))
            if c:
                counts[(rot, tb)] = c
    return counts


@oracle_of(mountain_range, grid_cables, _WIDE_CABLES)
@oracle_of(classes_at, grid_cables)  # through mountain_range and _solved_counts
def _flood_counts(cls, tb_floor):
    # The stabilization flood of the generator heads: each level is every
    # stabilization of the level above plus the heads at that tb, and a
    # point's count is the number of distinct classes on it.  Keyed in
    # (tb, rot) ascending order.
    heads = {}
    for g in cls.generators:
        heads.setdefault(g.tb, set()).add(Branch(g, 0, 0) if g.protected else Common(g.rot, g.tb))
    level, rows = set(), []
    for tb in range(cls.tb_max, tb_floor - 1, -1):
        level = {stabilize(c, sign) for c in level for sign in (1, -1)} | heads.get(tb, set())
        rows.append((tb, sorted(c.rot for c in level)))
    counts = {}
    for tb, rots in reversed(rows):
        counts.update(((rot, tb), n) for rot, n in Counter(rots).items())
    return counts


@oracle_of(mountain_range, grid_cables, _WIDE_CABLES)
def _apex_scan_mountain_range(cls, tb_floor):
    # The sweep mountain_range used before the gap rule: every row scans
    # every apex, the peaks and the branch collapse heads sorted by rot - tb,
    # merging each cone into the last interval when it reaches it.  The
    # oracle of the gap rule's runs and counts, their order included.
    branches = cls.branches
    apexes = sorted(_common_apexes(cls, cls.peak_rots), key=lambda a: a[0] - a[1])
    counts = {}
    runs = []
    for tb in range(tb_floor, cls.tb_max + 1):
        edges = []
        lo = hi = None
        for apex_rot, apex_tb in apexes:
            d = apex_tb - tb
            if d < 0:
                continue
            if hi is not None and apex_rot - d <= hi + 2:
                hi = max(hi, apex_rot + d)
                continue
            if hi is not None:
                edges += ((lo, 1), (hi + 2, -1))
            lo, hi = apex_rot - d, apex_rot + d
        if hi is not None:
            edges += ((lo, 1), (hi + 2, -1))
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
                counts.update(zip(zip(range(start, rot, 2), repeat(tb)), repeat(n)))
            n += step
            start = rot
        runs.append(tuple(row))
    return counts, tuple(runs)


# -- cli.render_mountain and cli._mountain_payload: the reports ----------------

@oracle_of(cli.render_mountain, grid_cables, _WIDE_CABLES)
def _render_by_cell(mr):
    # The per-cell renderer render_mountain replaced: the reference for its bytes.
    rots = sorted({rot for rot, _ in mr.counts})
    lo, hi = rots[0], rots[-1]
    span = list(range(lo, hi + 1))
    colw = max(len(str(r)) for r in span) + 1
    gutter = max(len(str(tb)) for tb in range(mr.tb_floor, mr.tb_max + 1))
    lines = [" " * gutter + "".join(str(r).rjust(colw) for r in span)]
    for tb in range(mr.tb_max, mr.tb_floor - 1, -1):
        cells = []
        for rot in span:
            c = mr.count(rot, tb)
            if c == 0:
                cells.append(".".rjust(colw))
            elif c < 10:
                cells.append(str(c).rjust(colw))
            elif c < 36:
                cells.append(chr(ord("a") + c - 10).rjust(colw))
            else:
                cells.append("*".rjust(colw))
        lines.append(str(tb).rjust(gutter) + "".join(cells))
    return "\n".join(lines)


@oracle_of(cli._mountain_payload, _WIDE_CABLES)
def _sorted_payload(cable, mr):
    # The sort-based payload _mountain_payload replaced: the reference for its bytes.
    return {
        "cable": cli._cable_payload(cable),
        "tb_floor": mr.tb_floor,
        "tb_max": mr.tb_max,
        "counts": [
            {"rot": rot, "tb": tb, "count": mr.counts[(rot, tb)]}
            for rot, tb in sorted(mr.counts, key=lambda pt: (-pt[1], pt[0]))
        ],
    }


# -- transverse._word_claims and verify_qualitative: the verifiers -------------

def _word_variants(classes, plus: int, minus: int):
    out = []
    for c in classes:
        for _ in range(plus):
            c = stabilize(c, 1)
        for _ in range(minus):
            c = stabilize(c, -1)
        out.append(c)
    return out


@oracle_of(transverse._word_claims, grid_cables, "the qual1 family, k, n <= 12")
@oracle_of(transverse.verify_qualitative, "the qual1 family, k, n <= 12")
def _replayed_claims(classes, k):
    """qual1's two word claims, replayed through ``stabilize``: distinct under
    every word S_+^a S_-^b with a + b < k, and merged by S_+^k."""
    words = (_word_variants(classes, a, j - a) for j in range(0, k) for a in range(0, j + 1))
    separated = all(len(set(variants)) == len(variants) for variants in words)
    return separated, len(set(_word_variants(classes, k, 0))) <= 1


# -- the public callables with no oracle, by reason ----------------------------

UNPAIRED = (
    ("wait on a construction oracle for classify (ROADMAP item 6)", ("classify", "max_tb")),
    ("wait until item 6 routes that oracle through them",
     ("divide_tb", "ruling_tb", "cable_rot", "thickening_outcome")),
    ("the model's one transition rule, which the flood, the search and the replay apply",
     ("stabilize",)),
    ("plain definitions", (
        "farey_combine", "intersect", "is_edge", "mediant", "normalize", "exceptional_indices",
        "exceptional_slope", "influence_interval", "nonthickenable_profile", "width",
        "bennequin_bound", "count_transverse")),
    ("value types; test_values checks each one's semantics", (
        "ContinuedFraction", "Slope", "TorusState", "CensusRecord", "InfluenceInterval", "Region",
        "ThickeningOutcome", "TorusKnotSpec", "Branch", "CableSpec", "Classification", "Common",
        "Generator", "MountainRange", "QualReport", "TransverseBranch",
        "TransverseClassification")),
)
