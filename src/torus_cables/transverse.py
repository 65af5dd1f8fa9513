"""Transverse classification as the negative-stabilization quotient.

Transverse representatives of a cable correspond to Legendrian classes up
to negative stabilization.  Under the class model of
:mod:`torus_cables.legendrian` the quotient is a *top chain* (the common
lineage, one class at every odd self-linking number below the maximum)
plus one branch per plus-protected generator, alive for ``bound + 1``
self-linking levels before merging into the top chain.  Minus-protected
generators fall into the top chain outright.

``classify_transverse`` builds the same data directly from the closed-form
case analysis, without the Legendrian engine, so the two routes can be
cross-checked: its maximal self-linking number is
:func:`~torus_cables.legendrian.bennequin_bound`, the quotient's is read off
the two end peak rots and the branches, and both name each branch after its
generator's id.  A cable is transversely simple when the top chain is its
only branch.
"""

from __future__ import annotations

from heapq import nsmallest
from math import gcd

from .farey import farey_combine, frozen, neighbor_terms
from .legendrian import (
    CableSpec,
    Classification,
    _check_framing,
    _collapse_counts,
    bennequin_bound,
    classes_at,
    classify,
    destabilizes,
)
from .torus_knots import (
    INFLUENCE_LOWER,
    INFLUENCE_UPPER,
    TREFOIL_BAND,
    TorusKnotSpec,
    influence_interval,
    locate,
)

TOP_CHAIN = "top"


@frozen
class TransverseBranch:
    """One chain of transverse classes: alive from sl_top down to
    merge_sl + 2, isotopic to the top chain at merge_sl and below."""

    origin: str
    sl_top: int
    destabilizable: bool
    merge_sl: int | None

    def __new__(cls, origin, sl_top, destabilizable, merge_sl=None):
        if sl_top % 2 == 0:
            raise ValueError("self-linking numbers are odd")
        if merge_sl is not None and merge_sl > sl_top - 2:
            raise ValueError("merge depth must sit strictly below the branch top")
        return tuple.__new__(cls, (origin, sl_top, destabilizable, merge_sl))


@frozen
class TransverseClassification:
    cable: CableSpec
    max_sl: int
    branches: tuple

    @property
    def simple(self) -> bool:
        """Transversely simple: the top chain is the only branch."""
        return not self.side_branches

    @property
    def side_branches(self) -> tuple:
        return tuple(b for b in self.branches if b.origin != TOP_CHAIN)


def quotient_transverse(cls: Classification) -> TransverseClassification:
    """Transverse classes as negative-stabilization orbits of the model.

    The maximal self-linking number is the largest ``tb + |rot|`` over the
    generators.  The peaks all sit at ``tb_max``, and the last progression
    holds the highest rot.  The rot -> -rot mirror maps the peaks onto
    themselves, so the lowest rot is its negative and the largest ``|rot|``
    is ``peaks[-1][-1]`` alone.  Every protected head lies in a peak's
    downward cone, ``|g.rot - peak| <= tb_max - g.tb``, so
    ``g.tb + |g.rot| <= tb_max + |peak|`` and no branch exceeds the end
    peaks: the maximum is read from the last peak, in O(1) of the width.
    """
    # Read off the peaks rather than bennequin_bound, so the routes stay independent.
    top_sl = cls.tb_max + cls.peaks[-1][-1]
    branches = [TransverseBranch(TOP_CHAIN, top_sl, destabilizable=False)]
    for g in cls.branches:
        if g.sign != 1:
            continue  # minus-protected branches collapse into the top chain
        # The branch head and its negative-stabilization orbit Branch(g, 0, y)
        # never destabilize transversely: no class one level up positively
        # stabilizes onto them, since S_+ raises x on a plus branch, keeps a
        # minus branch on its own generator, and keeps Common common.
        sl_top = g.tb - g.rot
        branches.append(
            TransverseBranch(
                origin=g.id,
                sl_top=sl_top,
                destabilizable=False,
                merge_sl=sl_top - 2 * (g.bound + 1),
            )
        )
    return TransverseClassification(
        cable=cls.cable,
        max_sl=top_sl,
        branches=tuple(branches),
    )


def classify_transverse(cable: CableSpec) -> TransverseClassification:
    """Transverse classification from the closed-form case analysis.

    Built independently of the Legendrian engine.  In the lower half of an
    interval of influence the branch keeps the self-linking ``tb - rot`` of
    its defining ruling curve (see the README note on the alternative
    uniform closed form).
    """
    knot, r, s = cable.knot, cable.r, cable.s
    w = knot.width
    rs = r * s
    _check_framing(cable)
    region = locate(knot, cable.slope)
    top = bennequin_bound(cable)
    branches = [(TOP_CHAIN, top, None)]  # (origin, sl_top, merge_sl) of each branch
    if region.kind == TREFOIL_BAND:
        n = region.index
        branches += [(f"protected_l:{j}:+", rs + r - s, rs - r - s) for j in range(2, n + 1)]
        if s != r * n:
            delta = r * (n + 1) - s
            branches.append(("protected_k:+", rs + r - s - 2 * delta, rs - r - s))
    elif region.kind in (INFLUENCE_UPPER, INFLUENCE_LOWER):
        n = region.index
        # The pairings of the slope s/r (r > 0 here) with the upper neighbor
        # x/y of e_n = n/w and with e_n itself.
        x, y, _, _ = neighbor_terms(n, w)
        depth = abs(s * y - x * r)  # stabilizations until the merge
        if region.kind == INFLUENCE_UPPER:
            sl_top = rs + r - s * w
        else:
            pair_center = abs(s * w - n * r)
            sl_top = (rs - pair_center) - r * (n - 1)
            depth -= pair_center
        branches.append(("protected_k:+", sl_top, sl_top - 2 * depth))
    return TransverseClassification(
        cable=cable,
        max_sl=top,
        branches=tuple(
            TransverseBranch(origin, sl_top, destabilizable=False, merge_sl=merge_sl)
            for origin, sl_top, merge_sl in branches
        ),
    )


def count_transverse(tcls: TransverseClassification, sl: int) -> int:
    """Number of transverse classes with the given self-linking number.

    Self-linking numbers are odd, so after the parity test on ``max_sl`` a
    branch needs no test of its own: each ``sl_top`` has the parity of
    ``max_sl``.
    """
    if (tcls.max_sl - sl) % 2:
        return 0
    count = 1 if sl <= tcls.max_sl else 0
    for b in tcls.side_branches:
        if b.merge_sl + 2 <= sl <= b.sl_top:
            count += 1
    return count


# -- verifiers for the qualitative statements --------------------------------

@frozen
class Claim:
    description: str
    passed: bool
    detail: str = ""


@frozen
class QualReport:
    suite: str
    knot: TorusKnotSpec
    k: int
    m: int
    n: int
    cable: CableSpec
    claims: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)


QUAL1 = "qual1"
QUAL2 = "qual2"
QUAL4 = "qual4"
SUITES = (QUAL1, QUAL2, QUAL4)


def _claim(claims: list, description: str, passed: bool, detail: str = "") -> None:
    claims.append(Claim(description, bool(passed), detail))


def verify_qualitative(
    knot: TorusKnotSpec, which: str, k: int, m: int, n: int
) -> QualReport:
    """Construct the advertised slope and check every claim of the statement.

    Each claim is read from the class model, never replayed word by word, so
    the work does not grow with k, m or n beyond the classification itself.

    ``qual1``: trefoil cables with n Legendrian classes sharing invariants
    m below maximal tb, one non-destabilizable, separated for fewer than k
    stabilizations and merged by k.  Destabilization is read from the
    solved form, a constant per branch class, and both word claims from the
    two smallest collapse counts, so the n classes cost O(n) on top of the
    classification's 2n generators (``tests/oracles.py`` searches the upper
    neighbors, ``_searched_destabilizes``, and replays the words through
    ``stabilize``, ``_replayed_claims``).
    ``qual2``: the transverse analogue with its exact sl bookkeeping.
    ``qual4``: for a general knot, a non-destabilizable transverse class at
    least 2n below maximal sl that merges after exactly m stabilizations
    (k names the exceptional index used for the slope).
    """
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}")
    if min(k, m, n) < 1:
        raise ValueError("k, m, n must be positive integers")
    if which in (QUAL1, QUAL2):
        if not knot.is_trefoil:
            raise ValueError(f"suite {which} concerns cables of the trefoil")
        if gcd(k, m) != 1:
            raise ValueError("k and m must be coprime")
        if which == QUAL1 and n < 2:
            raise ValueError("qual1 needs n > 1")
        if which == QUAL2 and n < 3:
            raise ValueError("qual2 needs n > 2")
        r = k + m
        s = k * n + m * (n - 1)
        cable = CableSpec(knot, r, s)
        if which == QUAL1:
            claims = _check_qual1(cable, k, m, n)
        else:
            claims = _check_qual2(cable, k, m, n)
    else:
        if knot.is_trefoil:
            raise ValueError("qual4 concerns knots other than the trefoil")
        if k < 2 or gcd(k, knot.width) != 1:
            raise ValueError("k must be an exceptional index coprime to the width")
        if gcd(m, n) != 1:
            raise ValueError("m and n must be coprime")
        iv = influence_interval(knot, k)
        slope = farey_combine(iv.center, iv.upper, m, n)
        cable = CableSpec(knot, slope.den, slope.num)
        claims = _check_qual4(cable, k, m, n)
    return QualReport(
        suite=which, knot=knot, k=k, m=m, n=n, cable=cable, claims=tuple(claims)
    )


def _word_claims(classes, k: int) -> tuple:
    """Whether the classes stay pairwise distinct under every word
    ``S_+^a S_-^b`` with ``a + b < k``, and whether ``S_+^k`` makes them one.

    Two classes at one lattice point coincide under a word exactly when both
    have collapsed, that is when ``a`` reaches ``P`` or ``b`` reaches ``M``
    for each, ``(P, M)`` being its collapse counts.  The shortest such word
    over all pairs is the separation depth, the least
    ``min(max(Pa, Pb), max(Ma, Mb), Pa + Mb, Ma + Pb)``; over all pairs
    that is the second-smallest ``P``, the second-smallest ``M`` or the
    least ``P_i + M_j`` with ``i != j``, and the two smallest of each count
    give all three.  With fewer than two classes nothing separates.
    """
    counts = [_collapse_counts(c) for c in classes]
    if len(counts) < 2:
        return True, True
    ps = nsmallest(2, ((p, i) for i, (p, _) in enumerate(counts)))
    ms = nsmallest(2, ((m, i) for i, (_, m) in enumerate(counts)))
    cross = min(p + m for p, i in ps for m, j in ms if i != j)
    return min(ps[1][0], ms[1][0], cross) >= k, all(p <= k for p, _ in counts)


def _check_qual1(cable: CableSpec, k: int, m: int, n: int) -> list:
    claims = []
    cls = classify(cable)
    r, s = cable.r, cable.s
    _claim(
        claims,
        "cable slope lies in (1, oo) and the cable is not Legendrian simple",
        cable.slope.num > cable.slope.den and not cls.simple,
        f"slope {cable.slope}",
    )
    rot, tb = s - r + m, r * s - m
    classes = classes_at(cls, rot, tb)
    _claim(
        claims,
        f"exactly {n} Legendrian classes at (rot, tb) = ({rot}, {tb}) = (rot, tb_max - {m})",
        len(classes) == n and tb == cls.tb_max - m,
        f"found {len(classes)}",
    )
    nondestab = [c for c in classes if not destabilizes(cls, c)]
    _claim(
        claims,
        "exactly one of them does not destabilize",
        len(nondestab) == 1,
        f"found {len(nondestab)}",
    )
    separated, merged = _word_claims(classes, k)
    _claim(
        claims,
        f"all {n} remain pairwise distinct under every word of fewer than {k} stabilizations",
        separated,
    )
    _claim(
        claims,
        f"{k} positive stabilizations make them all Legendrian isotopic",
        merged,
    )
    return claims


def _check_qual2(cable: CableSpec, k: int, m: int, n: int) -> list:
    claims = []
    cls = classify(cable)
    tcls = quotient_transverse(cls)
    p = k * (n - 1) + m * (n - 2)
    sl_1 = tcls.max_sl - 2 * p
    _claim(
        claims,
        "cable slope lies in (1, oo) and the cable is not transversely simple",
        cable.slope.num > cable.slope.den and not tcls.simple,
        f"slope {cable.slope}",
    )
    _claim(
        claims,
        f"exactly {n - 1} transverse classes at sl = max - 2*{p} = {sl_1}",
        count_transverse(tcls, sl_1) == n - 1,
        f"found {count_transverse(tcls, sl_1)}",
    )
    heads_1 = [
        b for b in tcls.side_branches if b.sl_top == sl_1 and not b.destabilizable
    ]
    _claim(
        claims,
        f"exactly {n - 2} of them are non-destabilizable",
        len(heads_1) == n - 2,
        f"found {len(heads_1)}",
    )
    sl_2 = tcls.max_sl - 2 * (p + m)
    heads_2 = [
        b for b in tcls.side_branches if b.sl_top == sl_2 and not b.destabilizable
    ]
    _claim(
        claims,
        f"one further non-destabilizable class at sl = max - 2*{p + m} = {sl_2}",
        len(heads_2) == 1,
        f"found {len(heads_2)}",
    )
    merge = tcls.max_sl - 2 * (p + m + k)
    _claim(
        claims,
        f"every branch stays distinct until sl = max - 2*{p + m + k} = {merge}",
        all(b.merge_sl == merge for b in tcls.side_branches)
        and count_transverse(tcls, merge) == 1
        and count_transverse(tcls, merge + 2) > 1,
        f"merge depths {[b.merge_sl for b in tcls.side_branches]}",
    )
    return claims


def _check_qual4(cable: CableSpec, k: int, m: int, n: int) -> list:
    claims = []
    cls = classify(cable)
    tcls = quotient_transverse(cls)
    region = cls.region
    _claim(
        claims,
        f"constructed slope {cable.slope} lies in the upper influence interval of index {k}",
        region.kind == INFLUENCE_UPPER and region.index == k,
        str(region),
    )
    side = tcls.side_branches
    _claim(claims, "exactly one non-destabilizable transverse branch", len(side) == 1
           and not side[0].destabilizable, f"found {len(side)}")
    below = f"its self-linking number is at least 2*{n} below the maximum"
    merge = f"it must be stabilized exactly {m} times to merge with the top chain"
    if len(side) != 1:  # "it" names no branch, so both claims about it fail
        _claim(claims, below, False, f"found {len(side)}")
        _claim(claims, merge, False, f"found {len(side)}")
        return claims
    (branch,) = side
    _claim(
        claims,
        below,
        branch.sl_top <= tcls.max_sl - 2 * n,
        f"sl {branch.sl_top} vs max {tcls.max_sl}",
    )
    # A lone side branch keeps the count at 2 from its top down to its lowest live level.
    stays = count_transverse(tcls, branch.sl_top - 2 * m + 2) == 2
    merges = count_transverse(tcls, branch.sl_top - 2 * m) == 1
    _claim(
        claims,
        merge,
        stays and merges and branch.merge_sl == branch.sl_top - 2 * m,
        f"merge at {branch.merge_sl}",
    )
    return claims
