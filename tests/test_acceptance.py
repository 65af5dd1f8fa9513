"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Criterion 7 is split into its two clauses.  The first bounds every
lattice count by three.  The second pins down where three is attained: the
diamond in which the protected strip of the plus branch crosses its mirror,
with side the transverse merge depth that criterion 9 checks.  It is one
point, hence one rot-symmetric pair, exactly when that depth is 1.
"""

import functools
import random
import time
from math import gcd

from torus_cables.bypass import FRONT, BACK, TorusState, attach_bypass, attach_bypass_oracle
from torus_cables.farey import is_edge, mediant, neighbors, neighbors_oracle
from torus_cables.legendrian import (
    CableSpec,
    bennequin_bound,
    classes_at,
    classify,
    mountain_range,
)
from torus_cables.torus_knots import exceptional_indices, influence_interval, locate, tori_census
from torus_cables.transverse import (
    classify_transverse,
    count_transverse,
    quotient_transverse,
    verify_qualitative,
)

from oracles import CRITERION_10_KNOTS, S, T23, T25, T34, grid_cables, grid_slopes, positive_slopes


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_farey_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for u in positive_slopes(60, 60):
        pair = neighbors(u)
        assert pair == neighbors_oracle(u, 200), u
        upper, lower = pair
        assert is_edge(u, upper) and is_edge(u, lower) and is_edge(upper, lower), u
        assert mediant(upper, lower) == u, u
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 2100
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"neighbors == oracle plus edge/mediant identities on {checked} slopes in {elapsed:.2f}s")


def test_criterion_2_bypass_oracle_equivalence():
    start = time.monotonic()
    slopes = grid_slopes(12)
    checked = 0
    for dividing in slopes:
        for ruling in slopes:
            if dividing == ruling:
                continue
            state = TorusState(dividing, ruling)
            for side in (FRONT, BACK):
                assert attach_bypass(state, side) == attach_bypass_oracle(state, side, 50), (
                    dividing,
                    ruling,
                    side,
                )
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"closed form == arc search on {checked} attachments in {elapsed:.2f}s")


def test_criterion_3_published_values_regression():
    cable = CableSpec(T23, 2, 3)
    cls = classify(cable)
    assert cls.tb_max == 6
    assert sorted(cls.peak_rots) == [-1, 1]
    ks = sorted((g.rot, g.tb, g.destabilizable) for g in cls.branches)
    assert ks == [(-2, 5, False), (2, 5, False)]
    t = quotient_transverse(cls)
    assert t.max_sl == 7
    heads = [(b.sl_top, b.destabilizable) for b in t.side_branches]
    assert heads == [(3, False)]
    for sl in (1, -1, -3, -5):
        assert count_transverse(t, sl) == 1
    report(3, "the (2,3)-cable of the trefoil matches its published classification exactly")


def test_criterion_4_figure_counts():
    cls = classify(CableSpec(T23, 2, 5))
    n = 2
    expected = {
        (3, 10): n, (-3, 10): n,
        (4, 9): n + 1, (-4, 9): n + 1,
        (0, 7): 2 * n - 1,
        (1, 6): 2 * n, (-1, 6): 2 * n,
        (0, 5): 2 * n + 1,
        (0, 1): 1,
    }
    for (rot, tb), want in expected.items():
        got = len(classes_at(cls, rot, tb))
        assert got == want, f"({rot},{tb}): got {got}, want {want}"
    report(4, "the lattice counts n, n+1, 2n-1, 2n, 2n+1, 1 all appear at the derived points")


def test_criterion_5_interval_disjointness():
    for spec in CRITERION_10_KNOTS[1:]:  # the trefoil's intervals nest; checked below
        ivs = [influence_interval(spec, n) for n in sorted(exceptional_indices(spec, 50))]
        for a, b in zip(ivs, ivs[1:]):
            assert a.upper.value <= b.lower.value, (spec, a.index, b.index)
    trefoil_ivs = [influence_interval(T23, n) for n in range(2, 51)]
    for a, b in zip(trefoil_ivs, trefoil_ivs[1:]):
        assert a.upper.is_infinite and b.upper.is_infinite
        assert a.lower.value < b.lower.value  # nested downward
    report(5, "influence intervals pairwise disjoint for five knots (nested for the trefoil), n <= 50")


def test_criterion_6_census():
    rec = tori_census(T23, S("7/2"))
    assert (rec.torus_count, rec.standard_count) == (6, 2)
    rec = tori_census(T25, S("2/5"))
    assert (rec.torus_count, rec.standard_count) == (2, 2)
    rec = tori_census(T25, S("1/2"))
    assert (rec.torus_count, rec.standard_count) == (2, 2)
    assert "tb=2" in rec.note
    report(6, "census counts 6/2, 2/2 and the two tb=2 neighborhoods reproduce exactly")


@functools.cache
def _grid_counts(spec):
    """Per grid cable down to tb_max - 40: the largest count and the count-3
    points.  Cached, so that criteria 7a and 7b share one scan."""
    out = {}
    for cable in grid_cables((spec,), 10):
        cls = classify(cable)
        counts = mountain_range(cls, cls.tb_max - 40).counts
        out[cable] = (max(counts.values()), {pt for pt, c in counts.items() if c == 3})
    return out


def _merge_depth(cable):
    """Stabilizations the transverse side branch survives; 0 without one."""
    side = classify_transverse(cable).side_branches
    if not side:
        return 0
    (branch,) = side
    return (branch.sl_top - branch.merge_sl) // 2


def _predicted_diamond(cable, tb_floor):
    """Where the protected strip of K_+ crosses the mirror strip of K_-.

    K_+ sits at (rho, t) and keeps S_+^x S_-^y K_+ apart for x < depth and
    every y; K_- carries the mirror strip.  The words x = a, y = rho + b on
    K_+ and x = b, y = rho + a on K_- meet at (a - b, t - rho - a - b).
    The side comes from the direct transverse route, not the class model.
    """
    depth = _merge_depth(cable)
    if not depth:
        return set()
    (plus,) = [g for g in classify(cable).branches if g.sign == 1]
    rho, t = plus.rot, plus.tb
    return {
        (a - b, t - rho - a - b)
        for a in range(depth)
        for b in range(depth)
        if t - rho - a - b >= tb_floor and rho + min(a, b) >= 0
    }


def test_criterion_7a_count_bound_at_most_three():
    start = time.monotonic()
    for spec in (T25, T34):
        for cable, (top, _) in _grid_counts(spec).items():
            assert top <= 3, cable
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(
        "7a",
        f"at most 3 classes on every lattice point down to tb_max - 40 ({elapsed:.2f}s)",
    )


def test_criterion_7b_count_three_at_one_symmetric_pair():
    # The triple points are the (c+1)^2 crossing diamond of the two protected
    # strips S_+^x S_-^y K_+ and its mirror (x <= c, y unbounded), and c + 1
    # is the number of stabilizations the transverse branch needs to merge.
    # Criterion 9 has that number reach m for every m <= 4, so three classes
    # sit at a single rot-symmetric pair only when the depth is 1 (c = 0).
    start = time.monotonic()
    grid = deep = 0
    for spec in (T25, T34):
        for cable, (_, pts) in _grid_counts(spec).items():
            tb_floor = classify(cable).tb_max - 40
            assert pts == _predicted_diamond(cable, tb_floor), (cable, sorted(pts))
            one_pair = len({(abs(rot), tb) for rot, tb in pts}) <= 1
            assert one_pair == (_merge_depth(cable) <= 1), (cable, sorted(pts))
            grid += 1
            deep += not one_pair
    qual4 = 0
    for spec in (T25, T34):
        for k in range(2, 5):
            if gcd(k, spec.width) != 1:
                continue
            for m in range(1, 5):
                for n in range(1, 5):
                    if gcd(m, n) != 1:
                        continue
                    cable = verify_qualitative(spec, "qual4", k, m, n).cable
                    cls = classify(cable)
                    (plus,) = [g for g in cls.branches if g.sign == 1]
                    tb_floor = plus.tb - plus.rot - 2 * (m - 1)
                    counts = mountain_range(cls, tb_floor).counts
                    pts = {pt for pt, c in counts.items() if c == 3}
                    assert len(pts) == m * m, (spec, k, m, n, sorted(pts))
                    assert pts == _predicted_diamond(cable, tb_floor), (spec, k, m, n)
                    qual4 += 1
    elapsed = time.monotonic() - start
    report(
        "7b",
        f"count-3 locus == merge-depth diamond on {grid} grid cables ({deep} beyond one "
        f"symmetric pair) and m^2 triple points on {qual4} qual4 cables ({elapsed:.2f}s)",
    )


def test_criterion_8_quotient_coherence():
    checked = 0
    for cable in grid_cables((T23, T25, T34), 12):
        via_quotient = quotient_transverse(classify(cable))
        direct = classify_transverse(cable)
        assert via_quotient.max_sl == direct.max_sl, cable
        assert via_quotient.simple == direct.simple, cable
        assert [
            (b.origin, b.sl_top, b.merge_sl, b.destabilizable) for b in via_quotient.branches
        ] == [(b.origin, b.sl_top, b.merge_sl, b.destabilizable) for b in direct.branches], cable
        checked += 1
    assert checked > 300
    report(8, f"quotient route == direct route on {checked} cables with |r|, s <= 12")


def test_criterion_9_qualitative_verifiers():
    start = time.monotonic()
    ran = 0
    for k in range(1, 5):
        for m in range(1, 5):
            if gcd(k, m) != 1:
                continue
            for n in range(2, 5):
                rep = verify_qualitative(T23, "qual1", k, m, n)
                assert rep.passed, (k, m, n, [c for c in rep.claims if not c.passed])
                ran += 1
                if n >= 3:
                    rep = verify_qualitative(T23, "qual2", k, m, n)
                    assert rep.passed, (k, m, n)
                    ran += 1
    for spec in (T25, T34):
        for k in range(2, 5):
            if gcd(k, spec.width) != 1:
                continue
            for m in range(1, 5):
                for n in range(1, 5):
                    if gcd(m, n) != 1:
                        continue
                    rep = verify_qualitative(spec, "qual4", k, m, n)
                    assert rep.passed, (spec, k, m, n)
                    ran += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    assert ran >= 60
    report(9, f"{ran} parameter tuples across qual1/qual2/qual4, every claim line passing ({elapsed:.2f}s)")


def test_criterion_10_global_property_suite():
    start = time.monotonic()
    rng = random.Random(20260810)
    sampled = 0
    while sampled < 500:
        spec = rng.choice(CRITERION_10_KNOTS)
        r = rng.randint(-12, 12)
        s = rng.randint(1, 12)
        if r == 0 or gcd(abs(r), s) != 1:
            continue
        if s == 1 and r < spec.width:
            continue
        cable = CableSpec(spec, r, s)
        cls = classify(cable)
        bound = bennequin_bound(cable)
        for g in cls.generators:
            assert (g.tb + g.rot) % 2 == 1
            assert g.tb + abs(g.rot) <= bound
        t = quotient_transverse(cls)
        assert t.max_sl <= bound
        for b in t.branches:
            assert b.sl_top % 2 == 1 and b.sl_top <= bound
        mr = mountain_range(cls, cls.tb_max - 8)
        for (rot, tb), c in mr.counts.items():
            assert mr.count(-rot, tb) == c
            assert (rot + tb) % 2 == 1
        region = locate(spec, cable.slope)
        if spec.is_trefoil:
            expected_simple = cable.slope.is_negative() or cable.slope.value <= 1
        else:
            expected_simple = region.kind not in ("influence_upper", "influence_lower")
        assert cls.simple == expected_simple, cable
        sampled += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(10, f"parity, bound, symmetry and simplicity-iff-region on {sampled} random cables ({elapsed:.2f}s)")
