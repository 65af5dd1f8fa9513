import gc
import re
from collections import Counter
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torus_cables.cli import render_mountain
from torus_cables.legendrian import (
    PEAK,
    Branch,
    CableSpec,
    Classification,
    Common,
    Generator,
    _peak_rots,
    bennequin_bound,
    cable_rot,
    classes_at,
    classify,
    common_reachable,
    destabilizes,
    divide_tb,
    max_tb,
    mountain_range,
    ruling_tb,
    stabilize,
)
from torus_cables.torus_knots import LOW_RANGE, TorusKnotSpec, tori_census
from torus_cables.transverse import classify_transverse, quotient_transverse

from oracles import (
    CRITERION_10_KNOTS, S, T23, T25, T34, _PEAK_CABLES, _TREFOIL_BANDS, _WIDE_CABLES, _WIDE_KNOTS,
    _apex_scan_mountain_range, _flood_counts, _heads_in_peak_cones, _listed_generators,
    _probe_points, _render_by_cell, _scanned_common_reachable, _searched_destabilizes,
    _solved_counts, _sorted_peak_rots, grid_cables)


def gens_by_id(cls):
    return {g.id: g for g in cls.generators}


def class_key(c):
    """What identifies a class: its generator and word, or its position."""
    if isinstance(c, Branch):
        return ("branch", c.gen.id, c.x, c.y)
    return ("common", c.rot, c.tb)


def test_cable_spec_normalization():
    c = CableSpec(T23, 3, -2)
    assert (c.r, c.s) == (-3, 2)
    assert c.slope == S("-2/3")
    with pytest.raises(ValueError):
        CableSpec(T23, 0, 1)
    with pytest.raises(ValueError):
        CableSpec(T23, 2, 0)
    with pytest.raises(ValueError):
        CableSpec(T23, 2, 4)


def test_max_tb_examples():
    assert max_tb(CableSpec(T23, 2, 3)) == 6
    assert max_tb(CableSpec(T23, 3, 2)) == 5
    assert max_tb(CableSpec(T25, 3, 2)) == 6


def test_max_tb_equals_classify_tb_max():
    # Criterion 10's knots; the grid holds every s = 1, r >= w cable of them.
    checked = low_s1 = 0
    for cable in grid_cables(CRITERION_10_KNOTS, 30):
        assert max_tb(cable) == classify(cable).tb_max, cable
        checked += 1
        low_s1 += cable.s == 1
    assert low_s1 == sum(31 - spec.width for spec in CRITERION_10_KNOTS)
    assert checked > 6000


def test_bennequin_examples():
    assert bennequin_bound(CableSpec(T23, 2, 3)) == 7
    assert bennequin_bound(CableSpec(T25, 3, 2)) == 9
    assert bennequin_bound(CableSpec(T23, 3, 2)) == 5
    assert bennequin_bound(CableSpec(T23, 3, 2)) == max_tb(CableSpec(T23, 3, 2))


def test_classify_trefoil_2_3():
    cls = classify(CableSpec(T23, 2, 3))
    assert cls.tb_max == 6 and not cls.simple
    by_id = gens_by_id(cls)
    assert set(cls.peak_rots) == {1, -1}
    kp, km = by_id["protected_k:+"], by_id["protected_k:-"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (5, 2, 0, False)
    assert (km.tb, km.rot, km.bound, km.destabilizable) == (5, -2, 0, False)
    assert cls.parameters.c_prime == 0 and cls.parameters.c is None


def test_classify_2_5_cable_3_2():
    cls = classify(CableSpec(T25, 3, 2))
    assert cls.tb_max == 6 and not cls.simple
    assert sorted(cls.peak_rots) == [-3, -1, 1, 3]
    kp = gens_by_id(cls)["protected_k:+"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (6, 3, 0, True)
    assert cls.parameters.c == 0
    assert cls.parameters.e_n == S("2/3")


def test_classify_trefoil_2_5():
    cls = classify(CableSpec(T23, 2, 5))
    by_id = gens_by_id(cls)
    assert set(cls.peak_rots) == {3, -3}
    l2p = by_id["protected_l:2:+"]
    assert (l2p.tb, l2p.rot, l2p.bound) == (10, 3, 1)
    kp = by_id["protected_k:+"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (9, 4, 0, False)
    assert cls.parameters.c == 1 and cls.parameters.c_prime == 0


def test_classify_lower_influence():
    cls = classify(CableSpec(T25, 5, 3))  # slope 3/5 in (1/2, 2/3)
    assert cls.region.kind == "influence_lower" and cls.region.index == 2
    kp = gens_by_id(cls)["protected_k:+"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (14, 5, 0, False)


def test_classify_low_range_and_negative():
    cls = classify(CableSpec(T23, 3, 2))
    assert cls.simple and [g.rot for g in cls.generators] == [0]
    assert cls.generators[0].tb == 5
    cls = classify(CableSpec(T23, 3, -2))
    assert cls.simple and cls.tb_max == -6
    assert sorted(g.rot for g in cls.generators) == [-5, -3, -1, 1, 3, 5]


def test_classify_trefoil_integer_slope():
    # slope exactly at a band start: no protected pair of the second kind
    cls = classify(CableSpec(T23, 1, 2))
    assert cls.region.index == 2
    ids = {g.id for g in cls.generators}
    assert "protected_k:+" not in ids
    assert "protected_l:2:+" in ids
    assert not cls.simple
    # slope 1/1: the whole classification degenerates to a single class
    cls = classify(CableSpec(T23, 1, 1))
    assert cls.simple and [g.rot for g in cls.generators] == [0] and cls.tb_max == 1


def test_classify_rejects_degenerate_s1():
    # slopes 1/1 and 1/2 above the low range, and a negative slope
    for r in (1, 2, -3):
        message = (
            f"the ({r},1)-cable is the underlying knot with a framing the cable "
            "formulas do not cover; only r >= width is supported for s = 1"
        )
        for fn in (classify, classify_transverse, max_tb):
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(CableSpec(T25, r, 1))
    # s = 1 with r >= width is the honest low-range case
    assert classify(CableSpec(T25, 3, 1)).simple


def test_peak_rotations_examples():
    # rotation numbers at maximal tb, one entry per generator (multiset)
    def at_tb_max(cable):
        cls = classify(cable)
        return sorted(g.rot for g in cls.generators if g.tb == cls.tb_max)

    assert at_tb_max(CableSpec(T23, 3, -2)) == [-5, -3, -1, 1, 3, 5]
    assert at_tb_max(CableSpec(T25, 3, 2)) == [-3, -3, -1, 1, 3, 3]
    assert at_tb_max(CableSpec(T23, 2, 3)) == [-1, 1]


def test_peak_rotations_cardinality_negative_case():
    # one value per l in the arithmetic range, per sign family
    cable = CableSpec(T23, 3, -2)
    cls = classify(cable)
    w, n = 1, 1
    assert len([rot for rot in cls.peak_rots if rot > 0]) == w + n + 1


def test_stabilize_examples():
    cls = classify(CableSpec(T23, 2, 3))
    kp = gens_by_id(cls)["protected_k:+"]
    b = Branch(kp, 0, 0)
    down = stabilize(b, -1)
    assert isinstance(down, Branch) and (down.x, down.y) == (0, 1)
    assert (down.tb, down.rot) == (4, 1)
    collapsed = stabilize(b, 1)
    assert collapsed == Common(3, 4)
    assert stabilize(Common(0, 5), 1) == Common(1, 4)
    with pytest.raises(ValueError):
        stabilize(b, 0)
    with pytest.raises(TypeError):
        stabilize((0, 5), 1)


def test_same_class_examples():
    # Classes are frozen values: two are the same class exactly when they
    # are ==, which is equality of their generator and word, or position.
    cls = classify(CableSpec(T23, 2, 5))
    l2p = gens_by_id(cls)["protected_l:2:+"]
    assert Branch(l2p, 1, 4) == Branch(l2p, 1, 4)
    cls23 = classify(CableSpec(T23, 2, 3))
    kp = gens_by_id(cls23)["protected_k:+"]
    assert Branch(kp, 0, 1) != Common(1, 4)
    a = stabilize(Branch(kp, 0, 1), 1)
    b = stabilize(stabilize(Common(2, 5), 1), -1)
    assert a == b == Common(2, 3)
    classes = [
        c
        for tb in range(cls.tb_max - 6, cls.tb_max + 1)
        for rot in range(-tb - 20, tb + 21)
        for c in classes_at(cls, rot, tb)
    ]
    assert len(classes) == 84
    for x in classes:
        for y in classes:
            assert (x == y) == (class_key(x) == class_key(y)), (x, y)
    assert len(set(classes)) == len({class_key(c) for c in classes}) == len(classes)


def test_count_classes_examples():
    cls = classify(CableSpec(T23, 2, 5))
    expected = {(3, 10): 2, (-3, 10): 2, (4, 9): 3, (-4, 9): 3, (0, 7): 3,
                (1, 6): 4, (-1, 6): 4, (0, 5): 5, (0, 1): 1}
    for (rot, tb), want in expected.items():
        assert len(classes_at(cls, rot, tb)) == want, (rot, tb)
    assert classes_at(cls, 0, 6) == []  # even parity
    cls23 = classify(CableSpec(T23, 2, 3))
    assert len(classes_at(cls23, 0, 1)) == 1


def test_classes_at_matches_count():
    cls = classify(CableSpec(T25, 5, 3))
    mr = mountain_range(cls, cls.tb_max - 12)
    for tb in range(cls.tb_max - 12, cls.tb_max + 1):
        for rot in range(-14, 15):
            assert len(classes_at(cls, rot, tb)) == mr.count(rot, tb)


def test_mountain_range_examples():
    cls = classify(CableSpec(T23, 2, 5))
    mr = mountain_range(cls, 5)
    assert mr.count(3, 10) == 2 and mr.count(0, 5) == 5
    cls = classify(CableSpec(T23, 3, 2))
    mr = mountain_range(cls, 3)
    assert mr.count(0, 5) == 1 and mr.count(1, 4) == 1 and mr.count(2, 3) == 1
    assert all(c == 1 for c in mr.counts.values())
    with pytest.raises(ValueError):
        mountain_range(cls, 6)


def test_mountain_symmetry_and_parity():
    for cable in (CableSpec(T23, 2, 5), CableSpec(T25, 5, 3), CableSpec(T34, 7, 9)):
        cls = classify(cable)
        mr = mountain_range(cls, cls.tb_max - 10)
        for (rot, tb), c in mr.counts.items():
            assert (rot + tb) % 2 == 1
            assert mr.count(-rot, tb) == c


def test_bennequin_bound_on_generators():
    for cable in (CableSpec(T23, 2, 5), CableSpec(T25, 5, 3), CableSpec(T25, 3, 2),
                  CableSpec(T34, 7, 9), CableSpec(T23, 5, -3)):
        cls = classify(cable)
        bound = bennequin_bound(cable)
        for g in cls.generators:
            assert g.tb + abs(g.rot) <= bound


def test_destabilizes():
    cls = classify(CableSpec(T23, 2, 3))
    kp = gens_by_id(cls)["protected_k:+"]
    assert not destabilizes(cls, Branch(kp, 0, 0))
    assert destabilizes(cls, Branch(kp, 0, 1))
    assert destabilizes(cls, Common(0, 5))
    assert not destabilizes(cls, Common(1, 6))  # a peak


def test_destabilizable_flag_marks_the_generators_below_tb_max():
    # On criterion 10's knots: a generator is flagged non-destabilizable
    # exactly when it sits below maximal tb, and the class model finds no
    # class one level up that stabilizes onto such a head.
    lowered = 0
    for cable in grid_cables(CRITERION_10_KNOTS, 20):
        cls = classify(cable)
        for g in cls.generators:
            assert g.destabilizable == (g.tb == cls.tb_max), (cable, g)
            if g.protected and g.tb < cls.tb_max:
                assert not destabilizes(cls, Branch(g, 0, 0)), (cable, g)
                lowered += 1
    assert lowered == 756


def _destabilizes_matches_search(cls, tb_floor):
    # Compare the rule with the search on every class from tb_max down to the
    # floor; returns how many classes there were and how many destabilize.
    classes = destabilizing = 0
    for rot, tb in mountain_range(cls, tb_floor).counts:
        for klass in classes_at(cls, rot, tb):
            got = destabilizes(cls, klass)
            assert got == _searched_destabilizes(cls, klass), (cls.cable, klass)
            classes += 1
            destabilizing += got
    return classes, destabilizing


def test_destabilizes_matches_search_on_grid():
    # Criterion 7a's grid, every class from tb_max down to tb_max - 8.
    classes = destabilizing = heads = 0
    for cable in grid_cables((T25, T34), 10):
        cls = classify(cable)
        assert _heads_in_peak_cones(cls), cls.cable
        heads += len(cls.branches)
        seen, down = _destabilizes_matches_search(cls, cls.tb_max - 8)
        classes += seen
        destabilizing += down
    assert classes == 47543
    assert heads > 0 and 0 < destabilizing < classes


def test_divide_and_ruling_tb():
    assert divide_tb(2, 3) == 6
    assert ruling_tb(3, 2, S("1/1"), 1) == 5
    assert ruling_tb(1, 1, S("1/0"), 1) == 0
    assert ruling_tb(3, 2, S("1/1"), 2) == 4
    with pytest.raises(ValueError):
        ruling_tb(3, 2, S("2/3"), 1)
    with pytest.raises(ValueError):
        ruling_tb(2, 4, S("1/1"))
    with pytest.raises(ValueError):
        ruling_tb(3, 2, S("1/1"), 0)
    with pytest.raises(ValueError):
        divide_tb(2, 4)


def test_cable_rot():
    assert cable_rot(5, 3, 1, 0) == 5
    assert cable_rot(3, 2, 0, 0) == 0
    assert cable_rot(4, 7, -2, 3) == 13


def test_counts_match_stabilization_flood():
    # mountain_range builds its rows from the solved form; the flood of
    # stabilize from the generator heads and classes_at on every cell are
    # its two oracles.  Every class with tb within `depth` of the top is the
    # image of some word of that length applied to a head, so all three
    # must agree on that band of the lattice.  The depth reaches the
    # triple-point diamonds of T(2,5)_(7,5) and _(10,7), which sit 8-10 and
    # 11-15 levels below the top.  Besides the bottom of the band, every
    # floor from the lowest head up to tb_max is checked, so the floors of
    # T(2,5)_(8,9) (influence_lower) and T(2,3)_(7,11) (protected_k at
    # rs - delta, with delta = 3) cut between the top and a lower protected
    # head.
    depth = 15
    cables = [CableSpec(T23, 2, 3), CableSpec(T23, 2, 5), CableSpec(T23, 3, 8),
              CableSpec(T25, 3, 2), CableSpec(T25, 5, 3), CableSpec(T25, 7, 5),
              CableSpec(T34, 9, 7), CableSpec(T25, 4, 3), CableSpec(T23, 3, -2),
              CableSpec(T25, 10, 7), CableSpec(T25, 8, 9), CableSpec(T23, 7, 11)]
    cables += grid_cables((T25, T34), 10)  # criterion 7a's grid
    lowered = 0
    for cable in cables:
        cls = classify(cable)
        solved = _solved_counts(cls, cls.tb_max - depth)
        lowest_head = min(g.tb for g in cls.generators)
        lowered += lowest_head < cls.tb_max - 1
        for floor in {cls.tb_max - depth, *range(lowest_head, cls.tb_max + 1)}:
            got = mountain_range(cls, floor).counts
            assert got == _flood_counts(cls, floor), (cable, floor)
            assert got == {pt: c for pt, c in solved.items() if pt[1] >= floor}, (cable, floor)
    assert lowered >= 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES, st.integers(0, 30))
def test_mountain_range_matches_flood_on_wide_knots(cable, depth):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    cls = classify(CableSpec(knot, r, s))
    mr = mountain_range(cls, cls.tb_max - depth)
    assert list(mr.counts.items()) == list(_flood_counts(cls, cls.tb_max - depth).items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES, st.integers(0, 30))
def test_destabilizes_matches_search_on_wide_knots(cable, depth):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    cls = classify(CableSpec(knot, r, s))
    assert _heads_in_peak_cones(cls), cls.cable
    _destabilizes_matches_search(cls, cls.tb_max - depth)


def test_mountain_counts_keep_tb_then_rot_order():
    # The key order of counts is part of the --json output: rows from the
    # floor up, each row in ascending rot, whatever order the generators,
    # the merged cones and the branch intervals come in.
    for cable in (CableSpec(T23, 2, 5), CableSpec(T25, 10, 7), CableSpec(T23, 7, 11)):
        cls = classify(cable)
        assert cls.branches
        mr = mountain_range(cls, cls.tb_max - 12)
        assert list(mr.counts) == sorted(mr.counts, key=lambda pt: (pt[1], pt[0]))


def _assert_runs_are_the_cells(mr):
    # runs holds one row per tb from the floor up; a row's runs are
    # non-empty, ascending and disjoint, each a nonzero count on every
    # second rot of [start, stop).  Expanded, they are counts: the same
    # keys, the same values and the same (tb, rot) key order.  The floor
    # row is non-empty and spans every row, which render_mountain reads.
    assert len(mr.runs) == mr.tb_max - mr.tb_floor + 1
    floor = mr.runs[0]
    assert floor, mr.tb_floor
    for row in mr.runs:
        if row:
            assert floor[0][0] <= row[0][0] and row[-1][1] <= floor[-1][1], (floor, row)
    expanded = {}
    for tb, row in zip(range(mr.tb_floor, mr.tb_max + 1), mr.runs):
        end = None
        for start, stop, n in row:
            assert end is None or end <= start, (tb, row)
            assert stop - start > 0 and (stop - start) % 2 == 0 and n >= 1, (tb, row)
            end = stop
            expanded.update(((rot, tb), n) for rot in range(start, stop, 2))
    assert list(expanded.items()) == list(mr.counts.items())


def test_runs_are_the_cells_on_grid_and_low_floors():
    # Criterion 7a's grid at its depth of 40, and every floor from three
    # below the lowest head up to tb_max of the cables whose floors cut
    # between the top and a lower protected head: T(2,5)_(8,9)
    # (influence_lower) and T(2,3)_(7,11) (protected_k at rs - delta).
    for cable in grid_cables((T25, T34), 10):
        cls = classify(cable)
        _assert_runs_are_the_cells(mountain_range(cls, cls.tb_max - 40))
    for cable in (CableSpec(T25, 8, 9), CableSpec(T23, 7, 11)):
        cls = classify(cable)
        lowest_head = min(g.tb for g in cls.branches)
        assert lowest_head < cls.tb_max - 1, cable
        for floor in range(lowest_head - 3, cls.tb_max + 1):
            _assert_runs_are_the_cells(mountain_range(cls, floor))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES, st.integers(0, 40))
def test_runs_are_the_cells_on_wide_knots(cable, depth):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    cls = classify(CableSpec(knot, r, s))
    _assert_runs_are_the_cells(mountain_range(cls, cls.tb_max - depth))


def _assert_matches_apex_scan(cls, tb_floor):
    mr = mountain_range(cls, tb_floor)
    counts, runs = _apex_scan_mountain_range(cls, tb_floor)
    assert mr.runs == runs, (cls.cable, tb_floor)
    assert list(mr.counts.items()) == list(counts.items()), (cls.cable, tb_floor)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES, st.integers(0, 30))
def test_mountain_range_matches_apex_scan_on_wide_knots(cable, depth):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    cls = classify(CableSpec(knot, r, s))
    _assert_matches_apex_scan(cls, cls.tb_max - depth)


def test_mountain_range_matches_apex_scan_on_grid_and_many_peaks():
    # Criterion 7a's grid at depth 15, and four cables with many peaks or
    # many branches at depths 0, 1, s - 2, s - 1, s and 20.  The peak gaps
    # 2h and 2s - 2h, h = s*ceil(r/s) - r, are both below 2s, so the gap rule
    # has merged every split by depth s - 1; the rows nearer the top keep
    # some open.  A gap 2g opens between depths g - 1 and g - 2, so the
    # depths h - 2, h - 1, s - h - 2 and s - h - 1 that are not negative take
    # each switch of the row's form from both sides.
    for cable in grid_cables((T25, T34), 10):
        cls = classify(cable)
        _assert_matches_apex_scan(cls, cls.tb_max - 15)
    cables = [CableSpec(TorusKnotSpec(71, 73), 7, 3), CableSpec(TorusKnotSpec(31, 33), -150, 7),
              CableSpec(TorusKnotSpec(11, 13), 101, 97), CableSpec(T23, 3, 152)]
    for cable in cables:
        cls = classify(cable)
        s = cable.s
        h = s * -(-cable.r // s) - cable.r
        switches = (h - 2, h - 1, s - h - 2, s - h - 1)
        for depth in sorted({0, 1, s - 2, s - 1, s, 20}.union(d for d in switches if d >= 0)):
            _assert_matches_apex_scan(cls, cls.tb_max - depth)


def test_oracles_catch_a_head_outside_every_peak_cone():
    # mountain_range, common_reachable and destabilizes read the common
    # class from the peak cones alone, quotient_transverse reads the maximal
    # self-linking from the end peaks alone, and render_mountain reads its
    # span from the floor row alone; each holds because every protected
    # head lies in a peak cone (_heads_in_peak_cones).  The oracles still
    # flood or scan the branch collapse heads, take the maximum over every
    # generator, or span every cell, so they must catch a classification
    # doctored to break that: its plus head, on the edge of the outermost
    # peak's cone, moved 2 rot further out, parity kept.
    for cable in (CableSpec(T25, 8, 9), CableSpec(T23, 7, 11)):
        cls = classify(cable)
        g = next(g for g in cls.branches if g.sign == 1)
        moved = Generator(g.kind, g.tb, g.rot + 2, g.sign, g.index, g.bound, g.destabilizable)
        doctored = Classification(cls.cable, cls.region, cls.parameters, cls.peaks,
                                  tuple(moved if h == g else h for h in cls.branches))
        depth = cls.tb_max - moved.tb
        assert min(abs(moved.rot - rot) for rot in cls.peak_rots) == depth + 2, cable
        assert _heads_in_peak_cones(cls) and not _heads_in_peak_cones(doctored), cable
        floor = cls.tb_max - 15
        flood = _flood_counts(doctored, floor)
        mr = mountain_range(doctored, floor)
        counts, runs = _apex_scan_mountain_range(doctored, floor)
        assert mr.counts != flood, cable
        assert mr.counts != counts and mr.runs != runs, cable
        assert any(common_reachable(doctored, *pt) != _scanned_common_reachable(doctored, *pt)
                   for pt in flood), cable
        # The flood's classes: the branch classes classes_at lists, and the
        # common class wherever the flood counts one more.
        classes = []
        for (rot, tb), n in flood.items():
            branch = [c for c in classes_at(doctored, rot, tb) if isinstance(c, Branch)]
            classes += branch + [Common(rot, tb)] * (n > len(branch))
        assert any(destabilizes(doctored, c) != _searched_destabilizes(doctored, c)
                   for c in classes), cable
        top = max(g.tb + abs(g.rot) for g in doctored.generators)
        assert quotient_transverse(doctored).max_sl < top, cable
        # On some floor render_mountain gives other bytes than the per-cell
        # reference, or raises ValueError on a span too narrow for a cell.
        renders = []
        for floor in range(moved.tb, moved.tb - 21, -1):
            mr = mountain_range(doctored, floor)
            try:
                renders.append(render_mountain(mr) == _render_by_cell(mr))
            except ValueError:
                renders.append(False)
        assert not all(renders), cable


def _one_peak_per_standard_solid_torus(knots, s_min, s_max):
    # Cross-layer check of the census against classify: every standard
    # solid torus at the cable slope carries one maximal-tb peak.  Checks
    # each cable with |r| <= 40 and s_min <= s <= s_max that classify and
    # the census both accept; returns the cables checked, the cables the
    # census refused and the regions of the checked ones.
    checked = refused = 0
    regions = Counter()
    for cable in grid_cables(knots, 40):
        if not s_min <= cable.s <= s_max:
            continue
        try:
            record = tori_census(cable.knot, cable.slope)
        except ValueError:
            refused += 1
            continue
        cls = classify(cable)
        assert record.standard_count == len(cls.peak_rots), cable
        assert _heads_in_peak_cones(cls), cable
        checked += 1
        regions[cls.region.kind] += 1
    return checked, refused, regions


def test_one_peak_per_standard_solid_torus():
    # The s = 1 cables with r < w, the slopes -1/t among them, are outside
    # classify; of the rest the census refuses the trefoil's (0, 1] and the
    # slopes below 1/w, and every cable it accepts is checked, in all six
    # regions.
    knots = [*CRITERION_10_KNOTS, TorusKnotSpec(5, 7)]
    checked, refused, regions = _one_peak_per_standard_solid_torus(knots, 1, 24)
    assert (checked, refused) == (7074, 900)
    assert len(regions) == 6, regions


def test_one_peak_per_standard_solid_torus_on_wide_knots():
    # The wide family's box, 2 <= s <= 24: every region but the low range,
    # which needs s/r <= 1/w, and many peaks per cable on the near-diagonal
    # knots.
    checked, refused, regions = _one_peak_per_standard_solid_torus(_WIDE_KNOTS, 2, 24)
    assert (checked, refused) == (43447, 793)
    assert regions == {"negative": 22120, "simple_mid": 16968, "influence_upper": 2420,
                       "influence_lower": 1760, "trefoil_band": 179}, regions


def test_generator_parity_everywhere():
    for cable in grid_cables((T23, T25, T34), 8):
        for g in classify(cable).generators:
            assert (g.tb + g.rot) % 2 == 1


def _assert_peaks_then_branches(cls):
    # generators lists the peaks, one Generator(PEAK, tb_max, rot) for each
    # rot of peak_rots in order, then branches, and every branch is
    # protected.
    gens = cls.generators
    peaks = gens[:len(cls.peak_rots)]
    assert peaks == tuple(Generator(PEAK, cls.tb_max, rot) for rot in cls.peak_rots), cls.cable
    assert gens[len(peaks):] == cls.branches, cls.cable
    assert all(g.protected for g in cls.branches), cls.cable
    assert cls.simple == (not any(g.protected for g in gens))


def test_generators_are_peaks_then_branches_on_criterion_10_knots():
    branched = 0
    for cable in grid_cables(CRITERION_10_KNOTS, 20):
        cls = classify(cable)
        _assert_peaks_then_branches(cls)
        branched += not cls.simple
    assert branched > 100


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_WIDE_CABLES)
def test_generators_are_peaks_then_branches_on_wide_knots(cable):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    _assert_peaks_then_branches(classify(CableSpec(knot, r, s)))


# (r, s, w) with k = ceil(r/s), as classify has it: r = s*k - h with
# 0 <= h < s, so the two progressions +/-(r - s*k) + s*rho coincide when
# h = 0 and interleave term by term otherwise; w < k leaves no terms.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-200, 200).filter(bool), st.integers(1, 12), st.integers(-5, 60))
@example(6, 1, 8)  # coincident, s = 1
@example(6, 3, 5)  # coincident, h = 0 with s > 1
@example(7, 3, 10)  # interleaved
@example(30, 7, 3)  # no terms: w < k = 5
def test_peak_rots_match_set_and_sort(r, s, w):
    # One term of each progression in turn, lower first; none is dropped.
    rots = [rot for terms in zip_longest(*_peak_rots(r, s, w)) for rot in terms if rot is not None]
    assert rots == _sorted_peak_rots(r, s, -(-r // s), w), (r, s, w)
    assert all(a < b for a, b in zip(rots, rots[1:])), (r, s, w)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_PEAK_CABLES)
def test_peaks_and_common_reachable_match_oracles(cable):
    # The peak rots ascend strictly, which is what lets quotient_transverse
    # read the two ends and common_reachable bisect.
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1 and not (s == 1 and r < knot.width))
    cls = classify(CableSpec(knot, r, s))
    rots = list(cls.peak_rots)
    assert rots, cls.cable
    assert all(a < b for a, b in zip(rots, rots[1:])), cls.cable
    # The two progressions alternate, so mountain_range's gap rule opens
    # and merges the splits between peaks in at most two groups.
    assert len({b - a for a, b in zip(rots, rots[1:])}) <= 2, cls.cable
    assert {g.tb for g in cls.generators[:len(rots)]} == {cls.tb_max}, cls.cable
    if cls.region.kind != LOW_RANGE:
        assert rots == _sorted_peak_rots(r, s, -(-r // s), knot.width), cls.cable
    assert _heads_in_peak_cones(cls), cls.cable
    for rot, tb in _probe_points(cls):
        assert common_reachable(cls, rot, tb) == _scanned_common_reachable(cls, rot, tb), (
            cls.cable, rot, tb)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(_WIDE_CABLES, _TREFOIL_BANDS))
@example((T23, 1, 50))
@example((T23, 3, 152))
@example((T23, 1, 1))  # s = 1: the two progressions coincide, one range
@example((T25, 7, 2))  # the low range: the one peak range(0, 1)
def test_generators_match_listed_generators(cable):
    knot, r, s = cable
    assume(r != 0 and gcd(abs(r), s) == 1)
    cls = classify(CableSpec(knot, r, s))
    assert _heads_in_peak_cones(cls), cls.cable
    got, want = cls.generators, _listed_generators(cls)
    assert len(got) == len(want), cls.cable
    for g, h in zip(got, want):
        assert type(g) is Generator and tuple(g) == tuple(h), (cls.cable, g, h)


def test_generators_check_each_peak_progression():
    # generators runs Generator's parity check on each progression's first
    # two terms only, and builds the rest past it; a progression doctored
    # off parity, by its start or by its step, must still raise.
    cls = classify(CableSpec(T25, 8, 9))
    lower, upper = cls.peaks
    assert len(upper) > 2, cls.peaks
    shifted = range(upper.start + 1, upper.stop + 1, upper.step)
    odd_step = range(upper.start, upper.stop + len(upper), upper.step + 1)  # same length
    for doctored, bad in ((shifted, shifted[0]), (odd_step, odd_step[1])):
        assert len(doctored) == len(upper) and (cls.tb_max + bad) % 2 == 0, doctored
        broken = Classification(cls.cable, cls.region, cls.parameters, (lower, doctored),
                                cls.branches)
        message = f"tb + rot must be odd, got ({cls.tb_max}, {bad})"
        with pytest.raises(ValueError, match=re.escape(message)):
            broken.generators


def test_generators_start_no_collection():
    # generators builds the peaks with the cyclic collector paused: the
    # 10,074 peaks of T(71,73)_(7,3) are far past gen 0's threshold of 700
    # allocations, yet no collection starts until the caller allocates.
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        gens = classify(CableSpec(TorusKnotSpec(71, 73), 7, 3)).generators
        n = len(started)
    finally:
        gc.callbacks.remove(hook)
        if not was:
            gc.disable()
    assert len(gens) == 10074
    assert n == 0, started


class _Exploding(list):
    """A progression that passes the parity check and fails mid-build."""

    def __iter__(self):
        raise RuntimeError("fails inside the pause")


@pytest.mark.parametrize("enabled", [True, False])
def test_generators_restore_the_collector_state(enabled):
    # The pause ends as it began, whether the caller had the collector on
    # or off, and whether generators returns or raises before or during
    # the build.
    cls = classify(CableSpec(T25, 8, 9))
    lower, upper = cls.peaks
    shifted = range(upper.start + 1, upper.stop + 1, upper.step)
    odd_step = range(upper.start, upper.stop + len(upper), upper.step + 1)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cls.generators == tuple(_listed_generators(cls))
        assert gc.isenabled() == enabled
        for doctored, error in ((shifted, ValueError), (odd_step, ValueError),
                                (_Exploding(upper), RuntimeError)):
            broken = Classification(cls.cable, cls.region, cls.parameters, (lower, doctored),
                                    cls.branches)
            with pytest.raises(error):
                broken.generators
            assert gc.isenabled() == enabled, doctored
    finally:
        (gc.enable if was else gc.disable)()
