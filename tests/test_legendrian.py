import re
from math import gcd

import pytest

from torus_cables.legendrian import (
    Branch,
    CableSpec,
    Common,
    bennequin_bound,
    cable_rot,
    classes_at,
    classify,
    count_classes,
    destabilizes,
    divide_tb,
    max_tb,
    mountain_range,
    ruling_tb,
    stabilize,
)
from torus_cables.torus_knots import TorusKnotSpec
from torus_cables.transverse import classify_transverse

from conftest import S, reduced_pairs

T23 = TorusKnotSpec(2, 3)
T25 = TorusKnotSpec(2, 5)
T34 = TorusKnotSpec(3, 4)


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
    knots = [T23, T25, T34, TorusKnotSpec(2, 7), TorusKnotSpec(3, 5), TorusKnotSpec(4, 5)]
    checked = low_s1 = 0
    for spec in knots:
        for r, s in reduced_pairs(30):
            if s == 1 and r < spec.width:
                continue
            cable = CableSpec(spec, r, s)
            assert max_tb(cable) == classify(cable).tb_max, cable
            checked += 1
            low_s1 += s == 1
    assert low_s1 == sum(31 - spec.width for spec in knots)
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
    assert {g.rot for g in cls.peaks} == {1, -1}
    kp, km = by_id["protected_k:+"], by_id["protected_k:-"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (5, 2, 0, False)
    assert (km.tb, km.rot, km.bound, km.destabilizable) == (5, -2, 0, False)
    assert cls.parameters.c_prime == 0 and cls.parameters.c is None


def test_classify_2_5_cable_3_2():
    cls = classify(CableSpec(T25, 3, 2))
    assert cls.tb_max == 6 and not cls.simple
    assert sorted(g.rot for g in cls.peaks) == [-3, -1, 1, 3]
    kp = gens_by_id(cls)["protected_k:+"]
    assert (kp.tb, kp.rot, kp.bound, kp.destabilizable) == (6, 3, 0, True)
    assert cls.parameters.c == 0
    assert cls.parameters.e_n == S("2/3")


def test_classify_trefoil_2_5():
    cls = classify(CableSpec(T23, 2, 5))
    by_id = gens_by_id(cls)
    assert {g.rot for g in cls.peaks} == {3, -3}
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
    assert len([g for g in cls.peaks if g.rot > 0]) == w + n + 1


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
        assert count_classes(cls, rot, tb) == want, (rot, tb)
    assert count_classes(cls, 0, 6) == 0  # even parity
    cls23 = classify(CableSpec(T23, 2, 3))
    assert count_classes(cls23, 0, 1) == 1


def test_classes_at_matches_count():
    cls = classify(CableSpec(T25, 5, 3))
    for tb in range(cls.tb_max - 12, cls.tb_max + 1):
        for rot in range(-14, 15):
            assert len(classes_at(cls, rot, tb)) == count_classes(cls, rot, tb)


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


def test_divide_and_ruling_tb():
    assert divide_tb(2, 3) == 6
    assert ruling_tb(3, 2, S("1/1"), 1) == 5
    assert ruling_tb(1, 1, S("1/0"), 1) == 0
    assert ruling_tb(3, 2, S("1/1"), 2) == 4
    with pytest.raises(ValueError):
        ruling_tb(3, 2, S("2/3"), 1)


def test_cable_rot():
    assert cable_rot(5, 3, 1, 0) == 5
    assert cable_rot(3, 2, 0, 0) == 0
    assert cable_rot(4, 7, -2, 3) == 13


def _solved_counts(cls, tb_floor):
    # The solved form on every cell of the band, one rot cell past the
    # generator cones on each side.
    counts = {}
    for tb in range(tb_floor, cls.tb_max + 1):
        lo = min(g.rot - (g.tb - tb) for g in cls.generators) - 1
        hi = max(g.rot + (g.tb - tb) for g in cls.generators) + 1
        for rot in range(lo, hi + 1):
            c = count_classes(cls, rot, tb)
            if c:
                counts[(rot, tb)] = c
    return counts


def test_counts_match_stabilization_flood():
    # mountain_range floods the generator heads with stabilize; every class
    # with tb within `depth` of the top is the image of some word of that
    # length applied to a head, so the flood and the solved form must agree
    # on that band of the lattice.  The depth reaches the triple-point
    # diamonds of T(2,5)_(7,5) and _(10,7), which sit 8-10 and 11-15 levels
    # below the top.  Besides the bottom of the band, every floor from the
    # lowest head up to tb_max is checked, so the floors of T(2,5)_(8,9)
    # (influence_lower) and T(2,3)_(7,11) (protected_k at rs - delta, with
    # delta = 3) cut between the top and a lower protected head.
    depth = 15
    cables = [CableSpec(T23, 2, 3), CableSpec(T23, 2, 5), CableSpec(T23, 3, 8),
              CableSpec(T25, 3, 2), CableSpec(T25, 5, 3), CableSpec(T25, 7, 5),
              CableSpec(T34, 9, 7), CableSpec(T25, 4, 3), CableSpec(T23, 3, -2),
              CableSpec(T25, 10, 7), CableSpec(T25, 8, 9), CableSpec(T23, 7, 11)]
    cables += [CableSpec(spec, r, s) for spec in (T25, T34) for r, s in reduced_pairs(10)
               if not (s == 1 and r < spec.width)]  # criterion 7a's grid
    lowered = 0
    for cable in cables:
        cls = classify(cable)
        solved = _solved_counts(cls, cls.tb_max - depth)
        lowest_head = min(g.tb for g in cls.generators)
        lowered += lowest_head < cls.tb_max - 1
        for floor in {cls.tb_max - depth, *range(lowest_head, cls.tb_max + 1)}:
            want = {pt: c for pt, c in solved.items() if pt[1] >= floor}
            assert mountain_range(cls, floor).counts == want, (cable, floor)
    assert lowered >= 2


def test_mountain_counts_keep_tb_then_rot_order():
    # The flood collects classes in sets, whose order follows string hashes
    # (Generator.kind); the key order must come from the code instead.
    for cable in (CableSpec(T23, 2, 5), CableSpec(T25, 10, 7), CableSpec(T23, 7, 11)):
        cls = classify(cable)
        assert cls.branches
        mr = mountain_range(cls, cls.tb_max - 12)
        assert list(mr.counts) == sorted(mr.counts, key=lambda pt: (pt[1], pt[0]))


def test_generator_parity_everywhere():
    for r in range(-8, 9):
        for s in range(1, 9):
            if r == 0 or gcd(abs(r), s) != 1:
                continue
            for spec in (T23, T25, T34):
                if s == 1 and r < spec.width:
                    continue
                cls = classify(CableSpec(spec, r, s))
                for g in cls.generators:
                    assert (g.tb + g.rot) % 2 == 1
