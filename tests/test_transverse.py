import io
import time
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torus_cables import cli, transverse
from torus_cables.legendrian import (
    Branch,
    CableSpec,
    Common,
    classes_at,
    classify,
    destabilizes,
    mountain_range,
    stabilize,
)
from torus_cables.torus_knots import TorusKnotSpec
from torus_cables.transverse import (
    TOP_CHAIN,
    _word_claims,
    classify_transverse,
    count_transverse,
    quotient_transverse,
    verify_qualitative,
)

from oracles import (
    CRITERION_10_KNOTS, T23, T25, T34, _replayed_claims, _searched_destabilizes, grid_cables)


def side_branches(t):
    return sorted((b.sl_top, b.merge_sl) for b in t.side_branches)


def test_max_sl_examples():
    for cable, expected in (
        (CableSpec(T23, 2, 3), 7),
        (CableSpec(T25, 3, 2), 9),
        (CableSpec(T23, 2, 5), 13),
    ):
        assert quotient_transverse(classify(cable)).max_sl == expected, cable
        assert classify_transverse(cable).max_sl == expected, cable


def test_quotient_trefoil_2_3():
    t = quotient_transverse(classify(CableSpec(T23, 2, 3)))
    assert t.max_sl == 7 and not t.simple
    assert side_branches(t) == [(3, 1)]
    assert not t.side_branches[0].destabilizable


def test_quotient_trefoil_2_5():
    t = quotient_transverse(classify(CableSpec(T23, 2, 5)))
    assert t.max_sl == 13
    assert side_branches(t) == [(5, 3), (7, 3)]
    assert all(not b.destabilizable for b in t.side_branches)
    origins = {b.origin for b in t.side_branches}
    assert origins == {"protected_l:2:+", "protected_k:+"}


def test_quotient_upper_influence():
    t = quotient_transverse(classify(CableSpec(T25, 3, 2)))
    assert t.max_sl == 9
    assert side_branches(t) == [(3, 1)]


def test_classify_transverse_direct():
    t = classify_transverse(CableSpec(T23, 2, 3))
    assert t.max_sl == 7 and side_branches(t) == [(3, 1)]
    t = classify_transverse(CableSpec(T23, 3, 2))
    assert t.simple and t.max_sl == 5 and t.branches[0].origin == TOP_CHAIN
    t = classify_transverse(CableSpec(T25, 5, 3))
    assert side_branches(t) == [(9, 7)] and t.max_sl == 19


def test_count_transverse_examples():
    t = quotient_transverse(classify(CableSpec(T23, 2, 3)))
    assert count_transverse(t, 3) == 2
    assert count_transverse(t, 1) == 1
    assert count_transverse(t, 9) == 0
    assert count_transverse(t, 2) == 0  # sl has the parity of max_sl
    t = quotient_transverse(classify(CableSpec(T23, 2, 5)))
    assert count_transverse(t, 5) == 3


def test_sl_parity_and_bound():
    for cable in (CableSpec(T23, 2, 5), CableSpec(T25, 5, 3), CableSpec(T25, 3, 2)):
        t = quotient_transverse(classify(cable))
        assert t.max_sl % 2 == 1
        for b in t.branches:
            assert b.sl_top % 2 == 1
            assert b.sl_top <= t.max_sl


def test_count_bookkeeping_is_exact():
    # each branch contributes one class at every second level of its range,
    # the top chain everywhere below the maximum, and nothing else
    for cable in (CableSpec(T23, 3, 7), CableSpec(T23, 2, 5), CableSpec(T25, 7, 5)):
        t = quotient_transverse(classify(cable))
        merges = [b.merge_sl for b in t.side_branches]
        floor = (min(merges) if merges else t.max_sl - 6) - 4
        for sl in range(t.max_sl, floor, -2):
            expected = 1 + sum(
                1 for b in t.side_branches if b.merge_sl + 2 <= sl <= b.sl_top
            )
            assert count_transverse(t, sl) == expected
        if merges:
            assert count_transverse(t, min(merges)) == 1


def test_quotient_route_matches_direct_route_on_wider_knots():
    # Criterion 8's comparison on eight knots with |r|, s <= 30, T(31,33) of
    # width 959 among them.  The quotient route reads its maximum from the
    # two peak ends and the branches; the direct route from bennequin_bound.
    knots = [*CRITERION_10_KNOTS, TorusKnotSpec(5, 7), TorusKnotSpec(31, 33)]
    checked = branched = 0
    for cable in grid_cables(knots, 30):
        via_quotient = quotient_transverse(classify(cable))
        direct = classify_transverse(cable)
        assert via_quotient.max_sl == direct.max_sl, cable
        assert via_quotient.simple == direct.simple, cable
        assert [
            (b.origin, b.sl_top, b.merge_sl, b.destabilizable) for b in via_quotient.branches
        ] == [(b.origin, b.sl_top, b.merge_sl, b.destabilizable) for b in direct.branches], cable
        checked += 1
        branched += not direct.simple
    assert checked == 8562 and branched > 1000


def test_plus_branch_heads_never_destabilize():
    # The orbit search the quotient route replaces with an argument: no class
    # one level up positively stabilizes onto a plus-branch head or onto the
    # first points Branch(g, 0, y) of its negative-stabilization orbit.
    # Grid of acceptance criterion 8.
    heads = 0
    for cable in grid_cables((T23, T25, T34), 12):
        cls = classify(cable)
        for g in cls.branches:
            if g.sign != 1:
                continue
            for y in range(3):
                target = Branch(g, 0, y)
                for cand in classes_at(cls, target.rot - 1, target.tb + 1):
                    assert stabilize(cand, 1) != target, (cls.cable, g.id, y)
            heads += 1
        assert not any(b.destabilizable for b in quotient_transverse(cls).side_branches)
    assert heads > 200


def test_verify_qualitative_examples():
    rep = verify_qualitative(T23, "qual1", 1, 1, 2)
    assert rep.passed and (rep.cable.r, rep.cable.s) == (2, 3)
    rep = verify_qualitative(T23, "qual1", 2, 1, 3)
    assert rep.passed and (rep.cable.r, rep.cable.s) == (3, 8)
    rep = verify_qualitative(T25, "qual4", 2, 1, 1)
    assert rep.passed and (rep.cable.r, rep.cable.s) == (4, 3)


def test_verify_qualitative_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_qualitative(T23, "qual1", 2, 2, 3)  # gcd(k, m) != 1
    with pytest.raises(ValueError):
        verify_qualitative(T23, "qual1", 1, 1, 1)  # n too small
    with pytest.raises(ValueError):
        verify_qualitative(T23, "qual2", 1, 1, 2)  # n too small
    with pytest.raises(ValueError):
        verify_qualitative(T25, "qual1", 1, 1, 2)  # trefoil suite
    with pytest.raises(ValueError):
        verify_qualitative(T25, "qual4", 3, 1, 1)  # 3 divides the width
    with pytest.raises(ValueError):
        verify_qualitative(T23, "qual4", 2, 1, 1)  # not for the trefoil
    with pytest.raises(ValueError):
        verify_qualitative(T25, "qual4", 2, 2, 2)  # gcd(m, n) != 1
    with pytest.raises(ValueError):
        verify_qualitative(T25, "nope", 1, 1, 1)


def _doctor_quotient(monkeypatch, doctor):
    # verify_qualitative's checks then read doctor(tcls) for each quotient.
    quotient = transverse.quotient_transverse
    monkeypatch.setattr(transverse, "quotient_transverse", lambda cls: doctor(quotient(cls)))


def _top_chain_only(tcls):
    return replace(tcls, branches=tcls.branches[:1])


def test_qual4_without_a_side_branch_fails_its_claims(monkeypatch):
    # The claims about "its" branch fail rather than index a missing one,
    # and verify prints every claim and exits 1.
    _doctor_quotient(monkeypatch, _top_chain_only)
    rep = verify_qualitative(T25, "qual4", 2, 3, 5)
    assert [c.passed for c in rep.claims] == [True, False, False, False]
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["verify", "--suite", "qual4", "--pq", "2,5", "--k", "2", "--m", "3", "--n", "5"],
                   out=out, err=err)
    assert (code, err.getvalue()) == (1, "")
    assert out.getvalue().count("FAIL") == 3 and out.getvalue().count("PASS") == 1


def test_qual4_side_branch_two_below_the_maximum_fails(monkeypatch):
    # With n = 5 the branch must sit at least 10 below the maximum; 2 below is too high.
    def two_below(tcls):
        top, side = tcls.branches
        sl = tcls.max_sl - 2
        return replace(tcls, branches=(top, replace(side, sl_top=sl, merge_sl=sl - 2 * 3)))

    _doctor_quotient(monkeypatch, two_below)
    rep = verify_qualitative(T25, "qual4", 2, 3, 5)
    assert rep.claims[1].passed and not rep.claims[2].passed, rep.claims


def test_qual2_merge_claim_needs_live_side_branches(monkeypatch):
    # With no side branch every depth "matches" and the top chain alone is
    # one class at the merge level; only the count above it fails the claim.
    _doctor_quotient(monkeypatch, _top_chain_only)
    rep = verify_qualitative(T23, "qual2", 2, 1, 4)
    assert "stays distinct" in rep.claims[-1].description
    assert not rep.claims[-1].passed


def test_trefoil_band_counts_match_statement():
    # spot-check the transverse statement pattern for a band slope with n = 3
    cable = CableSpec(T23, 3, 10)  # slope 10/3 in [3, 4)
    t = quotient_transverse(classify(cable))
    r, s = 3, 10
    rs = r * s
    assert t.max_sl == rs + s - r
    assert count_transverse(t, rs + r - s) == 3  # n distinct classes, n - 1 heads + top
    heads = [b for b in t.side_branches if b.sl_top == rs + r - s]
    assert len(heads) == 2 and all(not b.destabilizable for b in heads)
    assert all(b.merge_sl == rs - r - s for b in t.side_branches)
    assert count_transverse(t, rs - r - s) == 1


# -- qual1's word claims against their oracle, the stabilization-word replay --

def _class_lists(classes):
    """The classes at a point, and their protected branches alone, each when
    it holds two or more.  Every multi-class point of these tests holds the
    common class, and its pairs give the least separation depth; only
    without it do the pairs of branches decide the depth."""
    branches = [c for c in classes if isinstance(c, Branch)]
    return [group for group in (classes, branches) if len(group) > 1]


def test_word_claims_match_replay_on_grid():
    # Every lattice point with two or more classes on criterion 7a's grid,
    # down to tb_max - 40, for every word bound k <= 8.  The replay does not
    # depend on the order of the classes, so neither may the rule: classes_at
    # lists plus branches first, and the reversed list is the other order.
    outcomes = set()
    points = 0
    for cable in grid_cables((T25, T34), 10):
        cls = classify(cable)
        for (rot, tb), count in mountain_range(cls, cls.tb_max - 40).counts.items():
            if count < 2:
                continue
            for classes in _class_lists(classes_at(cls, rot, tb)):
                for k in range(1, 9):
                    claims = _word_claims(classes, k)
                    assert claims == _replayed_claims(classes, k), (cls.cable, rot, tb, k)
                    assert _word_claims(classes[::-1], k) == claims, (cls.cable, rot, tb, k)
                    outcomes.add(claims)
            points += 1
    assert points > 4000
    assert len(outcomes) == 4  # both claims are seen to hold and to fail
    # With fewer than two classes nothing separates and nothing is left to merge.
    for classes in ([], [Common(1, 6)]):
        assert _word_claims(classes, 1) == _replayed_claims(classes, 1) == (True, True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(2, 12), st.integers(1, 12))
def test_qual1_word_claims_match_replay(k, m, n, words):
    # The qual1 family with k, n <= 12: the verifier's two word claims equal
    # the replay at the advertised point.  The rule equals the replay for any
    # other word bound, below the merge depth or past it, there and at the
    # mirror point, whose branches all carry the minus sign.
    assume(gcd(k, m) == 1)
    rep = verify_qualitative(T23, "qual1", k, m, n)
    r, s = rep.cable.r, rep.cable.s
    cls = classify(rep.cable)
    rot, tb = s - r + m, r * s - m
    assert tuple(c.passed for c in rep.claims[3:]) == _replayed_claims(classes_at(cls, rot, tb), k)
    for point in ((rot, tb), (-rot, tb)):
        for classes in _class_lists(classes_at(cls, *point)):
            claims = _word_claims(classes, words)
            assert claims == _replayed_claims(classes, words), (k, m, n, point)
            assert _word_claims(classes[::-1], words) == claims, (k, m, n, point)


def test_qual1_finishes_at_large_k():
    # The replay is cubic in k; the rule reads two counts per class.
    start = time.monotonic()
    assert verify_qualitative(T23, "qual1", 10**6, 1, 4).passed
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_qual1_finishes_at_large_n():
    # The upper-neighbor search and the scan over pairs are quadratic in n;
    # the rule and the two smallest collapse counts are linear.
    start = time.monotonic()
    assert verify_qualitative(T23, "qual1", 1, 1, 10**5).passed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _timed(fn, *args):
    # The answer of one call, which must return within 0.1 s.
    start = time.monotonic()
    answer = fn(*args)
    elapsed = time.monotonic() - start
    assert elapsed < 0.1, f"{fn.__name__} took {elapsed:.3f}s"
    return answer


def test_huge_widths_are_in_reach():
    # T(1000001,1000003) has width w of about 10^12, so its peak family has
    # about 2*10^12 rots: the queries read the progressions, never the list.
    # The (7, 3)-cable, and the qual4 cable in the upper interval of
    # influence of index 2.
    knot = TorusKnotSpec(1000001, 1000003)
    w = knot.width
    report = verify_qualitative(knot, "qual4", 2, 3, 5)
    assert report.passed, report.claims
    branches = 0
    for cable in (CableSpec(knot, 7, 3), report.cable):
        cls = _timed(classify, cable)
        k = -(-cable.r // cable.s)  # ceil(r/s)
        assert sum(map(len, cls.peaks)) == 2 * (w - k + 1), cable
        via_quotient = _timed(quotient_transverse, cls)
        direct = classify_transverse(cable)
        assert via_quotient.max_sl == direct.max_sl, cable
        assert side_branches(via_quotient) == side_branches(direct), cable
        # Around each end peak, the common class against a scan of the first
        # and last few peaks of each progression, which hold every peak
        # within reach.
        near = [rot for progression in cls.peaks for rot in (*progression[:4], *progression[-4:])]
        for end in (cls.peaks[0][0], cls.peaks[-1][-1]):
            for rot in range(end - 4, end + 5):
                for tb in range(cls.tb_max - 3, cls.tb_max + 2):
                    classes = _timed(classes_at, cls, rot, tb)
                    common = (rot + tb) % 2 == 1 and any(
                        abs(rot - peak) <= cls.tb_max - tb for peak in near)
                    assert (Common(rot, tb) in classes) == common, (cable, rot, tb)
                    for c in classes:
                        assert _timed(destabilizes, cls, c) == _searched_destabilizes(cls, c), (
                            cable, c)
                        branches += isinstance(c, Branch)
    assert branches > 0
