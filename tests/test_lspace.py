"""Torsion profiles, difference sets and interval selection."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slope_atlas.lspace import (
    ALL_BUT_LONGITUDE,
    TorsionProfile,
    compute_d_positive,
    interval_candidates,
    select_interval,
    two_component_region,
)
from slope_atlas.slopes import INF, ZERO, CircularArc, ExtRational, Region


def q(num, den=1):
    return ExtRational(num, den)


# ---------------------------------------------------------------------------
# Independent oracle: enumerate support/non-support pairs directly.  A level
# n > 0 is reported when some x outside the support and some y inside it sit
# in the same torsion class with column difference exactly n, both columns in
# [0, threshold].  Everything above the threshold is in the support, and the
# pair (x above threshold, y = x - n) realizes every n whenever any column in
# [threshold - n + 1, threshold] misses the support; that case is already
# covered by x at the threshold boundary, so scanning columns 0..threshold
# suffices.
# ---------------------------------------------------------------------------

def d_positive_oracle(profile):
    p, c = profile.torsion_order, profile.threshold
    grid = [(n, t) for n in range(c + 1) for t in range(p)]
    outside = [(n, t) for (n, t) in grid if not profile.in_support(n, t)]
    inside = [(n, t) for (n, t) in grid if profile.in_support(n, t)]
    levels = set()
    for nx, tx in outside:
        for ny, ty in inside:
            if tx == ty and nx > ny:
                levels.add(nx - ny)
    return tuple(sorted(levels))


def _random_profile(rng):
    p = rng.randint(1, 4)
    c = rng.randint(0, 6)
    support = {(0, rng.randrange(p))}
    for n in range(c + 1):
        for t in range(p):
            if rng.random() < 0.5:
                support.add((n, t))
    return TorsionProfile(p, c, frozenset(support))


def test_d_positive_matches_oracle_on_random_profiles():
    rng = random.Random(20260817)
    for _ in range(200):
        profile = _random_profile(rng)
        assert compute_d_positive(profile) == d_positive_oracle(profile)


def test_trefoil_like_profile():
    # Support {0} out of columns {0, 1}: the single gap at column 1 gives
    # difference set {1}.
    profile = TorsionProfile(1, 1, frozenset({(0, 0)}))
    assert compute_d_positive(profile) == (1,)


def test_trefoil_via_alexander():
    # Delta(t) = 1 - t + t^2; the partial sums 1, 0, 1 of its coefficients
    # are the series Delta(t)/(1 - t) up to deg Delta, so the support is the
    # columns where they are nonzero.
    profile = TorsionProfile(1, 2, {(0, 0), (2, 0)})
    assert compute_d_positive(profile) == (1,)


def test_unknot_via_alexander():
    # Delta(t) = 1: the series is 1 from column 0 on.
    assert compute_d_positive(TorsionProfile(1, 0, {(0, 0)})) == ()


def test_two_torsion_example_both_support_readings():
    # Torsion order 2, threshold 2, support missing exactly (2, 0): the gap
    # pairs with (1, 0) and (0, 0) to give differences {1, 2}.  The class
    # (0, 1) is immaterial: both choices leave the same difference set.
    base = {(0, 0), (1, 0), (1, 1), (2, 1)}
    for extra in (set(), {(0, 1)}):
        profile = TorsionProfile(2, 2, frozenset(base | extra))
        assert compute_d_positive(profile) == (1, 2)
        assert d_positive_oracle(profile) == (1, 2)


def test_profile_validation():
    with pytest.raises(ValueError):
        TorsionProfile(0, 1, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        TorsionProfile(1, -1, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        TorsionProfile(1, 1, frozenset())             # no column-zero entry
    with pytest.raises(ValueError):
        TorsionProfile(2, 1, frozenset({(0, 2)}))     # torsion out of range
    with pytest.raises(ValueError):
        TorsionProfile(2, 1, frozenset({(2, 0)}))     # column above threshold


@pytest.mark.parametrize("args", [
    (1.5, 2, {(0, 0), (1, 0.5)}),
    (True, 0, {(0, 0)}),
    (1, False, {(0, 0)}),
    (Fraction(2), 1, {(0, 0)}),
    (2, 1, {(0, 0), (1, Fraction(1))}),
    (2, 1, {(0, 0), (True, 1)}),
    (2, 1.0, {(0, 0)}),
])
def test_profile_rejects_non_integers(args):
    # Membership computes t % p, so a float or Fraction would bring
    # non-integer arithmetic into the predicate.
    with pytest.raises(ValueError, match="must be integers"):
        TorsionProfile(*args)


def test_in_support_outside_window():
    profile = TorsionProfile(2, 1, frozenset({(0, 0)}))
    assert profile.in_support(5, 1)        # above threshold: always inside
    assert not profile.in_support(-1, 0)   # negative column: never inside


# ---------------------------------------------------------------------------
# Interval candidates and selection.
# ---------------------------------------------------------------------------

def test_empty_difference_set_gives_all_but_longitude():
    cands = interval_candidates(())
    assert cands == (ALL_BUT_LONGITUDE,)
    assert ALL_BUT_LONGITUDE.contains(q(5)) and ALL_BUT_LONGITUDE.contains(INF)
    assert ALL_BUT_LONGITUDE.contains(q(-1, 3))
    assert not ALL_BUT_LONGITUDE.contains(ZERO)


def test_candidate_arcs_from_highest_level():
    right, left = interval_candidates((1,))
    assert str(right) == "[1,inf]" and str(left) == "[inf,-1]"
    assert right.contains(q(1)) and right.contains(q(10)) and right.contains(INF)
    assert not right.contains(q(1, 2))
    assert left.contains(q(-1)) and left.contains(INF)
    assert not left.contains(q(-1, 2))
    right_high, left_high = interval_candidates((1, 2))
    assert str(right_high) == "[2,inf]"
    assert str(left_high) == "[inf,-2]"


@pytest.mark.parametrize("n_h", [2.5, True, Fraction(3), "3"])
def test_candidates_reject_non_int_bound(n_h):
    # A difference set is checked level by level, since its maximum alone
    # can be an int.
    with pytest.raises(ValueError, match="positive ints"):
        interval_candidates((n_h, 3))


def test_candidates_reject_nonpositive_levels():
    with pytest.raises(ValueError):
        interval_candidates((0, 1))
    with pytest.raises(ValueError):
        interval_candidates((-2,))


def test_select_interval_frozen_examples():
    cands = interval_candidates((1,))
    right, _ = cands
    assert select_interval(cands, q(5)) == right
    with pytest.raises(ValueError):
        select_interval(interval_candidates((1, 2)), ZERO)   # in neither
    with pytest.raises(ValueError):
        select_interval(cands, INF)        # in both, cannot discriminate


def test_select_interval_left_side():
    cands = interval_candidates((2,))
    chosen = select_interval(cands, q(-3))
    assert chosen.contains(q(-2)) and not chosen.contains(q(3))


def test_select_interval_all_but_longitude_passes_through():
    assert select_interval(interval_candidates(()), q(3)) is ALL_BUT_LONGITUDE
    with pytest.raises(ValueError, match="neither"):
        select_interval(interval_candidates(()), ZERO)   # the longitude


@settings(max_examples=100, derandomize=True, deadline=None)
@given(d=st.lists(st.integers(1, 6), max_size=4),
       num=st.integers(-24, 24), den=st.integers(0, 4))
@example(d=[], num=0, den=1)       # the longitude
@example(d=[], num=1, den=0)       # infinity
@example(d=[2], num=0, den=1)
@example(d=[2], num=1, den=0)
@example(d=[2], num=-5, den=2)
def test_select_interval_matches_fraction_oracle(d, num, den):
    # The oracle reads the candidate forms off the level set in Fractions:
    # every slope but 0 for an empty set, else [n_h, inf] and [inf, -n_h],
    # which infinity alone lies in both of.  den = 0 stands for infinity.
    known = INF if den == 0 else q(num, den)
    f = None if den == 0 else Fraction(num, den)
    cands = interval_candidates(sorted(set(d)))
    if not d:
        want = "neither" if f == 0 else str(ALL_BUT_LONGITUDE)
    elif f is None:
        want = "both"
    elif f >= max(d):
        want = f"[{max(d)},inf]"
    elif f <= -max(d):
        want = f"[inf,{-max(d)}]"
    else:
        want = "neither"
    if want in ("both", "neither"):
        with pytest.raises(ValueError, match=want):
            select_interval(cands, known)
    else:
        chosen = select_interval(cands, known)
        assert chosen in cands and str(chosen) == want


@pytest.mark.parametrize("member", [
    lambda: ALL_BUT_LONGITUDE.contains(3),
    lambda: select_interval(interval_candidates(()), 3),
    lambda: select_interval(interval_candidates((1,)), 3),
    lambda: CircularArc(q(1), INF, True, True).contains(3),
    lambda: Region(2, (), (0,)).contains((3, 4)),
    lambda: Region(2, (), (0,)).contains((INF, 4)),
], ids=["all-but-longitude", "select-all-but-longitude", "select-arc",
        "arc", "region-line", "region-line-second"])
def test_membership_of_a_non_slope_is_a_type_error(member):
    # Every membership test refuses a non-slope the same way, rather than
    # failing on a missing method of the int.
    with pytest.raises(TypeError, match="membership needs"):
        member()


# ---------------------------------------------------------------------------
# The two-component L-space region.
# ---------------------------------------------------------------------------

def test_two_component_region_frozen_examples():
    r = two_component_region(0, 0)
    assert r.contains((q(1), q(1)))
    assert r.contains((INF, q(-5)))
    assert not r.contains((q(1, 2), q(7)))
    assert not r.contains((INF, ZERO))

    r10 = two_component_region(1, 0)
    assert not r10.contains((q(2), q(1)))
    assert r10.contains((q(3), q(1)))


def test_two_component_region_integer_grid():
    # Integer fillings land inside exactly when both coordinates clear the
    # per-component thresholds.
    for b1 in range(3):
        for b2 in range(3):
            r = two_component_region(b1, b2)
            for m1 in range(-1, 9):
                for m2 in range(-1, 9):
                    want = m1 >= 2 * b1 + 1 and m2 >= 2 * b2 + 1
                    assert r.contains((q(m1), q(m2))) == want


def test_two_component_region_lines_cover_infinity():
    r = two_component_region(2, 3)
    assert r.contains((INF, q(-9))) and r.contains((q(7, 2), INF))
    assert r.contains((INF, INF))      # closed box corner
    assert r.contains((q(5), q(7))) and not r.contains((q(5), q(6)))
