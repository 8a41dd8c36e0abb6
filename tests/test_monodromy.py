"""Monodromy labels, slope intervals, foliation regions, orientations,
boundary train-track templates and realized-slope witnesses."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from slope_atlas.monodromy import (
    BoundaryLabel,
    Monodromy,
    OrientationAssignment,
    TrackTemplate,
    WL_MONODROMY,
    Witness,
    coherent_orientations,
    foliation_region,
    intervals,
    is_coherent,
    labels,
    parse_monodromy,
    realized_interval,
    witness,
)
from slope_atlas.slopes import (ABOVE_MINUS_ONE_ARC, BELOW_ONE_ARC, INF,
                                MAX_SLOPE_TOKEN, MINUS_ONE, NEGATIVE_ARC, ONE,
                                POSITIVE_ARC, UNIT_ARC, ZERO, CircularArc,
                                ExtRational, Region, region_union)
from slope_atlas.whitehead import wl_foliation_region

PPLUS, PMINUS, N = BoundaryLabel.PPLUS, BoundaryLabel.PMINUS, BoundaryLabel.N
N_IN, N_OUT = TrackTemplate.N_IN, TrackTemplate.N_OUT


def q(num, den=1):
    return ExtRational(num, den)


def _random_monodromy(rng, max_k=6):
    k = rng.randint(1, max_k)
    a0 = rng.randint(-3, 3)
    twists = tuple(rng.choice([x for x in range(-4, 5) if x]) for _ in range(k))
    return Monodromy(a0, twists)


# ---------------------------------------------------------------------------
# Parsing and validation.
# ---------------------------------------------------------------------------

def test_parse_format_round_trip():
    m = parse_monodromy("1; 5, 10, -5")
    assert m == Monodromy(1, (5, 10, -5))
    assert parse_monodromy(str(m)) == m
    assert parse_monodromy("-2;3") == Monodromy(-2, (3,))


@pytest.mark.parametrize("bad", [
    "", "1", "1;", "1; 0, 2", "a; 1", "1; 2, b",
    "1; \u0663, -2", "\u0661; 1", "1_0; 1", "1; 2_0", "+1; 1", "1; 2.0",
    pytest.param("1; " + "7" * 5000, id="5000-digit-exponent"),
    pytest.param("1; 2; 3" * 1000, id="long-word-two-semicolons"),
    pytest.param("1; " + "0, " * 3000 + "0", id="3001-zero-exponents")])
def test_parse_rejects_bad_text(bad):
    with pytest.raises(ValueError) as err:
        parse_monodromy(bad)
    assert len(str(err.value)) < 2 * MAX_SLOPE_TOKEN


def test_zero_twist_rejected():
    with pytest.raises(ValueError):
        Monodromy(1, (5, 0, -5))
    with pytest.raises(ValueError):
        Monodromy(1, ())


@pytest.mark.parametrize("a0, twists", [
    (True, (1, 1)), (False, (1, 1)), (1, (True, -1)), (1, (2, False))])
def test_bool_exponents_rejected(a0, twists):
    with pytest.raises(ValueError) as err:
        Monodromy(a0, twists)
    assert "integers" in str(err.value)


# ---------------------------------------------------------------------------
# Boundary labels.
# ---------------------------------------------------------------------------

def test_labels_frozen_examples():
    assert labels(Monodromy(1, (5, 10, -5))) == (PPLUS, N, N)
    assert labels(Monodromy(1, (1, -1))) == (N, N)
    assert labels(Monodromy(-1, (1, 1, 1))) == (PPLUS, PPLUS, PPLUS)
    assert labels(Monodromy(0, (-2, -2))) == (PMINUS, PMINUS)


def test_labels_single_boundary():
    assert labels(Monodromy(2, (3,))) == (PPLUS,)
    assert labels(Monodromy(2, (-3,))) == (PMINUS,)


def test_labels_match_sign_pairs():
    rng = random.Random(3)
    for _ in range(300):
        m = _random_monodromy(rng)
        labs = labels(m)
        k = m.k
        for i in range(k):
            a, b = m.twists[i], m.twists[(i + 1) % k]
            if a > 0 and b > 0:
                assert labs[i] is PPLUS
            elif a < 0 and b < 0:
                assert labs[i] is PMINUS
            else:
                assert labs[i] is N


# ---------------------------------------------------------------------------
# Slope intervals on each boundary.
# ---------------------------------------------------------------------------

def _arc_str(arcs):
    return [str(a) for a in arcs]


def test_intervals_frozen_example():
    i_arcs, j_arcs = intervals(Monodromy(1, (5, 10, -5)))
    assert _arc_str(i_arcs) == ["(inf,1)", "(inf,0)", "(0,inf)"]
    assert _arc_str(j_arcs) == ["(inf,1)", "(0,inf)", "(inf,0)"]


def test_intervals_two_n_boundaries():
    i_arcs, j_arcs = intervals(Monodromy(1, (1, -1)))
    assert _arc_str(i_arcs) == ["(inf,0)", "(0,inf)"]
    assert _arc_str(j_arcs) == ["(0,inf)", "(inf,0)"]


def test_intervals_all_positive():
    i_arcs, j_arcs = intervals(Monodromy(0, (2, 2)))
    assert _arc_str(i_arcs) == ["(inf,1)", "(inf,1)"]
    assert i_arcs == j_arcs
    i_arcs, j_arcs = intervals(Monodromy(-1, (1, 1, 1)))
    assert _arc_str(i_arcs) == ["(inf,1)"] * 3
    assert i_arcs == j_arcs


def test_intervals_alternation_property():
    rng = random.Random(4)
    for _ in range(200):
        m = _random_monodromy(rng)
        labs = labels(m)
        i_arcs, j_arcs = intervals(m)
        seen_i = [str(i_arcs[i]) for i, lab in enumerate(labs) if lab is N]
        seen_j = [str(j_arcs[i]) for i, lab in enumerate(labs) if lab is N]
        if seen_i:
            assert seen_i[0] == "(inf,0)" and seen_j[0] == "(0,inf)"
        for idx, (si, sj) in enumerate(zip(seen_i, seen_j)):
            assert {si, sj} == {"(inf,0)", "(0,inf)"}
            if idx:
                assert si != seen_i[idx - 1]
        for i, lab in enumerate(labs):
            if lab is PPLUS:
                assert str(i_arcs[i]) == str(j_arcs[i]) == "(inf,1)"
            elif lab is PMINUS:
                assert str(i_arcs[i]) == str(j_arcs[i]) == "(-1,inf)"


# ---------------------------------------------------------------------------
# Foliation region.
# ---------------------------------------------------------------------------

def test_foliation_region_no_vertical_twisting():
    r = foliation_region(Monodromy(0, (2, 2)))
    assert len(r.boxes) == 1 and not r.lines
    assert r.contains((q(1, 2), q(-3)))
    assert not r.contains((q(1), q(-3)))
    assert not r.contains((INF, ZERO))


def test_foliation_region_frozen_example():
    m = Monodromy(1, (1, -1))
    r = foliation_region(m)
    assert len(r.boxes) == 3
    assert r.contains((q(1, 2), q(1, 2)))      # box from positive twisting
    assert r.contains((q(-1), q(5)))           # mixed-sign box
    assert r.contains((q(5), q(-1)))           # the swapped partner
    assert not r.contains((q(2), q(3)))
    assert not r.contains((ZERO, q(2)))


def test_foliation_region_ladder_family():
    # One negative vertical twist and n positive exponents: the region is
    # (-1, inf)^n joined with (inf, 1)^n.
    for n in range(1, 7):
        m = Monodromy(-1, tuple([1] * n))
        r = foliation_region(m)
        neg_box = tuple(CircularArc(MINUS_ONE, INF) for _ in range(n))
        pos_box = tuple(CircularArc(INF, ONE) for _ in range(n))
        assert set(r.boxes) == {neg_box, pos_box}
        assert r.contains(tuple([ZERO] * n))
        assert r.contains(tuple([q(5)] * n))
        if n >= 2:                       # a mixed tuple escapes both boxes
            assert not r.contains(tuple([q(5)] * (n - 1) + [q(-5)]))


def test_foliation_region_union_invariant_under_rotation():
    rng = random.Random(9)
    for _ in range(60):
        m = _random_monodromy(rng, max_k=4)
        k = m.k
        shift = rng.randrange(k)
        rotated = Monodromy(m.a0, m.twists[shift:] + m.twists[:shift])
        r, rr = foliation_region(m), foliation_region(rotated)
        pts = [INF, ZERO, q(1, 2), q(-1, 2), q(2), q(-2), q(1), q(-1)]
        for _ in range(40):
            ms = tuple(rng.choice(pts) for _ in range(k))
            rot_ms = ms[shift:] + ms[:shift]
            assert r.contains(ms) == rr.contains(rot_ms), (m, shift, ms)


# ---------------------------------------------------------------------------
# Reference: the boundary arcs as they were written out before every box was
# read from the template table.
# ---------------------------------------------------------------------------

def _alternating_intervals(m):
    """p+ and p- boundaries realize (inf, 1) and (-1, inf) in both tuples;
    the n-labeled boundaries, in increasing index order, alternate (inf, 0)
    and (0, inf) in I and the opposite way in J."""
    i_arcs, j_arcs = [], []
    n_seen = 0
    for lab in labels(m):
        if lab is PPLUS:
            i_arcs.append(BELOW_ONE_ARC)
            j_arcs.append(BELOW_ONE_ARC)
        elif lab is PMINUS:
            i_arcs.append(ABOVE_MINUS_ONE_ARC)
            j_arcs.append(ABOVE_MINUS_ONE_ARC)
        else:
            n_seen += 1
            if n_seen % 2 == 1:
                i_arcs.append(NEGATIVE_ARC)
                j_arcs.append(POSITIVE_ARC)
            else:
                i_arcs.append(POSITIVE_ARC)
                j_arcs.append(NEGATIVE_ARC)
    return tuple(i_arcs), tuple(j_arcs)


def _literal_foliation_boxes(m):
    """The a_0 box written out arc by arc, then the alternating boxes."""
    boxes = []
    if m.a0 > 0:
        boxes.append(tuple([BELOW_ONE_ARC] * m.k))
    elif m.a0 < 0:
        boxes.append(tuple([ABOVE_MINUS_ONE_ARC] * m.k))
    for box in _alternating_intervals(m):
        if box not in boxes:
            boxes.append(box)
    return tuple(boxes)


def test_template_boxes_match_alternation_reference():
    words = 0
    for k in range(1, 7):
        for twists in itertools.product((-3, -1, 1, 2), repeat=k):
            for a0 in (-1, 0, 1):
                m = Monodromy(a0, twists)
                assert intervals(m) == _alternating_intervals(m), m
                assert (foliation_region(m).boxes
                        == _literal_foliation_boxes(m)), m
                words += 1
    assert words == 16380


def test_wl_foliation_region_matches_literal_mixed_boxes():
    mixed = ((POSITIVE_ARC, UNIT_ARC), (UNIT_ARC, POSITIVE_ARC))
    reference = region_union(
        Region(2, _literal_foliation_boxes(WL_MONODROMY)), Region(2, mixed))
    assert wl_foliation_region() == reference


# ---------------------------------------------------------------------------
# Coherent orientations.
# ---------------------------------------------------------------------------

def _relations_hold(m, bits):
    """Definition-level check: consecutive strand directions agree except
    across a mixed-sign boundary, where they flip."""
    labs = labels(m)
    k = len(bits)
    for i in range(k):
        same = bits[i] == bits[(i + 1) % k]
        if labs[i] is N:
            if same:
                return False
        elif not same:
            return False
    return True


def test_orientations_frozen_example():
    m = Monodromy(1, (5, 10, -5))
    first, second = coherent_orientations(m)
    assert first.directions == (False, False, True)
    assert first.n_types == ((2, N_IN), (3, N_OUT))
    assert second.directions == (True, True, False)
    assert second.n_types == ((2, N_OUT), (3, N_IN))
    assert second == first.reversed()


def test_orientations_no_n_labels_share_direction():
    for o in coherent_orientations(Monodromy(1, (1, 1))):
        assert len(set(o.directions)) == 1
        assert o.n_types == ()


def test_orientations_exactly_two_by_brute_force():
    rng = random.Random(21)
    for _ in range(150):
        m = _random_monodromy(rng, max_k=6)
        k = m.k
        valid = [bits for bits in itertools.product((False, True), repeat=k)
                 if _relations_hold(m, bits)]
        first, second = coherent_orientations(m)
        assert sorted(valid) == sorted([first.directions, second.directions])
        assert is_coherent(m, first) and is_coherent(m, second)


def test_orientation_direction_matches_twist_signs():
    rng = random.Random(22)
    for _ in range(200):
        m = _random_monodromy(rng)
        k = m.k
        for o in coherent_orientations(m):
            for i in range(k):
                for j in range(k):
                    same = o.directions[i] == o.directions[j]
                    assert same == (m.twists[i] * m.twists[j] > 0)


def test_orientation_n_types_alternate():
    rng = random.Random(23)
    for _ in range(200):
        m = _random_monodromy(rng)
        for o in coherent_orientations(m):
            types = [t for _, t in o.n_types]
            assert len(types) % 2 == 0
            for idx, t in enumerate(types):
                assert t != types[(idx + 1) % len(types)]


def test_orientation_reversal_swaps_everything():
    rng = random.Random(24)
    for _ in range(100):
        m = _random_monodromy(rng)
        first, second = coherent_orientations(m)
        assert first.reversed() == second and second.reversed() == first
        assert first.directions != second.directions


def test_is_coherent_rejects_wrong_assignments():
    m = Monodromy(1, (5, 10, -5))
    good = coherent_orientations(m)[0]
    bad_bits = OrientationAssignment((False, True, True), good.n_types)
    assert not is_coherent(m, bad_bits)
    swapped = tuple((i, N_IN if t is N_OUT else N_OUT)
                    for i, t in good.n_types)
    assert not is_coherent(m, OrientationAssignment(good.directions, swapped))
    assert not is_coherent(m, OrientationAssignment((False, False), good.n_types))


# ---------------------------------------------------------------------------
# Reference: the orientations as they were built before they were read off
# the twist signs, by flipping the bit of beta_1 across each n boundary.
# ---------------------------------------------------------------------------

def _n_template(starts):
    return N_OUT if starts else N_IN


def _inductive_orientations(m):
    labs = labels(m)
    k = m.k
    out = []
    for first in (False, True):
        dirs = [first]
        for i in range(k - 1):
            dirs.append(dirs[-1] != (labs[i] is N))
        n_types = tuple((i + 1, _n_template(dirs[i]))
                        for i in range(k) if labs[i] is N)
        out.append(OrientationAssignment(tuple(dirs), n_types))
    return tuple(out)


def _inductive_is_coherent(m, o):
    labs = labels(m)
    k = m.k
    if len(o.directions) != k:
        return False
    for i in range(k):
        same = o.directions[i] == o.directions[(i + 1) % k]
        if (labs[i] is N) == same:
            return False
    expected = {i + 1: _n_template(o.directions[i])
                for i in range(k) if labs[i] is N}
    return dict(o.n_types) == expected


def _boundary_data(m):
    return (labels(m), coherent_orientations(m), intervals(m),
            foliation_region(m))


def test_sign_vector_sweep_matches_references():
    # The boundary data read a word only through sign(a_0) and the signs of
    # the twists, so the sweep over every sign vector covers every word
    # with k <= 10; scaled magnitudes must leave all four outputs alone.
    rng = random.Random(25)
    words = 0
    for k in range(1, 11):
        for signs in itertools.product((-1, 1), repeat=k):
            for a0 in (-1, 0, 1):
                m = Monodromy(a0, signs)
                data = _boundary_data(m)
                labs, orientations, i_j, region = data
                assert labs.count(N) % 2 == 0, m
                assert orientations == _inductive_orientations(m), m
                assert i_j == _alternating_intervals(m), m
                assert region == Region(k, _literal_foliation_boxes(m)), m
                scaled = Monodromy(a0 * rng.randint(1, 9), tuple(
                    a * rng.randint(1, 9) for a in signs))
                assert _boundary_data(scaled) == data, scaled
                words += 1
    assert words == 6138


def test_is_coherent_truth_table_matches_reference():
    # At the right length: every bit vector and every assignment of no
    # type, N_IN or N_OUT to each boundary, listed in both orders.  At a
    # wrong length: every bit vector with either coherent set of n types.
    for k in range(1, 5):
        for signs in itertools.product((-1, 1), repeat=k):
            m = Monodromy(0, signs)
            cases = []
            for types in itertools.product((None, N_IN, N_OUT), repeat=k):
                n_types = tuple((i, t) for i, t in
                                enumerate(types, start=1) if t)
                cases += [(k, n_types), (k, n_types[::-1])]
            for o in coherent_orientations(m):
                for length in (k - 1, k + 1):
                    cases += [(length, o.n_types), (length, o.n_types[::-1])]
            for length, n_types in cases:
                for bits in itertools.product((False, True), repeat=length):
                    o = OrientationAssignment(bits, n_types)
                    assert (is_coherent(m, o)
                            == _inductive_is_coherent(m, o)), (m, o)


# ---------------------------------------------------------------------------
# Boundary train-track templates and realized-slope witnesses.
# ---------------------------------------------------------------------------

def test_realized_intervals_frozen():
    table = {
        TrackTemplate.A0_POSITIVE: "(inf,1)",
        TrackTemplate.PPLUS: "(inf,1)",
        TrackTemplate.A0_NEGATIVE: "(-1,inf)",
        TrackTemplate.PMINUS: "(-1,inf)",
        TrackTemplate.N_OUT: "(0,inf)",
        TrackTemplate.N_IN: "(inf,0)",
        TrackTemplate.WL_SPECIAL_FIRST: "(0,inf)",
        TrackTemplate.WL_SPECIAL_SECOND: "(-1,1)",
    }
    for template in TrackTemplate:
        assert str(realized_interval(template)) == table[template]


def test_witness_frozen_examples():
    w = witness(TrackTemplate.A0_POSITIVE, q(-3, 2))
    assert w.parametric and (w.x, w.y) == (q(1, 2), q(2))

    with pytest.raises(ValueError) as err:
        witness(TrackTemplate.A0_POSITIVE, q(1))
    assert "(inf,1)" in str(err.value)

    w0 = witness(TrackTemplate.A0_NEGATIVE, q(0))
    assert (w0.x, w0.y) == (q(1, 2), q(1, 2))


def _random_slopes(rng, count):
    out = [INF, q(0), q(1), q(-1)]
    while len(out) < count:
        out.append(q(rng.randint(-40, 40), rng.randint(1, 12)))
    return out


def test_witness_exists_exactly_on_realized_interval():
    rng = random.Random(41)
    slopes = _random_slopes(rng, 200)
    for template in TrackTemplate:
        arc = realized_interval(template)
        for s in slopes:
            if arc.contains(s):
                w = witness(template, s)
                assert w.slope == s and w.template is template
                assert realized_interval(w.template) == arc
            else:
                with pytest.raises(ValueError):
                    witness(template, s)


def _fraction(s):
    return Fraction(s.num, s.den)


def test_parametric_weights_recover_the_slope():
    rng = random.Random(42)
    slopes = _random_slopes(rng, 300)
    zero, one = Fraction(0), Fraction(1)
    for s in slopes:
        if realized_interval(TrackTemplate.A0_POSITIVE).contains(s):
            w = witness(TrackTemplate.A0_POSITIVE, s)
            x, y = _fraction(w.x), _fraction(w.y)
            assert x - y == _fraction(s)
            assert zero < x < one and y > zero
        if realized_interval(TrackTemplate.A0_NEGATIVE).contains(s):
            w = witness(TrackTemplate.A0_NEGATIVE, s)
            x, y = _fraction(w.x), _fraction(w.y)
            assert x - y == _fraction(s)
            assert zero < y < one and x > zero


def test_non_parametric_templates_give_certificates():
    for template, s in ((TrackTemplate.PPLUS, q(-5)),
                        (TrackTemplate.PMINUS, q(5)),
                        (TrackTemplate.N_OUT, q(1, 3)),
                        (TrackTemplate.N_IN, q(-1, 3)),
                        (TrackTemplate.WL_SPECIAL_FIRST, q(7)),
                        (TrackTemplate.WL_SPECIAL_SECOND, q(0))):
        w = witness(template, s)
        assert not w.parametric and w.x is None and w.y is None


def test_mirror_symmetry_of_realized_intervals():
    rng = random.Random(43)
    mirrors = ((TrackTemplate.A0_POSITIVE, TrackTemplate.A0_NEGATIVE),
               (TrackTemplate.PPLUS, TrackTemplate.PMINUS),
               (TrackTemplate.N_OUT, TrackTemplate.N_IN))
    for s in _random_slopes(rng, 150):
        neg = q(-s.num, s.den)   # -1/0 normalizes to inf
        for left, right in mirrors:
            assert (realized_interval(left).contains(s)
                    == realized_interval(right).contains(neg))


def test_witness_direct_construction():
    w = Witness(TrackTemplate.N_OUT, q(2), parametric=False)
    assert str(realized_interval(w.template)) == "(0,inf)"
