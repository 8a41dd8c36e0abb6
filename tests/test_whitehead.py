"""Whitehead-link surgery verdicts and the supporting Euler-class rules."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from slope_atlas.branched import (BranchArc, BranchComplex, Sector, SectorKind,
                                  WeightSystem, carried_weight_cone)
from slope_atlas.lspace import (TorsionProfile, compute_d_positive,
                                interval_candidates, select_interval)
from slope_atlas.monodromy import (WL_MONODROMY, Monodromy,
                                   OrientationAssignment, TrackTemplate,
                                   coherent_orientations, is_coherent, witness)
from slope_atlas.slopes import (BELOW_ONE_ARC, INF, ONE, POSITIVE_ARC,
                                CircularArc, ExtRational, Region, parse_slope)
from slope_atlas.whitehead import (
    _EULER,
    FIBER_PAIRING,
    EulerBoundary,
    Orderable,
    SurgeryVerdict,
    Ternary,
    _cell,
    _decide,
    classify,
    euler_criterion,
    plot_class,
    wl_euler_data,
    wl_euler_vanishes,
    wl_foliation_region,
    wl_lspace_region,
)
from test_slopes import _sample_points

YES, NO, NA = Ternary.YES, Ternary.NO, Ternary.NOT_APPLICABLE


def q(num, den=1):
    return ExtRational(num, den)


def _random_finite_nonzero(rng):
    num = rng.choice([x for x in range(-30, 31) if x])
    return q(num, rng.randint(1, 12))


# ---------------------------------------------------------------------------
# Euler-class rules.
# ---------------------------------------------------------------------------

def test_euler_vanishing_frozen_examples():
    assert wl_euler_vanishes(parse_slope("3/-1"), q(5, 6))
    assert not wl_euler_vanishes(parse_slope("3/-1"), q(5, 4))
    assert wl_euler_vanishes(q(1), q(1))
    assert not wl_euler_vanishes(q(5, 2), q(1))


def test_euler_data_frozen_example():
    first, second = wl_euler_data(parse_slope("3/-1"), q(5, 6))
    assert first == EulerBoundary(a=FIBER_PAIRING, b=1, p=3, q=-1)
    assert second == EulerBoundary(a=FIBER_PAIRING, b=-1, p=5, q=6)


def test_euler_criterion_needs_unfilled_vanishing():
    data = wl_euler_data(q(1), q(1))
    assert euler_criterion(data, True)
    assert not euler_criterion(data, False)


def test_euler_reduced_form_matches_criterion():
    rng = random.Random(51)
    for _ in range(400):
        s1, s2 = _random_finite_nonzero(rng), _random_finite_nonzero(rng)
        assert wl_euler_vanishes(s1, s2) == euler_criterion(
            wl_euler_data(s1, s2), True)


def test_euler_trivial_when_denominators_force_it():
    # With both numerators +-1 the congruence holds for every denominator.
    rng = random.Random(52)
    for _ in range(50):
        s1 = q(rng.choice((-1, 1)), rng.randint(1, 30))
        s2 = q(rng.choice((-1, 1)), rng.randint(1, 30))
        assert wl_euler_vanishes(s1, s2)
    # Integer surgeries have denominator 1, so they vanish as well.
    assert wl_euler_vanishes(q(7), q(-9))


def test_euler_data_rejects_bad_slopes():
    with pytest.raises(ValueError):
        wl_euler_data(INF, q(1))
    with pytest.raises(ValueError):
        wl_euler_data(q(1), q(0))
    with pytest.raises(ValueError):
        EulerBoundary(a=-1, b=1, p=0, q=1)
    with pytest.raises(ValueError):
        EulerBoundary(a=-1, b=1, p=-2, q=1)
    with pytest.raises(ValueError):
        EulerBoundary(a=-1, b=1, p=1, q=0)


# ---------------------------------------------------------------------------
# Verdicts on frozen multislopes.
# ---------------------------------------------------------------------------

def test_classify_poincare_like_filling():
    v = classify(q(1), q(1))
    assert v.is_qhs and v.homology == (1, 1)
    assert v.lspace is YES and v.taut_foliation is NO
    assert v.euler_vanishing is NA
    assert v.left_orderable is Orderable.NO
    assert v.citations == ("lspace-threshold",
                           "nonorderable-positive-integer-lspace")


def test_classify_negative_integer_side():
    v = classify(q(-1), q(7, 3))
    assert v.lspace is NO and v.taut_foliation is YES
    assert v.euler_vanishing is NO
    assert v.left_orderable is Orderable.YES
    assert v.citations == ("foliation-below-one", "euler-congruence",
                           "orderable-negative-integer-fiber")


def test_classify_lspace_with_integer_coordinate():
    for a, b in ((q(2), q(3, 2)), (q(3, 2), q(2))):
        v = classify(a, b)
        assert v.lspace is YES
        assert v.left_orderable is Orderable.NO
        assert "nonorderable-positive-integer-lspace" in v.citations


def test_classify_lspace_without_integer_coordinate():
    v = classify(q(3, 2), q(7, 5))
    assert v.lspace is YES
    assert v.left_orderable is Orderable.UNKNOWN
    assert v.citations == ("lspace-threshold",)


def test_classify_euler_vanishing_side():
    v = classify(q(-3), q(5, 6))
    assert v.taut_foliation is YES and v.euler_vanishing is YES
    assert v.left_orderable is Orderable.YES
    assert "orderable-from-euler-vanishing" in v.citations


def test_classify_foliation_unknown_orderability():
    v = classify(q(1, 2), q(5, 3))
    assert v.taut_foliation is YES and v.euler_vanishing is NO
    assert v.left_orderable is Orderable.UNKNOWN
    assert v.citations == ("foliation-below-one", "euler-congruence")


def test_classify_fractional_euler_vanishing():
    v = classify(q(1, 2), q(1, 2))
    assert v.euler_vanishing is YES
    assert v.left_orderable is Orderable.YES


def test_classify_non_qhs():
    v = classify(q(0), q(5))
    assert not v.is_qhs and v.homology == (0, 5)
    assert v.lspace is NA and v.taut_foliation is NA
    assert v.euler_vanishing is NA
    assert v.left_orderable is Orderable.NOT_APPLICABLE
    assert v.citations == ("non-qhs-zero-numerator",)
    assert not classify(q(0), q(0)).is_qhs


def test_classify_infinite_coordinate():
    v = classify(INF, q(-7, 2))
    assert v.is_qhs and v.homology == (1, 7)
    assert v.lspace is YES and v.taut_foliation is NO
    assert v.euler_vanishing is NA
    assert v.left_orderable is Orderable.NO
    assert v.citations == ("lens-space-filling", "nonorderable-lens-or-s3")
    assert classify(INF, INF).lspace is YES


# ---------------------------------------------------------------------------
# The L-space rule against knot surgery on the lines s = 1/n.
# ---------------------------------------------------------------------------

def _twist_knot_series(n, terms):
    """The first ``terms`` coefficients of the torsion series
    t Delta(t) / (1 - t) of the twist knot with Alexander polynomial
    Delta(t) = n t - (2n - 1) + n t^-1: the partial sums of n, 1 - 2n, n."""
    return list(itertools.accumulate((n, 1 - 2 * n, n) + (0,) * terms))[:terms]


def _lspace_slopes_on_line(n, slopes):
    """The slopes s of ``slopes`` for which (s, 1/n) is an L-space, after
    checking that (1/n, s) gives the same verdict and that the homology is
    (|p|, 1) for s = p/q."""
    found = set()
    for s in slopes:
        v, w = classify(s, q(1, n)), classify(q(1, n), s)
        assert v.homology == (abs(s.num), 1) == w.homology[::-1]
        assert v.lspace is w.lspace
        if v.lspace is YES:
            found.add(s)
    return found


def test_lspace_rule_matches_twist_knot_surgery():
    """The L-space rule agrees with Heegaard Floer theory on the lines
    s2 = 1/n, given three facts from outside the paper.  Filling one
    component of the Whitehead link with slope 1/n leaves a twist knot in
    S^3 with Alexander polynomial n t - (2n - 1) + n t^-1, up to the sign
    convention n <-> -n (Rolfsen, Knots and Links), so (s, 1/n) is
    s-surgery on that knot.  A knot with an L-space surgery has a torsion
    series with every coefficient in {0, 1} (Ozsvath-Szabo, Topology 2005);
    for such a knot of genus g, s-surgery is an L-space exactly when
    s >= 2g - 1 (Ozsvath-Szabo, AGT 2011).  No check depends on the sign
    convention."""
    slopes = [INF] + [q(p, d) for p in range(-20, 21) for d in range(1, 8)
                      if gcd(p, d) == 1]
    for n in (*range(-6, -1), *range(2, 7)):
        assert not set(_twist_knot_series(n, 4)) <= {0, 1}
        assert _lspace_slopes_on_line(n, slopes) == {INF}
    # Of n = 1 and n = -1, one series is 1, 0, 1, 1, ... (the trefoil, of
    # genus 1) and the other -1, 2, 1, ... (the figure-eight), so exactly
    # one of the two lines has finite L-space slopes: the s >= 2g - 1 = 1.
    assert [_twist_knot_series(n, 4) for n in (1, -1)] == [[1, 0, 1, 1],
                                                          [-1, 2, 1, 1]]
    lines = {n: _lspace_slopes_on_line(n, slopes) for n in (1, -1)}
    # {inf}, and inf with the 78 reduced p/q >= 1 of the sample
    assert sorted(len(found) for found in lines.values()) == [1, 79]
    found = max(lines.values(), key=len)
    assert found == {INF} | {s for s in slopes[1:] if s >= ONE}
    # The same interval from the library's torsion machinery: the
    # trefoil's profile flags the columns up to deg t Delta(t) = 2 at which
    # its series is 1; every later column is 1.
    series = _twist_knot_series(1, 3)
    profile = TorsionProfile(1, 2, {(k, 0) for k, c in enumerate(series) if c})
    assert profile == TorsionProfile(1, 2, {(0, 0), (2, 0)})
    chosen = select_interval(interval_candidates(compute_d_positive(profile)),
                             min(found - {INF}))
    assert str(chosen) == "[1,inf]"
    assert found == {s for s in slopes if chosen.contains(s)}


# ---------------------------------------------------------------------------
# Properties of the classifier.
# ---------------------------------------------------------------------------

def test_foliation_region_frozen_points():
    region = wl_foliation_region()
    assert region.contains((q(1, 2), q(3)))    # straddling box around zero
    assert region.contains((q(1), q(-1)))      # mixed-sign box
    assert not region.contains((q(3, 2), q(2)))


def test_monodromy_constant():
    assert WL_MONODROMY.a0 == 1 and WL_MONODROMY.twists == (1, -1)


def test_verdict_json_schema():
    doc = classify(q(1), q(1)).to_json_dict()
    assert list(doc) == ["slope", "qhs", "homology", "lspace", "foliation",
                         "euler_zero", "left_orderable", "citations"]
    assert doc["slope"] == ["1", "1"]
    assert doc["qhs"] is True
    assert doc["homology"] == [1, 1]
    assert doc["lspace"] == "yes" and doc["foliation"] == "no"
    assert doc["euler_zero"] == "na"
    assert doc["left_orderable"] == "no"
    assert doc["citations"][0] == "lspace-threshold"
    non_qhs = classify(q(0), q(5)).to_json_dict()
    assert non_qhs["lspace"] == "na" and non_qhs["left_orderable"] == "na"
    # A member prints as the text the JSON writes for it.
    assert [str(m) for m in Ternary] == ["yes", "no", "na"]
    assert [str(m) for m in Orderable] == ["yes", "no", "unknown", "na"]


def test_plot_class_buckets():
    assert plot_class(classify(q(1), q(1))) == "lspace"
    assert plot_class(classify(q(1, 2), q(1, 2))) == "foliation"
    assert plot_class(classify(q(0), q(5))) == "non-qhs"


def test_verdict_is_frozen():
    v = classify(q(1), q(1))
    with pytest.raises(Exception):
        v.lspace = NO
    assert isinstance(v, SurgeryVerdict)


_VERDICT_REPR = (
    "SurgeryVerdict(slope=(ExtRational(5/6), ExtRational(-3)), is_qhs=True, "
    "homology=(5, 3), lspace=<Ternary.NO: 'no'>, taut_foliation=<Ternary.YES:"
    " 'yes'>, euler_vanishing=<Ternary.YES: 'yes'>, left_orderable="
    "<Orderable.YES: 'yes'>, citations=('foliation-below-one', "
    "'euler-congruence', 'orderable-from-euler-vanishing', "
    "'orderable-negative-integer-fiber'))")


_SECTOR_D1 = ("Sector(id='D1', kind=<SectorKind.HALF_DISC: 'half_disc'>, "
              "meets_boundary=True)")
_ARC_TEXT = ("CircularArc(start=ExtRational(0), end=ExtRational(inf), "
             "start_closed=False, end_closed=False)")

# The `rational.Record` classes.
_RECORD_CASES = [
    pytest.param(lambda: CircularArc(ONE, INF, True),
                 ("start", "end", "start_closed", "end_closed"),
                 "CircularArc(start=ExtRational(1), end=ExtRational(inf), "
                 "start_closed=True, end_closed=False)", id="CircularArc"),
    pytest.param(lambda: Region(1, ((POSITIVE_ARC,),), (0,)),
                 ("dim", "boxes", "lines"),
                 f"Region(dim=1, boxes=(({_ARC_TEXT},),), lines=(0,))",
                 id="Region"),
    pytest.param(lambda: TorsionProfile(1, 0, [(0, 0)]),
                 ("torsion_order", "threshold", "support"),
                 "TorsionProfile(torsion_order=1, threshold=0, "
                 "support=frozenset({(0, 0)}))", id="TorsionProfile"),
    pytest.param(lambda: Monodromy(1, [1, -1]), ("a0", "twists"),
                 "Monodromy(a0=1, twists=(1, -1))", id="Monodromy"),
    pytest.param(lambda: coherent_orientations(WL_MONODROMY)[0],
                 ("directions", "n_types"),
                 "OrientationAssignment(directions=(False, True), n_types=("
                 "(1, <TrackTemplate.N_IN: 'n_in'>), "
                 "(2, <TrackTemplate.N_OUT: 'n_out'>)))",
                 id="OrientationAssignment"),
    pytest.param(lambda: witness(TrackTemplate.A0_POSITIVE, q(-3, 2)),
                 ("template", "slope", "parametric", "x", "y"),
                 "Witness(template=<TrackTemplate.A0_POSITIVE: 'a0_positive'>,"
                 " slope=ExtRational(-3/2), parametric=True, "
                 "x=ExtRational(1/2), y=ExtRational(2))", id="Witness"),
    pytest.param(lambda: Sector("D1", SectorKind.HALF_DISC, True),
                 ("id", "kind", "meets_boundary"), _SECTOR_D1, id="Sector"),
    pytest.param(lambda: BranchArc("C1", big="S1", small_a="S1",
                                   small_b="D1"),
                 ("id", "big", "small_a", "small_b"),
                 "BranchArc(id='C1', big='S1', small_a='S1', small_b='D1')",
                 id="BranchArc"),
    pytest.param(lambda: BranchComplex(
                     (Sector("D1", SectorKind.HALF_DISC, True),),
                     (BranchArc("C1", "D1", "D1", "D1"),)),
                 ("sectors", "arcs"),
                 f"BranchComplex(sectors=({_SECTOR_D1},), arcs=(BranchArc("
                 "id='C1', big='D1', small_a='D1', small_b='D1'),))",
                 id="BranchComplex"),
    pytest.param(lambda: WeightSystem((("D1", 0), ("S1", 2))), ("weights",),
                 "WeightSystem(weights=(('D1', 0), ('S1', 2)))",
                 id="WeightSystem"),
]


@pytest.mark.parametrize("make, fields, text", [
    (lambda: ExtRational(num=3, den=-6), ("num", "den"), "ExtRational(-1/2)"),
    (lambda: classify(q(5, 6), q(-3)),
     ("slope", "is_qhs", "homology", "lspace", "taut_foliation",
      "euler_vanishing", "left_orderable", "citations"), _VERDICT_REPR),
    (lambda: EulerBoundary(a=-1, b=1, p=3, q=-1), ("a", "b", "p", "q"),
     "EulerBoundary(a=-1, b=1, p=3, q=-1)"),
    *_RECORD_CASES,
], ids=["ExtRational", "SurgeryVerdict", "EulerBoundary",
        *(case.id for case in _RECORD_CASES)])
def test_value_class_contract(make, fields, text):
    v = make()
    values = tuple(getattr(v, f) for f in fields)
    assert repr(v) == text
    assert v == make() and not v != make()
    assert hash(v) == hash(values)
    # Only a namedtuple equals its field tuple; a slots class never does,
    # so a set or region_union's dedup never merges it with a tuple.
    assert (v == values) is (values == v) is isinstance(v, tuple)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(v, f, getattr(v, f))
    for clone in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                  copy.deepcopy(v)):
        assert type(clone) is type(v) and clone == v and repr(clone) == text


@pytest.mark.parametrize("wrap", [tuple, list, iter],
                         ids=["tuple", "list", "iterator"])
def test_records_keep_their_containers_as_tuples(wrap):
    # A list stored as given would leave the record mutable and unhashable,
    # and an iterator would be stored after validation had consumed it.
    sectors = tuple(Sector(sid, SectorKind.DISC, False) for sid in "ABC")
    arcs = (BranchArc("C1", "A", "B", "C"),)
    c = BranchComplex(wrap(sectors), wrap(arcs))
    assert c == BranchComplex(sectors, arcs)
    assert hash(c) == hash(BranchComplex(sectors, arcs))
    assert len(carried_weight_cone(c, 2)) == 6    # w(B) + w(C) <= 2
    box = (POSITIVE_ARC, POSITIVE_ARC)
    r = Region(2, wrap([wrap(box)]), wrap([0]))
    assert r == Region(2, (box,), (0,))
    assert hash(r) == hash(Region(2, (box,), (0,)))
    assert r.contains((INF, ONE)) and r.contains((ONE, ONE))
    assert not r.contains((ONE, INF))
    m = Monodromy(1, (5, 10, -5))
    for o in coherent_orientations(m):
        made = OrientationAssignment(wrap(o.directions),
                                     wrap([wrap(p) for p in o.n_types]))
        # A stored iterator gave is_coherent True, then False.
        assert is_coherent(m, made) and is_coherent(m, made)
        assert made == o and hash(made) == hash(o)
    for ws in carried_weight_cone(c, 2):
        made = WeightSystem(wrap([wrap(p) for p in ws.weights]))
        assert made == ws and hash(made) == hash(ws)


# ---------------------------------------------------------------------------
# The verdict rules see a slope only through its facts.
# ---------------------------------------------------------------------------

def _oracle_classify(s1, s2):
    """The verdict rules written per slope pair, as `classify` stated them
    before it was split into `_cell` and `_decide`."""
    homology = (abs(s1.num), abs(s2.num))
    if s1.num == 0 or s2.num == 0:
        return SurgeryVerdict(
            slope=(s1, s2), is_qhs=False, homology=homology,
            lspace=NA, taut_foliation=NA, euler_vanishing=NA,
            left_orderable=Orderable.NOT_APPLICABLE,
            citations=("non-qhs-zero-numerator",))
    if s1.is_infinite() or s2.is_infinite():
        return SurgeryVerdict(
            slope=(s1, s2), is_qhs=True, homology=homology,
            lspace=YES, taut_foliation=NO, euler_vanishing=NA,
            left_orderable=Orderable.NO,
            citations=("lens-space-filling", "nonorderable-lens-or-s3"))
    is_lspace = s1 >= ONE and s2 >= ONE
    citations = []
    if is_lspace:
        lspace, foliation = YES, NO
        citations.append("lspace-threshold")
    else:
        lspace, foliation = NO, YES
        citations.append("foliation-below-one")
    euler = NA
    if foliation is YES:
        # |q| = 1 mod p with p = |numerator|, written out here so the
        # oracle does not share the library's congruence helper.
        if all((s.den - 1) % abs(s.num) == 0 for s in (s1, s2)):
            euler = YES
        else:
            euler = NO
        citations.append("euler-congruence")
    lo_yes = []
    lo_no = []
    if euler is YES:
        lo_yes.append("orderable-from-euler-vanishing")
    if any(s.den == 1 and s.num <= -1 for s in (s1, s2)):
        lo_yes.append("orderable-negative-integer-fiber")
    if is_lspace and any(s.den == 1 for s in (s1, s2)):
        lo_no.append("nonorderable-positive-integer-lspace")
    assert not (lo_yes and lo_no), (s1, s2, lo_yes, lo_no)
    if lo_yes:
        orderable = Orderable.YES
        citations.extend(lo_yes)
    elif lo_no:
        orderable = Orderable.NO
        citations.extend(lo_no)
    else:
        orderable = Orderable.UNKNOWN
    return SurgeryVerdict(
        slope=(s1, s2), is_qhs=True, homology=homology,
        lspace=lspace, taut_foliation=foliation, euler_vanishing=euler,
        left_orderable=orderable, citations=tuple(citations))


# One slope or more for each cell a slope can lie in (3/2 and 7/5 share
# theirs, as do 1/2 and 5/6).
FACT_REPRESENTATIVES = [q(0), INF, q(1), q(-3), q(1, 2), q(5, 6), q(3, 2),
                        q(7, 5), q(3, 5)]
REALIZABLE_FACTS = frozenset(_cell(s.num, s.den)
                             for s in FACT_REPRESENTATIVES)
SEVEN_CELLS = {"zero", "inf", "positive-integer", "negative-integer",
               "above-one", "euler", "other"}

# The cell each combination of four facts of a nonzero finite slope names,
# the facts being (s >= 1, integer, negative integer, Euler congruence).
# Every integer passes the congruence (q = 1), every negative slope is
# below 1, and a non-integer p/q >= 1 has p > q > 1, so 0 < q - 1 < p and
# the congruence fails there: of the 16 combinations only these 5 occur.
CELL_OF_FACTS = {
    (True, True, False, True): "positive-integer",
    (False, True, True, True): "negative-integer",
    (True, False, False, False): "above-one",
    (False, False, False, True): "euler",
    (False, False, False, False): "other",
}


def literal_cell(num, den):
    """The cell of the slope num/den in lowest terms, read from its four
    facts through `CELL_OF_FACTS` literally."""
    if num == 0:
        return "zero"
    if den == 0:
        return "inf"
    return CELL_OF_FACTS[num >= den, den == 1, den == 1 and num < 0,
                         (den - 1) % abs(num) == 0]


_slopes = st.one_of(
    st.just(INF),
    st.builds(ExtRational, st.integers(-10**12, 10**12),
              st.integers(-10**12, 10**12).filter(bool)))


def test_realizable_facts_are_seven():
    assert REALIZABLE_FACTS == SEVEN_CELLS


def test_cells_partition_slopes_exhaustively():
    # Every p/q in lowest terms with |p| <= 300 and 0 <= q <= 300 (109,593
    # pairs; 1/0 and -1/0 are both infinity) lies in the one cell that its
    # four facts, read literally, name.  On every nonzero finite slope the
    # Euler cells, criterion 8's reduced form |q| = 1 mod p and the general
    # a*q = b mod p of `euler_criterion` agree: with a = -1 that reads
    # -q = -1 for q > 0 and -q = 1 for q < 0 (mod p), both |q| = 1.
    assert len(set(CELL_OF_FACTS.values())) == len(CELL_OF_FACTS)
    met = set()
    for num in range(-300, 301):
        for den in range(301):
            if gcd(num, den) != 1:
                continue
            want = literal_cell(num, den)
            s = ExtRational(num, den)
            assert _cell(s.num, s.den) == want, (num, den)
            met.add(want)
            if num and den:
                euler = want in _EULER
                assert euler == wl_euler_vanishes(s, ONE), s
                assert euler == euler_criterion(wl_euler_data(s, ONE), True), s
    assert met == SEVEN_CELLS


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_facts_of_any_slope_are_realizable(num, den):
    assume(num or den)
    s = ExtRational(num, den)
    assert _cell(s.num, s.den) in REALIZABLE_FACTS


# ---------------------------------------------------------------------------
# The two regions and the verdicts, proved on the regions' common cut.
# ---------------------------------------------------------------------------

def _cut_samples():
    """One slope in each piece of the circle cut at infinity, 0, 1 and
    every finite arc endpoint of the two Whitehead regions: each cut point,
    a midpoint of each gap, one step beyond each end, and infinity."""
    arcs = [a for r in (wl_lspace_region(), wl_foliation_region())
            for box in r.boxes for a in box]
    return _sample_points(arcs + [POSITIVE_ARC, BELOW_ONE_ARC])


def test_whitehead_regions_exact_on_their_common_cut():
    """For every multislope: the two regions are disjoint, together they
    hold every pair with both numerators nonzero, and a finite pair is in
    the foliation region exactly when min(s1, s2) < 1.

    Every arc endpoint of both regions, 0 and infinity are cuts, so each
    region's membership (its boxes' arcs, and its infinity lines'
    "infinite here, finite and nonzero there"), "numerator nonzero" and,
    with 1 a cut too, "min < 1" are constant on every product of two
    pieces of the cut.  The samples hold a slope of every piece, so their
    64 pairs decide every multislope.
    """
    lspace, foliation = wl_lspace_region(), wl_foliation_region()
    samples = _cut_samples()
    assert len(samples) == 8    # the cuts inf, -1, 0 and 1, and four gaps
    for m in itertools.product(samples, repeat=2):
        in_lspace, in_foliation = lspace.contains(m), foliation.contains(m)
        assert not (in_lspace and in_foliation), m
        if all(s.num for s in m):
            assert in_lspace or in_foliation, m
        if all(s.is_finite() for s in m):
            assert in_foliation == (min(m) < ONE), m


def _side(cell):
    """Where the slopes of a cell lie against the cuts 0, 1 and infinity:
    "zero", "inf", "at-least-one" or "below-one".  The last two are read
    from the "s >= 1" fact that `CELL_OF_FACTS` names the cell by."""
    if cell in ("zero", "inf"):
        return cell
    at_least_one = next(f[0] for f, c in CELL_OF_FACTS.items() if c == cell)
    return "at-least-one" if at_least_one else "below-one"


def test_classify_agrees_with_the_regions_for_every_multislope():
    """Where both numerators are nonzero, the lspace and taut_foliation
    fields of `classify` are membership in the two regions, for every
    multislope.

    Over all 49 cell pairs the two fields depend only on each cell's side.
    Each side is a union of pieces of the regions' common cut, so the
    fields are constant on every product of two pieces, as the region
    memberships are; agreement on the cut samples' pairs is then agreement
    everywhere.
    """
    fields = {}
    for f1, f2 in itertools.product(SEVEN_CELLS, repeat=2):
        d = _decide(f1, f2)
        fields.setdefault((_side(f1), _side(f2)), set()).add(
            (d.lspace, d.taut_foliation))
    assert len(fields) == 16
    assert all(len(v) == 1 for v in fields.values()), fields
    lspace, foliation = wl_lspace_region(), wl_foliation_region()
    for m in itertools.product(_cut_samples(), repeat=2):
        if all(s.num for s in m):
            v = classify(*m)
            assert (v.lspace is YES) == lspace.contains(m), m
            assert (v.taut_foliation is YES) == foliation.contains(m), m


def test_rules_never_conflict():
    # Every slope pair has one of these fact pairs, so no slope pair cites
    # a rule for left orderability together with one against it.
    for f1 in REALIZABLE_FACTS:
        for f2 in REALIZABLE_FACTS:
            tags = _decide(f1, f2).citations
            yes = [t for t in tags if t.startswith("orderable-")]
            no = [t for t in tags if t.startswith("nonorderable-")]
            assert not (yes and no), (f1, f2, tags)
    for s1 in FACT_REPRESENTATIVES:
        for s2 in FACT_REPRESENTATIVES:
            assert classify(s1, s2) == _oracle_classify(s1, s2)


# The cell pairs whose left orderability the rules leave open: the
# L-space pair (above-one, above-one), where the conjecture predicts "not
# orderable", and the 9 ordered foliation-side pairs in which the Euler
# class does not vanish and neither slope is a negative integer.
UNDECIDED_CELL_PAIRS = {
    ("above-one", "above-one"),
    ("positive-integer", "other"), ("other", "positive-integer"),
    ("above-one", "euler"), ("euler", "above-one"),
    ("above-one", "other"), ("other", "above-one"),
    ("euler", "other"), ("other", "euler"), ("other", "other"),
}


def test_cell_table_keeps_the_papers_closing_claims():
    """The paper's closing claims hold on all 49 cell pairs of `_decide`.

    Every verdict is a function of the two slopes' cells (`classify` calls
    `_decide(_cell(s1), _cell(s2))`) and the seven cells partition the
    slopes, so these checks cover every multislope, not a grid.  They show
    that the rules encode the claims consistently; they do not re-derive
    them.  Orderability on the L-space side rests on the rule tags
    `nonorderable-positive-integer-lspace` and `nonorderable-lens-or-s3`.

    * Dichotomy: a rational homology sphere is exactly one of an L-space
      and a taut-foliation filling.
    * Integer surgeries: on the 9 pairs of cells drawn from
      positive-integer, negative-integer and inf, left orderability is
      decided, and the filling is an L-space exactly when it is not
      orderable (the L-space conjecture).
    * No decided pair contradicts the conjecture.
    * The undecided pairs are exactly `UNDECIDED_CELL_PAIRS`.
    * A vanishing Euler class gives an orderable group.
    * The verdict does not depend on the order of the two components, and
      the filling is a rational homology sphere exactly when neither
      slope is zero.
    """
    integer_cells = ("positive-integer", "negative-integer", "inf")
    undecided, integer_pairs = set(), 0
    for f1, f2 in itertools.product(sorted(SEVEN_CELLS), repeat=2):
        d = _decide(f1, f2)
        lo = d.left_orderable
        assert d[:5] == _decide(f2, f1)[:5], (f1, f2)
        assert d.is_qhs == ("zero" not in (f1, f2)), (f1, f2)
        if d.is_qhs:
            assert (d.lspace is YES) != (d.taut_foliation is YES), (f1, f2)
        if lo is Orderable.UNKNOWN:
            undecided.add((f1, f2))
        elif lo is not Orderable.NOT_APPLICABLE:
            assert (d.lspace is YES) == (lo is Orderable.NO), (f1, f2)
        if f1 in integer_cells and f2 in integer_cells:
            integer_pairs += 1
            assert d.is_qhs and lo in (Orderable.YES, Orderable.NO), (f1, f2)
        if d.euler_vanishing is YES:
            assert lo is Orderable.YES, (f1, f2)
    assert integer_pairs == 9
    assert undecided == UNDECIDED_CELL_PAIRS
    for f1, f2 in undecided - {("above-one", "above-one")}:
        d = _decide(f1, f2)
        assert d.taut_foliation is YES and d.euler_vanishing is NO
        assert "negative-integer" not in (f1, f2)


def _oracle_grid():
    out = {INF, q(0), q(1), q(-1)}
    out.update(q(p, d) for p in range(-6, 7) for d in range(1, 7))
    for p, d in ((10**6 + 1, 10**6), (10**6, 10**6 + 1), (1, 10**6),
                 (10**6, 1), (999_999, 10**6), (10**6 + 3, 2)):
        out.update(q(sp * p, sd * d) for sp in (1, -1) for sd in (1, -1))
    return sorted(out, key=lambda s: (s.num, s.den))


def test_classify_matches_pairwise_oracle():
    grid = _oracle_grid()
    for s1 in grid:
        for s2 in grid:
            # Namedtuple equality compares every field, citation order too.
            assert classify(s1, s2) == _oracle_classify(s1, s2), (s1, s2)


@given(_slopes, _slopes)
def test_classify_matches_oracle_on_random_slopes(s1, s2):
    assert classify(s1, s2) == _oracle_classify(s1, s2)
