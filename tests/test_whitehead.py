"""Whitehead-link surgery verdicts and the supporting Euler-class rules."""

from __future__ import annotations

import copy
import pickle
import random
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from slope_atlas.branched import (BranchArc, BranchComplex, Sector, SectorKind,
                                  WeightSystem, carried_weight_cone)
from slope_atlas.lspace import TorsionProfile
from slope_atlas.monodromy import (WL_MONODROMY, Monodromy,
                                   OrientationAssignment, TrackTemplate,
                                   coherent_orientations, is_coherent, witness)
from slope_atlas.slopes import (INF, ONE, POSITIVE_ARC, CircularArc,
                                ExtRational, Region, parse_slope,
                                region_intersect)
from slope_atlas.whitehead import (
    FIBER_PAIRING,
    EulerBoundary,
    Orderable,
    SurgeryVerdict,
    Ternary,
    _decide,
    _facts,
    classify,
    euler_criterion,
    plot_class,
    wl_euler_data,
    wl_euler_vanishes,
    wl_foliation_region,
    wl_lspace_region,
)

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
# Properties of the classifier.
# ---------------------------------------------------------------------------

def _some_slopes(rng, count):
    out = [INF, q(0), q(1), q(-1), q(1, 2)]
    while len(out) < count:
        out.append(q(rng.randint(-20, 20), rng.randint(1, 8)))
    return out


def test_classifier_symmetric_in_the_components():
    rng = random.Random(53)
    slopes = _some_slopes(rng, 40)
    for s1 in slopes:
        for s2 in slopes:
            a, b = classify(s1, s2), classify(s2, s1)
            assert a.slope == (s1, s2) and b.slope == (s2, s1)
            assert a.homology == tuple(reversed(b.homology))
            assert (a.is_qhs, a.lspace, a.taut_foliation,
                    a.euler_vanishing, a.left_orderable) == (
                b.is_qhs, b.lspace, b.taut_foliation,
                b.euler_vanishing, b.left_orderable)


def test_qhs_iff_nonzero_numerators():
    rng = random.Random(54)
    for s1 in _some_slopes(rng, 25):
        for s2 in _some_slopes(rng, 25):
            v = classify(s1, s2)
            assert v.is_qhs == (s1.num != 0 and s2.num != 0)
            assert v.homology == (abs(s1.num), abs(s2.num))


def test_foliation_region_frozen_points():
    region = wl_foliation_region()
    assert region.contains((q(1, 2), q(3)))    # straddling box around zero
    assert region.contains((q(1), q(-1)))      # mixed-sign box
    assert not region.contains((q(3, 2), q(2)))


def test_dichotomy_and_region_agreement_small_grid():
    lspace_region = wl_lspace_region()
    foliation_region = wl_foliation_region()
    slopes = [q(p, qq) for p in range(1, 8) for qq in range(-7, 8)
              if qq and gcd(p, abs(qq)) == 1]
    slopes.append(INF)
    for s1 in slopes:
        for s2 in slopes:
            v = classify(s1, s2)
            assert (v.lspace is YES) != (v.taut_foliation is YES)
            assert (v.lspace is YES) == lspace_region.contains((s1, s2))
            assert (v.taut_foliation is YES) == foliation_region.contains(
                (s1, s2))


def test_lspace_and_foliation_regions_are_disjoint():
    # The exact half of the dichotomy: no multislope, infinity included,
    # lies in both regions.
    both = region_intersect(wl_lspace_region(), wl_foliation_region())
    assert not both.boxes and not both.lines


def test_foliation_region_is_min_below_one_on_finite_slopes():
    region = wl_foliation_region()
    rng = random.Random(55)
    one = q(1)
    for _ in range(2000):
        s1, s2 = _random_finite_nonzero(rng), _random_finite_nonzero(rng)
        want = s1 < one or s2 < one
        assert region.contains((s1, s2)) == want


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
    before it was split into `_facts` and `_decide`."""
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


# One slope for each set of facts a slope can have.  Every integer passes
# the congruence (q = 1), every negative slope is below 1, and a
# non-integer p/q >= 1 has p > q > 1, so 0 < q - 1 < p and the congruence
# fails there: of the 16 fact tuples only 5 occur, and with "zero" and
# "inf" that makes 7 (3/2 and 7/5 share theirs, as do 1/2 and 5/6).
FACT_REPRESENTATIVES = [q(0), INF, q(1), q(-3), q(1, 2), q(5, 6), q(3, 2),
                        q(7, 5), q(3, 5)]
REALIZABLE_FACTS = frozenset(_facts(s) for s in FACT_REPRESENTATIVES)

_slopes = st.one_of(
    st.just(INF),
    st.builds(ExtRational, st.integers(-10**12, 10**12),
              st.integers(-10**12, 10**12).filter(bool)))


def test_realizable_facts_are_seven():
    assert len(REALIZABLE_FACTS) == 7
    assert {"zero", "inf"} <= REALIZABLE_FACTS


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_facts_of_any_slope_are_realizable(num, den):
    assume(num or den)
    assert _facts(ExtRational(num, den)) in REALIZABLE_FACTS


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
            # Dataclass equality compares every field, citation order too.
            assert classify(s1, s2) == _oracle_classify(s1, s2), (s1, s2)


@given(_slopes, _slopes)
def test_classify_matches_oracle_on_random_slopes(s1, s2):
    assert classify(s1, s2) == _oracle_classify(s1, s2)


def test_decide_memo_stays_bounded():
    # The memo is keyed on facts, not slopes, so distinct slopes do not
    # grow it: batch memory stays flat however long the input is.
    rng = random.Random(56)
    slopes = {INF, q(0)}
    while len(slopes) < 10_000:
        den = rng.choice((1, 2, rng.randint(1, 10**9)))
        slopes.add(q(rng.randint(-10**9, 10**9), den))
    slopes = list(slopes)
    for s1, s2 in zip(slopes, slopes[1:] + slopes[:1]):
        classify(s1, s2)
    assert _decide.cache_info().currsize <= 64
