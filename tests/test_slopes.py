"""Exact slope arithmetic, cyclic arcs and regions."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slope_atlas.rational import slope_terms
from slope_atlas.slopes import (
    INF,
    MAX_SLOPE_TOKEN,
    ONE,
    ZERO,
    CircularArc,
    ExtRational,
    Region,
    parse_slope,
    region_union,
)


def q(num, den=1):
    return ExtRational(num, den)


def test_normalize_frozen_examples():
    assert ExtRational(6, -4) == q(-3, 2)
    assert ExtRational(5, 0) == INF
    assert ExtRational(0, -7) == ZERO
    assert ExtRational(1, 2) != (1, 2)


def test_normalize_rejects_zero_over_zero():
    with pytest.raises(ValueError):
        ExtRational(0, 0)


def test_normalize_rejects_non_integers():
    with pytest.raises(ValueError):
        ExtRational(1.5, 2)
    with pytest.raises(ValueError):
        ExtRational(True, 1)
    with pytest.raises(ValueError):
        ExtRational(1, False)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_normalize_idempotent_and_scale_invariant(num, den):
    if num == 0 and den == 0:
        return
    s = ExtRational(num, den)
    assert ExtRational(s.num, s.den) == s
    assert ExtRational(3 * num, 3 * den) == s
    assert ExtRational(-num, -den) == s
    if s.is_finite():
        assert s.den > 0
        import math
        assert math.gcd(abs(s.num), s.den) == 1
        assert Fraction(s.num, s.den) == Fraction(num, den)
    else:
        assert (s.num, s.den) == (1, 0)


ORDER_OPS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_comparisons_match_fractions():
    rng = random.Random(7)
    for _ in range(300):
        a = q(rng.randint(-50, 50), rng.randint(1, 20))
        b = q(rng.randint(-50, 50), rng.randint(1, 20))
        for x, y in ((a, b), (b, a), (a, a)):
            fx, fy = Fraction(x.num, x.den), Fraction(y.num, y.den)
            for op in ORDER_OPS:
                assert op(x, y) == op(fx, fy), (op, x, y)


def test_comparison_with_infinity_rejected():
    for op in ORDER_OPS:
        for x, y in ((INF, ONE), (ONE, INF), (INF, INF)):
            with pytest.raises(ValueError) as exc:
                op(x, y)
            assert str(exc.value) == ("order comparison is undefined for "
                                      "the infinity slope"), (op, x, y)
        for x, y in ((ONE, 1), (1, ONE), (INF, 1)):
            with pytest.raises(TypeError) as exc:
                op(x, y)
            assert str(exc.value) == "cannot compare slope with int", (
                op, x, y)


def test_parse_and_format_round_trip():
    for text in ("inf", "0", "7", "-3", "1/2", "-7/2", "3/5"):
        assert str(parse_slope(text)) == text
    assert parse_slope("3/-1") == q(-3)
    assert parse_slope(" 4/6 ") == q(2, 3)


# Slope spellings the grammar reads or refuses, each sign and zero spelling,
# leading zeros, padding and a 20-digit numerator among them: 18 readable
# spellings and 10 refused ones.  test_cli runs them through batch too.
TOKEN_SPELLINGS = [
    "3/5", "-3/5", "3/-5", "-3/-5", "0/-7", "-6/-4", "2/-1", "-4/0",
    "1000001/1000000", "1000000/1000001", "-1000000/2000001",
    "999999/-1000000", "-0", "007/010", "-007", "  5/6  ", "inf",
    "98765432109876543210/-4", "0/0", "-0/-0", "+3", "1_0", "1" * 101,
    "\uff11", "1/0/2", "1.5", "x", ""]


def test_parse_slope_is_the_slope_of_the_lowest_terms():
    # The slope of a token is the one ExtRational builds from the lowest
    # terms slope_terms reads, and a token slope_terms refuses makes
    # parse_slope fail with the same message.
    read = 0
    for tok in TOKEN_SPELLINGS:
        try:
            terms = slope_terms(tok)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                parse_slope(tok)
            assert str(err.value) == str(exc)
            continue
        s, want = parse_slope(tok), ExtRational(*terms)
        assert s == want and hash(s) == hash(want) and repr(s) == repr(want)
        assert (s.num, s.den) == terms and type(s.num) is int, tok
        read += 1
    assert read == 18
    # The constructor itself still refuses a bool component.
    with pytest.raises(ValueError):
        ExtRational(True, 1)


@pytest.mark.parametrize("bad", ["", "foo", "1/2/3", "1.5", "0/0", "--2",
                                 "inf/2", "2/inf", "1_0/3", "\u0663", "+3",
                                 "3/ 4",
                                 pytest.param("9" * 5000, id="5000-digits"),
                                 pytest.param(" " * 300 + "0/0",
                                              id="padded-0/0"),
                                 pytest.param(" " * 150 + "9" * 5000,
                                              id="padded-5000-digits")])
def test_parse_rejects_garbage_naming_token(bad):
    with pytest.raises(ValueError) as err:
        parse_slope(bad)
    msg = str(err.value)
    assert repr(bad) in msg or bad.strip()[:MAX_SLOPE_TOKEN] in msg
    assert len(msg) < 2 * MAX_SLOPE_TOKEN


def test_arc_membership_frozen_examples():
    below_one = CircularArc(INF, ONE)
    assert below_one.contains(q(1, 2))
    assert not below_one.contains(INF)
    assert CircularArc(ONE, INF, True, True).contains(INF)


def test_arc_membership_cases():
    plain = CircularArc(q(1), q(2))                 # finite, start < end
    assert plain.contains(q(3, 2))
    assert not plain.contains(q(1)) and not plain.contains(q(2))
    assert not plain.contains(INF) and not plain.contains(q(5))

    closed = CircularArc(q(1), q(2), True, True)
    assert closed.contains(q(1)) and closed.contains(q(2))

    wrap = CircularArc(q(2), q(1))                  # wraps through infinity
    assert wrap.contains(q(3)) and wrap.contains(q(0)) and wrap.contains(INF)
    assert not wrap.contains(q(3, 2))
    assert not wrap.contains(q(1)) and not wrap.contains(q(2))

    from_inf = CircularArc(INF, q(0), True, False)  # negatives plus infinity
    assert from_inf.contains(INF) and from_inf.contains(q(-1))
    assert not from_inf.contains(q(0)) and not from_inf.contains(q(1))

    to_inf = CircularArc(q(0), INF)                 # positives, open
    assert to_inf.contains(q(1, 7))
    assert not to_inf.contains(INF) and not to_inf.contains(q(0))


@pytest.mark.parametrize("ends", [(ONE, 5), (Fraction(1), ONE),
                                  (None, INF), ((1, 2), ZERO)])
def test_arc_endpoints_must_be_slopes(ends):
    with pytest.raises(TypeError, match="arc endpoints must be slopes"):
        CircularArc(*ends)


def test_degenerate_arcs():
    # The open arc from 1 round to 1 is every slope but 1.
    punctured = CircularArc(ONE, ONE)
    assert not punctured.contains(ONE)
    assert punctured.contains(INF) and punctured.contains(q(2))
    assert punctured.contains(ZERO)
    point = CircularArc(ONE, ONE, True, True)
    assert point.contains(ONE)
    assert not point.contains(q(2)) and not point.contains(INF)
    with pytest.raises(ValueError, match="every slope but that one"):
        CircularArc(ONE, ONE, True, False)


def _random_slope(rng, allow_inf=True):
    if allow_inf and rng.random() < 0.12:
        return INF
    return ExtRational(rng.randint(-8, 8), rng.randint(1, 6))


def _random_arc(rng):
    while True:
        s = _random_slope(rng)
        e = _random_slope(rng)
        sc, ec = rng.random() < 0.5, rng.random() < 0.5
        if s == e and sc != ec:
            continue
        return CircularArc(s, e, sc, ec)


def _sample_points(arcs):
    """Endpoints, midpoints between consecutive endpoint values, and points
    outside the endpoint range, plus infinity."""
    finite = sorted({Fraction(x.num, x.den)
                     for a in arcs for x in (a.start, a.end)
                     if x.is_finite()} | {Fraction(0)})
    values = finite[:1]
    for lo, hi in zip(finite, finite[1:]):
        values += [(lo + hi) / 2, hi]
    values += [finite[0] - 1, finite[-1] + 1]
    return [INF] + [ExtRational(f.numerator, f.denominator) for f in values]


def _random_region(rng, dim, max_boxes=2):
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        boxes.append(tuple(_random_arc(rng) for _ in range(dim)))
    lines = tuple(i for i in range(dim) if rng.random() < 0.3)
    return Region(dim, tuple(boxes), lines)


def _sample_multislopes(rng, regions, dim, count=60):
    arcs = [a for r in regions for box in r.boxes for a in box]
    if not arcs:
        arcs = [CircularArc(ZERO, ONE)]
    pts = _sample_points(arcs)
    out = []
    for _ in range(count):
        out.append(tuple(rng.choice(pts) for _ in range(dim)))
    return out


def test_region_union_membership():
    rng = random.Random(17)
    for _ in range(150):
        dim = rng.choice((1, 2, 3))
        r1 = _random_region(rng, dim)
        r2 = _random_region(rng, dim)
        u = region_union(r1, r2)
        for m in _sample_multislopes(rng, (r1, r2), dim):
            want = r1.contains(m) or r2.contains(m)
            assert u.contains(m) == want, (r1, r2, m)


def test_region_union_frozen_examples():
    below_one = Region(2, ((CircularArc(INF, ONE), CircularArc(INF, ONE)),))
    mixed = Region(2, ((CircularArc(ZERO, INF), CircularArc(INF, ZERO)),))
    assert region_union(below_one, mixed).contains((q(1), q(-1, 2)))
    assert region_union(Region(2), mixed).contains((q(3), q(-2)))
    assert not region_union(Region(2), mixed).contains((q(-3), q(2)))


def test_region_dimension_checks():
    r = Region(2, ((CircularArc(ZERO, INF), CircularArc(ZERO, INF)),))
    with pytest.raises(ValueError):
        r.contains((ZERO,))
    with pytest.raises(ValueError):
        region_union(r, Region(3))
    with pytest.raises(ValueError):
        Region(2, ((CircularArc(ZERO, INF),),))
    with pytest.raises(ValueError):
        Region(1, (), (3,))


@pytest.mark.parametrize("box", [(5,), (ONE,), (None,), ((ZERO, INF),)])
def test_region_box_entries_must_be_arcs(box):
    # Without the check, `contains` failed later with AttributeError.
    with pytest.raises(TypeError, match="box entries must be arcs"):
        Region(1, (box,))


@pytest.mark.parametrize("args", [
    (True, ((CircularArc(ZERO, INF),),)),
    (2.0, ()),
    (2, (), (True,)),
    (2, (), (False,)),
    (2, (), (1.0,)),
    (2, (), (Fraction(1),)),
])
def test_region_dimension_and_lines_must_be_ints(args):
    with pytest.raises(ValueError, match="not an int|line index"):
        Region(*args)


def test_empty_region_behavior():
    e = Region(2)
    assert not e.boxes and not e.lines
    assert not e.contains((ZERO, ZERO))
    r = Region(2, (), (0,))
    assert region_union(e, r).contains((INF, ONE))


def test_infinity_line_semantics():
    r = Region(2, (), (0,))
    assert r.contains((INF, q(-5)))
    assert not r.contains((INF, ZERO))       # other coordinate must be nonzero
    assert not r.contains((INF, INF))        # and finite
    assert not r.contains((q(-5), INF))


def test_one_dimensional_region_membership():
    r = Region(1, ((CircularArc(ZERO, INF),),))
    assert r.contains((ONE,))
    assert not r.contains((INF,))
