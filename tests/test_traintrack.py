"""Boundary train-track templates and realized-slope witnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from slope_atlas.slopes import INF, ExtRational
from slope_atlas.monodromy import TrackTemplate, Witness, realized_interval, witness


def q(num, den=1):
    return ExtRational(num, den)


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
                assert w.arc == arc
            else:
                with pytest.raises(ValueError):
                    witness(template, s)


def test_parametric_weights_recover_the_slope():
    rng = random.Random(42)
    slopes = _random_slopes(rng, 300)
    zero, one = Fraction(0), Fraction(1)
    for s in slopes:
        if realized_interval(TrackTemplate.A0_POSITIVE).contains(s):
            w = witness(TrackTemplate.A0_POSITIVE, s)
            x, y = w.x.as_fraction(), w.y.as_fraction()
            assert x - y == s.as_fraction()
            assert zero < x < one and y > zero
        if realized_interval(TrackTemplate.A0_NEGATIVE).contains(s):
            w = witness(TrackTemplate.A0_NEGATIVE, s)
            x, y = w.x.as_fraction(), w.y.as_fraction()
            assert x - y == s.as_fraction()
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
        neg = INF if s.is_infinite() else -s
        for left, right in mirrors:
            assert (realized_interval(left).contains(s)
                    == realized_interval(right).contains(neg))


def test_witness_dataclass_direct_construction():
    w = Witness(TrackTemplate.N_OUT, q(2), parametric=False)
    assert str(w.arc) == "(0,inf)"
