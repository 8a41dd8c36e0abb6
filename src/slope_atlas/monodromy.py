"""Monodromies of k-holed torus bundles and their boundary data.

A monodromy is a word tau_0^{a_0} tau_1^{a_1} ... tau_k^{a_k} in the twists
along a fixed system of curves on the k-holed torus: a_0 twists along the
closed curve, a_i != 0 along the i-th arc-parallel curve, indices cyclic
(a_{k+1} = a_1).  A taut foliation transverse to the fibration comes from
a branched surface whose track on each boundary torus is one of the
templates below.  One pass reads the twist signs into each boundary's
template; the labels, the n types of the two coherent orientations of the
transfer arcs beta_i and the intervals I and J are read from it, and the
template table is the only record of the slope arc each track realizes.
"""

import enum

from .rational import Record
from .slopes import (ABOVE_MINUS_ONE_ARC, BELOW_ONE_ARC, NEGATIVE_ARC,
                     POSITIVE_ARC, UNIT_ARC, ExtRational, Region, parse_int,
                     region_union, shown_token)


class BoundaryLabel(enum.Enum):
    PPLUS = "p+"
    PMINUS = "p-"
    N = "n"

    def __str__(self):
        return self.value


class TrackTemplate(enum.Enum):
    """The train track a branched surface induces on one boundary torus."""

    A0_POSITIVE = "a0_positive"
    A0_NEGATIVE = "a0_negative"
    PPLUS = "pplus"
    PMINUS = "pminus"
    N_OUT = "n_out"   # both incident transfer arcs start at the boundary
    N_IN = "n_in"     # both incident transfer arcs end at the boundary
    WL_SPECIAL_FIRST = "wl_special_first"
    WL_SPECIAL_SECOND = "wl_special_second"

    def __str__(self):
        return self.value


# The open arc of slopes realized by measured laminations on each track.
_REALIZED = {
    TrackTemplate.A0_POSITIVE: BELOW_ONE_ARC,
    TrackTemplate.PPLUS: BELOW_ONE_ARC,
    TrackTemplate.A0_NEGATIVE: ABOVE_MINUS_ONE_ARC,
    TrackTemplate.PMINUS: ABOVE_MINUS_ONE_ARC,
    TrackTemplate.N_OUT: POSITIVE_ARC,
    TrackTemplate.N_IN: NEGATIVE_ARC,
    TrackTemplate.WL_SPECIAL_FIRST: POSITIVE_ARC,
    TrackTemplate.WL_SPECIAL_SECOND: UNIT_ARC,
}


def realized_interval(template):
    """The open arc of slopes realized by the template."""
    return _REALIZED[template]


# The two annulus templates have a two-weight parametrization (x, y) with
# slope x - y, so their witnesses are exact weight pairs; the other
# templates are sourced from pictures only and their witnesses are
# membership certificates.
_PARAMETRIC = (TrackTemplate.A0_POSITIVE, TrackTemplate.A0_NEGATIVE)


class Witness(Record):
    """Evidence that a slope is realized by a track template.

    Parametric witnesses carry the weight pair (x, y) with x - y equal to
    the slope; certificate witnesses carry only the slope and the realized
    arc it was checked against.
    """

    __slots__ = _fields = ("template", "slope", "parametric", "x", "y")

    def __init__(self, template, slope, parametric, x=None, y=None):
        self._init(template, slope, parametric, x, y)


def witness(template, slope):
    """A witness that the slope lies in the template's realized interval.

    Raises ValueError when the slope is not realized.  For the two annulus
    templates the weights are x = (max(0, s) + 1)/2 and y = x - s (or the
    mirror assignment), which meet the positivity constraints exactly when
    the slope is realized; with s = n/d they are integers over 2d.
    """
    arc = realized_interval(template)
    if not arc.contains(slope):
        raise ValueError(f"slope {slope} is not realized by {template}: "
                         f"the realized interval is {arc}")
    if template not in _PARAMETRIC:
        return Witness(template, slope, parametric=False)
    n, d = slope.num, slope.den  # finite: neither annulus arc holds inf
    if template is TrackTemplate.A0_POSITIVE:
        x = max(n, 0) + d
        y = x - 2 * n
    else:
        y = max(-n, 0) + d
        x = y + 2 * n
    return Witness(template, slope, parametric=True,
                   x=ExtRational(x, 2 * d), y=ExtRational(y, 2 * d))


class Monodromy(Record):
    """Exponent data (a_0; a_1, ..., a_k) with a_i != 0 for i >= 1."""

    __slots__ = _fields = ("a0", "twists")

    def __init__(self, a0, twists):
        twists = tuple(twists)
        if not twists:
            raise ValueError("need at least one boundary twist exponent")
        if any(type(a) is not int for a in (a0, *twists)):
            raise ValueError("exponents must be integers")
        if any(a == 0 for a in twists):
            raise ValueError("boundary twist exponents must be nonzero, "
                             f"got {shown_token(str(twists))}")
        self._init(a0, twists)

    @property
    def k(self):
        return len(self.twists)

    def __str__(self):
        return f"{self.a0}; " + ", ".join(str(a) for a in self.twists)


# Monodromy of the fibered Whitehead-link complement: one positive twist
# along the closed curve, opposite twists along the two arc-parallel curves.
# `whitehead.wl_foliation_region` adds to its foliation region the boxes of
# the WL_SPECIAL_FIRST and WL_SPECIAL_SECOND tracks.
WL_MONODROMY = Monodromy(1, (1, -1))


def parse_monodromy(text):
    """Parse 'a0; a1, a2, ..., ak'."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"invalid monodromy {shown_token(text)!r}: "
                         "expected 'a0; a1, ..., ak'")
    a0 = parse_int(parts[0], "monodromy exponent")
    twists = tuple(parse_int(tok, "monodromy exponent")
                   for tok in parts[1].split(","))
    return Monodromy(a0, twists)


# Reversing every transfer arc swaps the n templates N_OUT and N_IN.
_REVERSED = {TrackTemplate.N_OUT: TrackTemplate.N_IN,
             TrackTemplate.N_IN: TrackTemplate.N_OUT}
_LABEL = {TrackTemplate.PPLUS: BoundaryLabel.PPLUS,
          TrackTemplate.PMINUS: BoundaryLabel.PMINUS}


def _templates(m):
    """Each boundary's template under the first coherent orientation; the
    only reading of the twist signs into boundary data.

    Boundary i is met by beta_i and beta_{i+1}, which keep their direction
    across it when a_i and a_{i+1} share a sign (PPLUS or PMINUS by that
    sign; for k = 1 the pair is (a_1, a_1)) and flip across it otherwise,
    so beta_i and beta_1 share a direction exactly when a_i and a_1 share a
    sign.  beta_1 runs into boundary 1, so both arcs at an n boundary i
    start there (N_OUT) when a_i and a_1 differ in sign and end there
    (N_IN) when they agree.
    """
    pos = [a > 0 for a in m.twists]
    return tuple(
        (TrackTemplate.PPLUS if p else TrackTemplate.PMINUS) if p == nxt
        else TrackTemplate.N_OUT if p != pos[0] else TrackTemplate.N_IN
        for p, nxt in zip(pos, pos[1:] + pos[:1]))


def labels(m):
    """Boundary labels, one per boundary component i = 1..k: p+ or p- on
    the boundaries with a PPLUS or PMINUS template, n on the others."""
    return tuple(_LABEL.get(t, BoundaryLabel.N) for t in _templates(m))


def intervals(m):
    """The two multislope interval tuples (I, J) realized at the boundary:
    I realizes the templates of the first coherent orientation, J those of
    the second, where N_OUT and N_IN trade places."""
    templates = _templates(m)
    return (tuple(map(realized_interval, templates)),
            tuple(realized_interval(_REVERSED.get(t, t)) for t in templates))


def foliation_region(m):
    """Multislopes filling to manifolds with a taut foliation transverse to
    the fibration: the a_0 box plus the two interval boxes.

    a_0 > 0 puts the A0_POSITIVE track on every boundary, a_0 < 0 the
    A0_NEGATIVE one, and a_0 = 0 gives no box of this kind.  Identical boxes
    are merged.
    """
    a0_box = ()
    if m.a0:
        a0 = (TrackTemplate.A0_POSITIVE if m.a0 > 0
              else TrackTemplate.A0_NEGATIVE)
        a0_box = ((realized_interval(a0),) * m.k,)
    return region_union(Region(m.k, a0_box), Region(m.k, intervals(m)))


class OrientationAssignment(Record):
    """A coherent orientation of the transfer arcs beta_1..beta_k.

    ``directions[i]`` is the bit of beta_{i+1}: False means the arc runs
    from boundary i (cyclically, boundary 0 is boundary k) to boundary i+1,
    True the reverse.  ``n_types`` pairs each n-labeled boundary index
    (1-based) with its template: N_OUT when both incident arcs start there,
    N_IN when both end there.  Both are stored as tuples, pairs included.
    """

    __slots__ = _fields = ("directions", "n_types")

    def __init__(self, directions, n_types):
        self._init(tuple(directions), tuple(map(tuple, n_types)))

    def reversed(self):
        return OrientationAssignment(
            (not d for d in self.directions),
            ((i, _REVERSED.get(t, t)) for i, t in self.n_types))


def coherent_orientations(m):
    """The two coherent orientations: the bit of beta_i is set when a_i and
    a_1 differ in sign, the n types are the n templates, and the second
    orientation is the componentwise reversal of the first."""
    first_positive = m.twists[0] > 0
    first = OrientationAssignment(
        ((a > 0) != first_positive for a in m.twists),
        ((i, t) for i, t in enumerate(_templates(m), start=1)
         if t in _REVERSED))
    return first, first.reversed()


def is_coherent(m, o):
    """Whether an orientation assignment is one of the two coherent ones:
    equal bits across p-labeled boundaries, flipped bits across n-labeled
    ones, with matching n types in any order."""
    return any(o.directions == c.directions
               and dict(o.n_types) == dict(c.n_types)
               for c in coherent_orientations(m))
