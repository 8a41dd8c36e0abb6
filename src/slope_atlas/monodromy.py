"""Monodromies of k-holed torus bundles and their boundary data.

A monodromy is a word tau_0^{a_0} tau_1^{a_1} ... tau_k^{a_k} in the twists
along a fixed system of curves on the k-holed torus: a_0 twists along the
closed curve, a_i != 0 along the i-th arc-parallel curve, indices cyclic
(a_{k+1} = a_1).  Each boundary component gets a sign label from the
adjacent pair of exponents; the labels drive both the multislope intervals
realized by taut foliations transverse to the fibration and the two coherent
orientations of the transfer arcs beta_i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .slopes import (ABOVE_MINUS_ONE_ARC, BELOW_ONE_ARC, NEGATIVE_ARC,
                     POSITIVE_ARC, Region, parse_int, shown_token)


class BoundaryLabel(enum.Enum):
    PPLUS = "p+"
    PMINUS = "p-"
    N = "n"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Monodromy:
    """Exponent data (a_0; a_1, ..., a_k) with a_i != 0 for i >= 1."""

    a0: int
    twists: tuple

    def __post_init__(self):
        twists = tuple(self.twists)
        object.__setattr__(self, "twists", twists)
        if not twists:
            raise ValueError("need at least one boundary twist exponent")
        if any(not isinstance(a, int) for a in (self.a0, *twists)):
            raise ValueError("exponents must be integers")
        if any(a == 0 for a in twists):
            raise ValueError("boundary twist exponents must be nonzero, "
                             f"got {shown_token(str(twists))}")

    @property
    def k(self):
        return len(self.twists)

    def __str__(self):
        return f"{self.a0}; " + ", ".join(str(a) for a in self.twists)


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


def labels(m):
    """Boundary labels, one per boundary component i = 1..k.

    The label of boundary i is decided by the signs of (a_i, a_{i+1}),
    cyclically: both positive p+, both negative p-, mixed n.  For k = 1 the
    pair is (a_1, a_1), so the label is p+ or p- by the sign of a_1.
    """
    out = []
    k = m.k
    for i in range(k):
        a, b = m.twists[i], m.twists[(i + 1) % k]
        if a > 0 and b > 0:
            out.append(BoundaryLabel.PPLUS)
        elif a < 0 and b < 0:
            out.append(BoundaryLabel.PMINUS)
        else:
            out.append(BoundaryLabel.N)
    return tuple(out)


def intervals(m):
    """The two multislope interval tuples (I, J) realized at the boundary.

    p+ and p- boundaries realize (inf, 1) and (-1, inf) in both tuples.  The
    n-labeled boundaries, in increasing index order, alternate (inf, 0) and
    (0, inf) in I and the opposite way in J.
    """
    labs = labels(m)
    i_arcs, j_arcs = [], []
    n_seen = 0
    for lab in labs:
        if lab is BoundaryLabel.PPLUS:
            i_arcs.append(BELOW_ONE_ARC)
            j_arcs.append(BELOW_ONE_ARC)
        elif lab is BoundaryLabel.PMINUS:
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


def foliation_region(m):
    """Multislopes filling to manifolds with a taut foliation transverse to
    the fibration: the a_0 box plus the two interval boxes.

    a_0 > 0 gives the box (inf, 1)^k, a_0 < 0 gives (-1, inf)^k, a_0 = 0
    gives no box of this kind.  Identical boxes are merged.
    """
    k = m.k
    boxes = []
    if m.a0 > 0:
        boxes.append(tuple([BELOW_ONE_ARC] * k))
    elif m.a0 < 0:
        boxes.append(tuple([ABOVE_MINUS_ONE_ARC] * k))
    i_arcs, j_arcs = intervals(m)
    for box in (i_arcs, j_arcs):
        if box not in boxes:
            boxes.append(box)
    return Region(k, tuple(boxes))


class NType(enum.Enum):
    OUT = "n_out"   # both incident arcs start at the boundary
    IN = "n_in"     # both incident arcs end at the boundary

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class OrientationAssignment:
    """A coherent orientation of the transfer arcs beta_1..beta_k.

    ``directions[i]`` is the bit of beta_{i+1}: False means the arc runs
    from boundary i (cyclically, boundary 0 is boundary k) to boundary i+1,
    True the reverse.  ``n_types`` maps each n-labeled boundary index
    (1-based) to whether both incident arcs start there (OUT) or end there
    (IN).
    """

    directions: tuple
    n_types: tuple

    def reversed(self):
        flipped = tuple(not d for d in self.directions)
        swapped = tuple((i, NType.IN if t is NType.OUT else NType.OUT)
                        for (i, t) in self.n_types)
        return OrientationAssignment(flipped, swapped)


def coherent_orientations(m):
    """The two coherent orientations, built inductively from beta_1.

    Boundary i is met by beta_i and beta_{i+1}; they keep the same direction
    across a p+ or p- boundary and flip across an n boundary.  The two
    results are componentwise reversals of each other.
    """
    labs = labels(m)
    k = m.k
    out = []
    for first in (False, True):
        dirs = [first]
        for i in range(k - 1):
            flip = labs[i] is BoundaryLabel.N
            dirs.append(dirs[-1] != flip)
        n_types = []
        for i in range(k):
            if labs[i] is BoundaryLabel.N:
                # beta_i starts at boundary i exactly when its bit is True.
                kind = NType.OUT if dirs[i] else NType.IN
                n_types.append((i + 1, kind))
        out.append(OrientationAssignment(tuple(dirs), tuple(n_types)))
    return tuple(out)


def is_coherent(m, o):
    """Whether an orientation assignment satisfies the coherence relations:
    equal bits across p-labeled boundaries, flipped bits across n-labeled
    ones, with matching n types."""
    labs = labels(m)
    k = m.k
    if len(o.directions) != k:
        return False
    for i in range(k):
        same = o.directions[i] == o.directions[(i + 1) % k]
        if labs[i] is BoundaryLabel.N:
            if same:
                return False
        else:
            if not same:
                return False
    expected = {}
    for i in range(k):
        if labs[i] is BoundaryLabel.N:
            expected[i + 1] = NType.OUT if o.directions[i] else NType.IN
    return dict(o.n_types) == expected
