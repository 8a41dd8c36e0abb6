"""L-space slope detection from torsion data.

For a knot exterior with H_1 = Z + Z_p the torsion support lives on classes
(n, t) with n the Z-grading and t mod p; above a threshold c every class is
in the support.  The positive difference set collects the gradings n > 0
realized as (outside support) - (inside support) along the Z x {0} line, and
its maximum drives the one-sided interval of L-space slopes.  For links with
two unknotted components and linking number zero the L-space region has a
closed-form box plus the two infinity lines.
"""

from __future__ import annotations

from .rational import Record
from .slopes import INF, CircularArc, ExtRational, Region


class TorsionProfile(Record):
    """Support table of a torsion series over Z + Z_p.

    ``support`` flags the classes (n, t) with 0 <= n <= threshold that lie in
    the support; every class with n > threshold is in the support, every
    class with n < 0 is not.  Some class with n = 0 must be flagged (the
    series is normalized with nonzero constant term).
    """

    __slots__ = _fields = ("torsion_order", "threshold", "support")

    def __init__(self, torsion_order, threshold, support=frozenset()):
        p, c = torsion_order, threshold
        support = frozenset(support)
        # type(), not isinstance(): bool is a subclass of int.
        if any(type(x) is not int
               for x in (p, c, *(x for pair in support for x in pair))):
            raise ValueError("torsion order, threshold and support classes "
                             "must be integers")
        if p < 1:
            raise ValueError(f"torsion order must be >= 1, got {p}")
        if c < 0:
            raise ValueError(f"threshold must be >= 0, got {c}")
        for (n, t) in support:
            if not (0 <= n <= c and 0 <= t < p):
                raise ValueError(f"support class {(n, t)} outside the "
                                 f"table range (n in [0,{c}], t in [0,{p}))")
        if not any(n == 0 for (n, t) in support):
            raise ValueError("no class with n = 0 in the support")
        self._init(p, c, support)

    def in_support(self, n, t):
        if n < 0:
            return False
        if n > self.threshold:
            return True
        return (n, t % self.torsion_order) in self.support


def compute_d_positive(profile):
    """Positive Z-gradings of (non-support) - (support) differences.

    Returns the sorted tuple of n in (0, c] for which some class x outside
    the support and y inside it satisfy x - y = (n, 0) with the grading of x
    above the grading of y.  Outside-support classes have grading <= c, so
    the search is exhaustive over the table.
    """
    p, c = profile.torsion_order, profile.threshold
    out = set()
    for n in range(1, c + 1):
        found = False
        for nx in range(n, c + 1):
            for t in range(p):
                if not profile.in_support(nx, t) and \
                        profile.in_support(nx - n, t):
                    found = True
                    break
            if found:
                break
        if found:
            out.add(n)
    return tuple(sorted(out))


class AllButLongitude:
    """The slope set Q u {inf} minus the zero slope, as an interval form."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def contains(self, x):
        if not isinstance(x, ExtRational):
            raise TypeError("interval membership needs a slope")
        return not x.is_zero()

    def __repr__(self):
        return "AllButLongitude()"

    def __str__(self):
        return "all slopes except 0"


ALL_BUT_LONGITUDE = AllButLongitude()


class IntervalCandidates(Record):
    """The possible L-space interval forms for one boundary component.

    Either everything but the longitude (``n_h is None``), or the two
    one-sided closed intervals [n_h, inf] and [inf, -n_h]; which side is
    right requires one known L-space slope, see ``select_interval``.
    """

    __slots__ = _fields = ("n_h",)

    def __init__(self, n_h):
        if n_h is not None:
            # type(), not isinstance(): bool is a subclass of int.
            if type(n_h) is not int:
                raise ValueError(f"interval bound {n_h!r} is not an int")
            if n_h < 1:
                raise ValueError(f"interval bound must be >= 1, got {n_h}")
        self._init(n_h)

    def is_all_but_longitude(self):
        return self.n_h is None

    def right_arc(self):
        if self.n_h is None:
            raise ValueError("no one-sided candidates: form is all-but-longitude")
        return CircularArc(ExtRational(self.n_h), INF, True, True)

    def left_arc(self):
        if self.n_h is None:
            raise ValueError("no one-sided candidates: form is all-but-longitude")
        return CircularArc(INF, ExtRational(-self.n_h), True, True)


def interval_candidates(d_positive):
    """Interval forms from a positive difference set (sorted, in (0, c])."""
    d = tuple(d_positive)
    if not d:
        return IntervalCandidates(None)
    if any(type(n) is not int or n < 1 for n in d):
        raise ValueError(f"difference set must hold positive ints, got {d}")
    return IntervalCandidates(max(d))


def select_interval(candidates, known):
    """Pick the unique candidate interval containing a known L-space slope.

    The infinity slope lies in both one-sided candidates (it is always an
    L-space slope), so it cannot discriminate; that and a slope in no
    candidate (the zero slope, when the form is all-but-longitude) raise
    ValueError.
    """
    if candidates.is_all_but_longitude():
        if ALL_BUT_LONGITUDE.contains(known):
            return ALL_BUT_LONGITUDE
    else:
        right, left = candidates.right_arc(), candidates.left_arc()
        in_right, in_left = right.contains(known), left.contains(known)
        if in_right and in_left:
            raise ValueError(f"known slope {known} lies in both candidate "
                             "intervals and cannot select a side")
        if in_right:
            return right
        if in_left:
            return left
    raise ValueError(f"known slope {known} lies in neither candidate "
                     "interval; inconsistent input data")


def two_component_region(b1, b2):
    """L-space region for a two-component link with unknotted components and
    linking number zero, from the two framing integers.

    The region is [2*b1+1, inf] x [2*b2+1, inf] together with both infinity
    lines; restricted to integer surgeries it is exactly d1 > 2*b1 and
    d2 > 2*b2.
    """
    box = (CircularArc(ExtRational(2 * b1 + 1), INF, True, True),
           CircularArc(ExtRational(2 * b2 + 1), INF, True, True))
    return Region(2, (box,), (0, 1))
