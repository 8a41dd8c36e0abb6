"""L-space slope detection from torsion data.

For a knot exterior with H_1 = Z + Z_p the torsion support lives on classes
(n, t) with n the Z-grading and t mod p; above a threshold c every class is
in the support.  The positive difference set collects the gradings n > 0
realized as (outside support) - (inside support) along the Z x {0} line; it
gives the L-space slope candidates (all but the longitude, or two one-sided
intervals from its maximum) that one known L-space slope picks from.
For links with two unknotted components and linking number zero the L-space
region has a closed-form box plus the two infinity lines.
"""

from .rational import Record
from .slopes import INF, ZERO, CircularArc, ExtRational, Region


class TorsionProfile(Record):
    """Support table of a torsion series over Z + Z_p.

    ``support`` flags the classes (n, t) with 0 <= n <= threshold that lie in
    the support; every class with n > threshold is in the support, every
    class with n < 0 is not.  Some class with n = 0 must be flagged (the
    series is normalized with nonzero constant term).
    """

    __slots__ = _fields = ("torsion_order", "threshold", "support")

    def __init__(self, torsion_order, threshold, support):
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
    return tuple(n for n in range(1, c + 1) if any(
        not profile.in_support(nx, t) and profile.in_support(nx - n, t)
        for nx in range(n, c + 1) for t in range(p)))


# All slopes but zero: the one candidate of an empty difference set.
ALL_BUT_LONGITUDE = CircularArc(ZERO, ZERO)


def interval_candidates(d_positive):
    """The candidate L-space slope arcs from a positive difference set
    (sorted, in (0, c]).

    An empty set gives the single candidate ``ALL_BUT_LONGITUDE``; otherwise,
    with n_h the highest level, the two one-sided closed intervals
    [n_h, inf] and [inf, -n_h], one of which ``select_interval`` picks.
    """
    d = tuple(d_positive)
    # type(), not isinstance(): bool is a subclass of int.
    if any(type(n) is not int or n < 1 for n in d):
        raise ValueError(f"difference set must hold positive ints, got {d}")
    if not d:
        return (ALL_BUT_LONGITUDE,)
    n_h = max(d)
    return (CircularArc(ExtRational(n_h), INF, True, True),
            CircularArc(INF, ExtRational(-n_h), True, True))


def select_interval(candidates, known):
    """The one candidate slope set that holds a known L-space slope.

    The infinity slope lies in both one-sided candidates (it is always an
    L-space slope), so it cannot discriminate; that and a slope in no
    candidate (the zero slope, when the form is all-but-longitude) raise
    ValueError.  A ``known`` that is not a slope raises TypeError.
    """
    hits = [c for c in candidates if c.contains(known)]
    if len(hits) > 1:
        raise ValueError(f"known slope {known} lies in both candidate "
                         "intervals and cannot select a side")
    if not hits:
        raise ValueError(f"known slope {known} lies in neither candidate "
                         "interval; inconsistent input data")
    return hits[0]


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
