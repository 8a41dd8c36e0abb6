"""Arcs and regions on the circle of boundary slopes.

Slopes (`rational.ExtRational`) live on a circle, so "intervals" are cyclic
arcs rather than order intervals, and a region of multislopes is a finite
union of arc products plus infinity lines.  All arithmetic is exact over
Python integers; no floating point is used.  The slope class and the input
grammar are defined in `rational` and re-exported here.
"""

from .rational import (INF, MAX_SLOPE_TOKEN, MINUS_ONE, ONE, ZERO, ExtRational,
                       Record, parse_int, parse_slope, shown_token)


class CircularArc(Record):
    """An arc of the slope circle, given by endpoints and closure flags.

    The interior is read in the cyclic order of the circle:

      * finite start < end: the slopes strictly between them;
      * finite start > end: wraps through infinity, i.e. everything above
        start, infinity itself, and everything below end;
      * start = inf: the slopes below end;
      * end = inf: the slopes above start.

    A closed flag adds the corresponding endpoint.  An arc with start == end
    is the single endpoint when both flags are closed and, running all the
    way round, every slope but that one when both are open; mixed flags are
    rejected.
    """

    __slots__ = _fields = ("start", "end", "start_closed", "end_closed")

    def __init__(self, start, end, start_closed=False, end_closed=False):
        if not (isinstance(start, ExtRational)
                and isinstance(end, ExtRational)):
            raise TypeError("arc endpoints must be slopes")
        if start == end and start_closed != end_closed:
            raise ValueError("degenerate arc must have both flags closed "
                             "(single point) or both open: every slope but "
                             "that one")
        self._init(start, end, start_closed, end_closed)

    def contains(self, x):
        if not isinstance(x, ExtRational):
            raise TypeError("arc membership needs a slope")
        s, e = self.start, self.end
        if s == e:
            return (x == s) == self.start_closed
        if x == s:
            return self.start_closed
        if x == e:
            return self.end_closed
        # x is now distinct from both endpoints; test the open interior.
        if s.is_infinite():
            return x.is_finite() and x < e
        if e.is_infinite():
            return x.is_finite() and x > s
        if s < e:
            return x.is_finite() and s < x < e
        return x.is_infinite() or x > s or x < e

    def __str__(self):
        lb = "[" if self.start_closed else "("
        rb = "]" if self.end_closed else ")"
        return f"{lb}{self.start},{self.end}{rb}"


POSITIVE_ARC = CircularArc(ZERO, INF)     # finite slopes > 0
NEGATIVE_ARC = CircularArc(INF, ZERO)     # finite slopes < 0
BELOW_ONE_ARC = CircularArc(INF, ONE)     # finite slopes < 1
ABOVE_MINUS_ONE_ARC = CircularArc(MINUS_ONE, INF)   # finite slopes > -1
UNIT_ARC = CircularArc(MINUS_ONE, ONE)    # slopes strictly between -1 and 1


class Region(Record):
    """A finite union of arc-product boxes and infinity lines in (Q u inf)^k.

    A box is a k-tuple of arcs (membership componentwise).  A line is a
    coordinate index i and denotes the multislopes whose i-th coordinate is
    infinity and whose other coordinates are finite and nonzero.  The
    representation is not minimal; only the membership predicate matters.
    """

    __slots__ = _fields = ("dim", "boxes", "lines")

    def __init__(self, dim, boxes=(), lines=()):
        if type(dim) is not int:
            raise ValueError(f"region dimension {dim!r} is not an int")
        boxes, lines = tuple(map(tuple, boxes)), tuple(lines)
        for box in boxes:
            if len(box) != dim:
                raise ValueError(f"box of arity {len(box)} in a "
                                 f"{dim}-dimensional region")
            if not all(isinstance(a, CircularArc) for a in box):
                raise TypeError("box entries must be arcs")
        for i in lines:
            if type(i) is not int or not 0 <= i < dim:
                raise ValueError(f"line index {i!r} out of range")
        self._init(dim, boxes, lines)

    def contains(self, multislope):
        if len(multislope) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, "
                             f"got {len(multislope)}")
        if not all(isinstance(x, ExtRational) for x in multislope):
            raise TypeError("region membership needs slopes")
        for box in self.boxes:
            if all(a.contains(x) for a, x in zip(box, multislope)):
                return True
        for i in self.lines:
            if multislope[i].is_infinite() and all(
                    x.is_finite() and not x.is_zero()
                    for j, x in enumerate(multislope) if j != i):
                return True
        return False

    def pieces(self):
        """The boxes and infinity lines, rendered one string each."""
        pieces = [" x ".join(str(a) for a in box) for box in self.boxes]
        for i in self.lines:
            coords = ["Q*"] * self.dim
            coords[i] = "{inf}"
            pieces.append(" x ".join(coords))
        return pieces


def region_union(a, b):
    """Set union; concatenates and deduplicates the two representations."""
    if a.dim != b.dim:
        raise ValueError("union of regions of different dimension")
    return Region(a.dim, dict.fromkeys(a.boxes + b.boxes),
                  dict.fromkeys(a.lines + b.lines))
