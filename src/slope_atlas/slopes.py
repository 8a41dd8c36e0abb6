"""Arcs and regions on the circle of boundary slopes.

Slopes (`rational.ExtRational`) live on a circle, so "intervals" are cyclic
arcs rather than order intervals, and a region of multislopes is a finite
union of arc products plus infinity lines.  All arithmetic is exact over
Python integers; no floating point is used.  The slope class and the input
grammar are defined in `rational` and re-exported here.
"""

from __future__ import annotations

import itertools

from .rational import (INF, INT_RE, MAX_SLOPE_TOKEN, MINUS_ONE, ONE, SLOPE_RE,
                       ZERO, ExtRational, Record, format_multislope, parse_int,
                       parse_multislope, parse_slope, shown_token)


class CircularArc(Record):
    """An arc of the slope circle, given by endpoints and closure flags.

    The interior is read in the cyclic order of the circle:

      * finite start < end: the slopes strictly between them;
      * finite start > end: wraps through infinity, i.e. everything above
        start, infinity itself, and everything below end;
      * start = inf: the slopes below end;
      * end = inf: the slopes above start.

    A closed flag adds the corresponding endpoint.  Degenerate arcs with
    start == end mean the empty set when both flags are open and the single
    endpoint when both are closed; mixed flags are rejected.
    """

    __slots__ = _fields = ("start", "end", "start_closed", "end_closed")

    def __init__(self, start, end, start_closed=False, end_closed=False):
        if start == end and start_closed != end_closed:
            raise ValueError("degenerate arc must have both flags open (empty)"
                             " or both closed (single point)")
        self._init(start, end, start_closed, end_closed)

    def is_empty(self):
        return self.start == self.end and not self.start_closed

    def is_degenerate(self):
        return self.start == self.end

    def contains(self, x):
        if not isinstance(x, ExtRational):
            raise TypeError("arc membership needs a slope")
        s, e = self.start, self.end
        if s == e:
            return self.start_closed and x == s
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

    def complement(self):
        """The complementary arc, by endpoint and flag swap.

        Defined for non-degenerate arcs only: the complement of a point or of
        the empty set is not a single arc in this encoding.
        """
        if self.is_degenerate():
            raise ValueError("complement of a degenerate arc is not an arc")
        return CircularArc(self.end, self.start,
                           not self.end_closed, not self.start_closed)

    def __str__(self):
        lb = "[" if self.start_closed else "("
        rb = "]" if self.end_closed else ")"
        return f"{lb}{self.start},{self.end}{rb}"


POINT_INF = CircularArc(INF, INF, True, True)
POSITIVE_ARC = CircularArc(ZERO, INF)     # finite slopes > 0
NEGATIVE_ARC = CircularArc(INF, ZERO)     # finite slopes < 0
BELOW_ONE_ARC = CircularArc(INF, ONE)     # finite slopes < 1
ABOVE_MINUS_ONE_ARC = CircularArc(MINUS_ONE, INF)   # finite slopes > -1
UNIT_ARC = CircularArc(MINUS_ONE, ONE)    # slopes strictly between -1 and 1


def _linear_parts(a):
    """Decompose an arc into order intervals over finite slopes plus an
    infinity flag.

    Returns (parts, inf_in) where each part is (lo, lo_closed, hi, hi_closed)
    with None standing for an absent (unbounded) end.
    """
    s, e, sc, ec = a.start, a.end, a.start_closed, a.end_closed
    if s == e:
        if not sc:
            return [], False
        if s.is_infinite():
            return [], True
        return [(s, True, s, True)], False
    if s.is_infinite():
        return [(None, False, e, ec)], sc
    if e.is_infinite():
        return [(s, sc, None, False)], ec
    if s < e:
        return [(s, sc, e, ec)], False
    return [(s, sc, None, False), (None, False, e, ec)], True


def _part_intersect(p, q):
    (alo, alc, ahi, ahc) = p
    (blo, blc, bhi, bhc) = q
    if alo is None:
        lo, lc = blo, blc
    elif blo is None:
        lo, lc = alo, alc
    elif alo > blo:
        lo, lc = alo, alc
    elif blo > alo:
        lo, lc = blo, blc
    else:
        lo, lc = alo, alc and blc
    if ahi is None:
        hi, hc = bhi, bhc
    elif bhi is None:
        hi, hc = ahi, ahc
    elif ahi < bhi:
        hi, hc = ahi, ahc
    elif bhi < ahi:
        hi, hc = bhi, bhc
    else:
        hi, hc = ahi, ahc and bhc
    if lo is not None and hi is not None:
        if lo > hi:
            return None
        if lo == hi:
            if lc and hc:
                return (lo, True, hi, True)
            return None
    return (lo, lc, hi, hc)


def _reassemble(parts, inf_in):
    up = down = None
    arcs = []
    for (lo, lc, hi, hc) in parts:
        if lo is None:
            down = (lo, lc, hi, hc)
        elif hi is None:
            up = (lo, lc, hi, hc)
        else:
            arcs.append(CircularArc(lo, hi, lc, hc))
    if inf_in:
        if up and down:
            (lo, lc, _, _) = up
            (_, _, hi, hc) = down
            if hi < lo:
                arcs.append(CircularArc(lo, hi, lc, hc))
            else:
                # The wrap endpoints coincide; split around infinity so each
                # piece stays a valid arc.
                arcs.append(CircularArc(lo, INF, lc, True))
                arcs.append(CircularArc(INF, hi, False, hc))
        elif up:
            arcs.append(CircularArc(up[0], INF, up[1], True))
        elif down:
            arcs.append(CircularArc(INF, down[2], True, down[3]))
        else:
            arcs.append(POINT_INF)
    else:
        if up:
            arcs.append(CircularArc(up[0], INF, up[1], False))
        if down:
            arcs.append(CircularArc(INF, down[2], False, down[3]))
    return arcs


def arc_intersect(a, b):
    """Intersection of two arcs as a list of pairwise disjoint arcs.

    Two wrap arcs can meet in two pieces, so the result is a list (possibly
    empty).  Membership is exact; the decomposition is not canonical.
    """
    parts_a, inf_a = _linear_parts(a)
    parts_b, inf_b = _linear_parts(b)
    parts = []
    for p in parts_a:
        for q in parts_b:
            r = _part_intersect(p, q)
            if r is not None:
                parts.append(r)
    return _reassemble(parts, inf_a and inf_b)


class Region(Record):
    """A finite union of arc-product boxes and infinity lines in (Q u inf)^k.

    A box is a k-tuple of arcs (membership componentwise).  A line is a
    coordinate index i and denotes the multislopes whose i-th coordinate is
    infinity and whose other coordinates are finite and nonzero.  The
    representation is not minimal; only the membership predicate matters.
    """

    __slots__ = _fields = ("dim", "boxes", "lines")

    def __init__(self, dim, boxes=(), lines=()):
        for box in boxes:
            if len(box) != dim:
                raise ValueError(f"box of arity {len(box)} in a "
                                 f"{dim}-dimensional region")
        for i in lines:
            if not (0 <= i < dim):
                raise ValueError(f"line index {i} out of range")
        self._init(dim, boxes, lines)

    def is_empty_representation(self):
        return not self.boxes and not self.lines

    def contains(self, multislope):
        if len(multislope) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, "
                             f"got {len(multislope)}")
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
    boxes = list(a.boxes)
    for box in b.boxes:
        if box not in boxes:
            boxes.append(box)
    lines = list(a.lines)
    for i in b.lines:
        if i not in lines:
            lines.append(i)
    return Region(a.dim, tuple(boxes), tuple(lines))


def _nonzero_finite_pieces(a):
    """Arcs covering the finite nonzero part of an arc."""
    return arc_intersect(a, POSITIVE_ARC) + arc_intersect(a, NEGATIVE_ARC)


def _line_box_intersection(i, box, dim):
    if not box[i].contains(INF):
        return []
    per_coord = []
    for j in range(dim):
        if j == i:
            per_coord.append([POINT_INF])
        else:
            pieces = _nonzero_finite_pieces(box[j])
            if not pieces:
                return []
            per_coord.append(pieces)
    return [tuple(combo) for combo in itertools.product(*per_coord)]


def region_intersect(a, b):
    """Set intersection, distributed over boxes and lines."""
    if a.dim != b.dim:
        raise ValueError("intersection of regions of different dimension")
    dim = a.dim
    boxes = []
    for box_a in a.boxes:
        for box_b in b.boxes:
            per_coord = [arc_intersect(x, y) for x, y in zip(box_a, box_b)]
            if any(not pieces for pieces in per_coord):
                continue
            boxes.extend(tuple(c) for c in itertools.product(*per_coord))
    lines = tuple(sorted(set(a.lines) & set(b.lines)))
    for src_lines, src_boxes in ((a.lines, b.boxes), (b.lines, a.boxes)):
        for i in src_lines:
            for box in src_boxes:
                boxes.extend(_line_box_intersection(i, box, dim))
    seen = []
    for box in boxes:
        if box not in seen:
            seen.append(box)
    return Region(dim, tuple(seen), lines)
