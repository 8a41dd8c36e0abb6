"""Branched-surface skeletons for fibered fillings of torus-bundle pieces.

A branch complex records sectors and switch arcs only: each arc has a big
side (the side the cusp points into) and two small sides, with the switch
equation weight(big) = weight(a) + weight(b).  A sector adjacent to the arc
on both small sides appears twice; big may coincide with a small side when a
sector wraps onto itself.  Embedding data and triple points are not modeled;
the equation graph supports every computation performed here.

Two constructions are provided for a monodromy (a_0; a_1..a_k):

* the parallel-arc complex, defined for a_0 != 0: k vertical half-disc
  sectors D_i plus k|a_0| disc sectors per annulus, chained cyclically inside
  each annulus and once across each vertical arc;

* the coherent-arc complex, defined for either coherent orientation: the
  same k vertical sectors plus N = sum |a_i| sectors in the fiber, in a
  single cyclic chain ordered by the common cusp direction.

Both have no sink discs and carry exactly the fundamental-class ray.
"""

import enum
import gc
import json
import math

from .monodromy import coherent_orientations, is_coherent
from .rational import Record


class SectorKind(enum.Enum):
    DISC = "disc"
    HALF_DISC = "half_disc"

    def __str__(self):
        return self.value


class Sector(Record):
    __slots__ = _fields = ("id", "kind", "meets_boundary")

    def __init__(self, id, kind, meets_boundary):
        if kind is SectorKind.HALF_DISC and not meets_boundary:
            raise ValueError(f"half-disc sector {id} must meet the boundary")
        self._init(id, kind, meets_boundary)


class BranchArc(Record):
    """A switch arc: the cusp points into ``big``; the equation is
    weight(big) = weight(small_a) + weight(small_b)."""

    __slots__ = _fields = ("id", "big", "small_a", "small_b")

    def __init__(self, id, big, small_a, small_b):
        self._init(id, big, small_a, small_b)


class BranchComplex(Record):
    __slots__ = _fields = ("sectors", "arcs")

    def __init__(self, sectors, arcs):
        sectors, arcs = tuple(sectors), tuple(arcs)
        ids = [s.id for s in sectors]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sector ids")
        known = set(ids)
        arc_ids = set()
        for a in arcs:
            if a.id in arc_ids:
                raise ValueError(f"duplicate arc id {a.id}")
            arc_ids.add(a.id)
            for ref in (a.big, a.small_a, a.small_b):
                if ref not in known:
                    raise ValueError(f"arc {a.id} references unknown "
                                     f"sector {ref}")
        self._init(sectors, arcs)

    def sector_ids(self):
        return tuple(s.id for s in self.sectors)

    def to_json(self):
        doc = {
            "sectors": [
                {"id": s.id, "kind": s.kind.value,
                 "meets_boundary": s.meets_boundary}
                for s in self.sectors
            ],
            "arcs": [
                {"id": a.id, "big": a.big, "a": a.small_a, "b": a.small_b}
                for a in self.arcs
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Read a `to_json` document: ids must be JSON strings and
        ``meets_boundary`` a JSON bool, or ValueError names the field."""
        doc = json.loads(text)
        sectors = tuple(
            Sector(_field(s, "id", str), SectorKind(_field(s, "kind", str)),
                   _field(s, "meets_boundary", bool))
            for s in _field(doc, "sectors", list))
        arcs = tuple(
            BranchArc(*(_field(a, k, str) for k in ("id", "big", "a", "b")))
            for a in _field(doc, "arcs", list))
        return cls(sectors, arcs)


def _field(obj, key, kind):
    """``obj[key]`` of a complex document, which must be a ``kind``."""
    value = obj.get(key) if type(obj) is dict else None
    if type(value) is not kind:
        raise ValueError(f"complex document field {key!r} must be a "
                         f"{kind.__name__}, got {value!r}")
    return value


def _vertical_sectors(k):
    return [Sector(f"D{i}", SectorKind.HALF_DISC, True)
            for i in range(1, k + 1)]


def build_parallel_arc_complex(m, d_sources=None):
    """Branch complex of the parallel-arc construction; needs a_0 != 0.

    Sector ids are D1..Dk for the vertical half discs and A{i}S{j} for the
    j-th disc of annulus i, j = 1..k|a_0|.  Inside annulus i the discs chain
    cyclically, the step from slot j to slot j+1 adding the weight of
    D_{l(j)} with l(j) = ((j-1) mod k) + 1 by default; ``d_sources`` may
    replace the per-annulus source lists with any assignment hitting every
    vertical sector.  One more arc per annulus crosses the vertical arc: its
    big side is the first disc of annulus i, its small sides the last disc
    of annulus i-1 (cyclically) and D_i.
    """
    if m.a0 == 0:
        raise ValueError("parallel-arc construction needs a nonzero a_0")
    k = m.k
    per = k * abs(m.a0)
    if d_sources is None:
        d_sources = [[((j - 1) % k) + 1 for j in range(1, per + 1)]
                     for _ in range(k)]
    else:
        d_sources = [list(src) for src in d_sources]
        if len(d_sources) != k:
            raise ValueError(f"need one source list per annulus ({k})")
        for src in d_sources:
            if len(src) != per:
                raise ValueError(f"each source list must have length {per}")
            if set(src) != set(range(1, k + 1)):
                raise ValueError("each annulus must use every vertical "
                                 "sector at least once")
    sectors = _vertical_sectors(k)
    for i in range(1, k + 1):
        for j in range(1, per + 1):
            sectors.append(Sector(f"A{i}S{j}", SectorKind.DISC, False))
    arcs = []
    for i in range(1, k + 1):
        for j in range(1, per + 1):
            nxt = (j % per) + 1
            arcs.append(BranchArc(f"A{i}E{j}",
                                  big=f"A{i}S{nxt}",
                                  small_a=f"A{i}S{j}",
                                  small_b=f"D{d_sources[i - 1][j - 1]}"))
    for i in range(1, k + 1):
        prev = ((i - 2) % k) + 1
        arcs.append(BranchArc(f"X{i}",
                              big=f"A{i}S1",
                              small_a=f"A{prev}S{per}",
                              small_b=f"D{i}"))
    return BranchComplex(sectors, arcs)


def build_coherent_arc_complex(m, o, sources=None):
    """Branch complex of the coherent-orientation construction.

    ``o`` must be one of the two coherent orientations of ``m``.  Sector ids
    are D1..Dk for the vertical half discs and S1..SN for the fiber sectors,
    N = sum |a_i|, chained in a single cycle along the common cusp direction.
    The default source order visits D_i in index blocks of length |a_i|;
    ``sources`` may replace it with any length-N order hitting every D_i.
    The second orientation reverses the chain.
    """
    if not is_coherent(m, o):
        raise ValueError("orientation is not a coherent orientation of the "
                         "given monodromy")
    return _coherent_arc_complex(m, o, sources)


def _coherent_arc_complex(m, o, sources=None):
    """`build_coherent_arc_complex` for an orientation known coherent."""
    k = m.k
    n = sum(abs(a) for a in m.twists)
    if sources is None:
        sources = []
        for i, a in enumerate(m.twists, start=1):
            sources.extend([i] * abs(a))
    else:
        sources = list(sources)
        if len(sources) != n:
            raise ValueError(f"source order must have length {n}")
        if set(sources) != set(range(1, k + 1)):
            raise ValueError("source order must use every vertical sector")
    sectors = _vertical_sectors(k)
    sectors.extend(Sector(f"S{l}", SectorKind.DISC, False)
                   for l in range(1, n + 1))
    forward = not o.directions[0]
    arcs = []
    for l in range(1, n + 1):
        nxt = (l % n) + 1
        if forward:
            big, small = f"S{nxt}", f"S{l}"
        else:
            big, small = f"S{l}", f"S{nxt}"
        arcs.append(BranchArc(f"C{l}", big=big, small_a=small,
                              small_b=f"D{sources[l - 1]}"))
    return BranchComplex(sectors, arcs)


def detect_sink_discs(c):
    """Ids of sink discs and half sink discs, in sector order.

    A sink disc is a disc sector away from the boundary that is never a
    small side of an incident arc (every cusp points into it); a half sink
    disc is a boundary sector with the same property.  Sectors with no
    incident arcs are not sinks; see ``isolated_sectors``.
    """
    skip = set(isolated_sectors(c))
    for a in c.arcs:
        skip.update((a.small_a, a.small_b))
    return tuple(s.id for s in c.sectors if s.id not in skip
                 and (s.meets_boundary or s.kind is SectorKind.DISC))


def isolated_sectors(c):
    """Ids of sectors with no incident arcs (degenerate, reported apart)."""
    incident = set()
    for a in c.arcs:
        incident.update((a.big, a.small_a, a.small_b))
    return tuple(s.id for s in c.sectors if s.id not in incident)


class WeightSystem(Record):
    """Nonnegative integer weights per sector id, satisfying the switches.

    ``weights`` is ((sector_id, weight), ...) in complex sector order.
    """

    __slots__ = _fields = ("weights",)

    def __init__(self, weights):
        _set_weights(self, weights)


# The slot setter, which bypasses the refusing __setattr__.
_set_weights = WeightSystem.weights.__set__


def carried_weight_cone(c, bound):
    """All nonnegative integer weight systems with every weight <= bound,
    sorted by their weight tuple in sector order.

    ``bound`` must be an ``int``.  The switch equations are row-reduced in
    integers to rows d * w[pivot] = sum(c_i * w[free_i]) with d > 0, each
    elimination updating its row dict in place.  Each free column gets two
    tables over the rows that use it, listed by its depth in the search:
    the (pivot, c_i) steps of the row sums, and the checks read at each
    visit.  The free sectors are set to 0..bound in order, depth first.
    A complete row keeps its pivot weight only when integral and in
    0..bound.  An incomplete row cuts the branch when the unset sectors,
    which add between bound * (sum of c_i < 0) and bound * (sum of c_i > 0),
    can no longer bring it into 0..d * bound.  The cut is exact: it tests a
    relaxation, and integrality only on complete rows.  Every row on the
    last free column completes there, so one loop sets that column to
    0..bound and checks those rows on sums + c * value alone.  With no free
    sector the only system is all zero.

    The search order is the sorted order, so no sort is needed.  A row's
    pivot is its largest column when the row is inserted, and
    back-substitution only brings in smaller columns, so a pivot's weight
    depends only on free sectors of lower column.  Two systems therefore
    first differ at a free column, and the search visits free columns in
    ascending order with ascending values.  Each (sector id, weight) pair
    is one tuple, shared by every system of the result that holds it; a
    system copies the pairs kept on the branch into its slot, set on an
    instance allocated with no call to ``__init__``.  A free sector's pair,
    and the pivot pair of each row complete at its depth, is interned once
    every row checked there passes.  A weight that a check cuts is never
    interned, so the intern dicts hold accepted pairs, not one per value up
    to bound.

    The cyclic garbage collector is paused for the search, process-wide,
    and enabled again after it if it was enabled on entry.  The search
    makes no reference cycles, so a collection would free nothing, while
    its allocations would start one every few hundred systems.
    """
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a nonnegative int, got {bound!r}")
    order = c.sector_ids()
    col = {sid: j for j, sid in enumerate(order)}
    reduced = {}   # pivot column -> row {column: coefficient}, pivot > 0
    for a in c.arcs:
        row = {}
        for sid, sign in ((a.big, 1), (a.small_a, -1), (a.small_b, -1)):
            row[col[sid]] = row.get(col[sid], 0) + sign
        row = {j: v for j, v in row.items() if v}
        for j in [j for j in row if j in reduced]:
            _eliminate(row, reduced[j], j)
        if not row:
            continue
        pivot = max(row)
        if row[pivot] < 0:
            for j in row:
                row[j] = -row[j]
        for prow in reduced.values():
            if pivot in prow:
                _eliminate(prow, row, pivot)
        reduced[pivot] = row
    free = [j for j in range(len(order)) if j not in reduced]
    if not free:   # every row is d * w[pivot] = 0
        return (WeightSystem(tuple((sid, 0) for sid in order)),)
    fl = free.pop()   # the last free column, run by the leaf loop
    n, shared = len(free), [{} for _ in order]   # weight -> (id, weight)
    depth = {f: i for i, f in enumerate(free + [fl])}
    # pairs[i]: (pivot, c) per row with c != 0 on free[i], as the sums step.
    # checks[i]: (pivot, least, most, d, d * bound, complete) for the same
    # rows in the same order; the free sectors after free[i] add least..most.
    # last: (pivot, c, d, d * bound) per row on fl, all complete there.
    # done[i]: (column, intern dict, id) of free[i] and of the pivots of the
    # rows that complete at depth i; done[n] holds the pivots only.
    pairs, checks, last = [[] for _ in free], [[] for _ in free], []
    done = [[(f, shared[f], order[f])] for f in free] + [[]]
    for p, row in reduced.items():
        d = row.pop(p)
        least = most = 0
        tail = sorted(row, reverse=True)
        for f in tail:
            if f == fl:
                last.append((p, -row[f], d, d * bound))
            else:
                pairs[depth[f]].append((p, -row[f]))
                checks[depth[f]].append((p, least, most, d, d * bound,
                                         f == tail[0]))
            least -= bound * max(row[f], 0)
            most -= bound * min(row[f], 0)
        if tail:
            done[depth[tail[0]]].append((p, shared[p], order[p]))
    sums, w = [0] * len(order), [0] * len(order)   # sums: per pivot row
    cur = list(zip(order, w))   # pivots of no free sector stay (id, 0)
    done_fl, shared_fl, id_fl = done[n], shared[fl], order[fl]
    out, i = [], 0
    new, set_weights, append = object.__new__, _set_weights, out.append
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        while i >= 0:
            if i == n:
                for v in range(bound + 1):
                    for p, cf, d, top in last:
                        s = sums[p] + cf * v
                        if s < 0 or s > top or s % d:
                            break
                        w[p] = s // d
                    else:
                        cur[fl] = (shared_fl.get(v)
                                   or shared_fl.setdefault(v, (id_fl, v)))
                        for p, sh, sid in done_fl:
                            x = w[p]
                            cur[p] = sh.get(x) or sh.setdefault(x, (sid, x))
                        ws = new(WeightSystem)
                        set_weights(ws, tuple(cur))
                        append(ws)
                i -= 1
            else:
                for p, least, most, d, top, complete in checks[i]:
                    s = sums[p]
                    if s + most < 0 or s + least > top or complete and s % d:
                        break
                    w[p] = s // d   # final once the row is complete
                else:
                    for p, sh, sid in done[i]:
                        x = w[p]
                        cur[p] = sh.get(x) or sh.setdefault(x, (sid, x))
                    i += 1
                    continue
            # Step to the next assignment, backing out of sectors at bound.
            while i >= 0 and w[free[i]] == bound:
                for p, cf in pairs[i]:
                    sums[p] -= bound * cf
                w[free[i]] = 0
                i -= 1
            if i >= 0:
                w[free[i]] += 1
                for p, cf in pairs[i]:
                    sums[p] += cf
        return tuple(out)
    finally:
        if paused:
            gc.enable()


def _eliminate(row, prow, j):
    """Clear column j of ``row`` in place: a * row - b * prow with a > 0,
    divided by the gcd of its entries.  Multiplying by a 1 and dividing by a
    gcd of 1 are skipped; an entry is deleted as soon as it cancels."""
    b, pj = row[j], prow[j]   # column j cancels in the loop below
    if pj != 1:
        g = math.gcd(pj, b)
        a, b = pj // g, b // g
        if a != 1:
            for k in row:
                row[k] *= a
    for k, v in prow.items():
        v = row.get(k, 0) - b * v
        if v:
            row[k] = v
        else:
            del row[k]
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def fundamental_ray(c, bound):
    """The expected cone of the generated complexes: every fiber sector at
    weight t and every vertical sector at 0, for t = 0..bound."""
    if type(bound) is not int or bound < 0:
        raise ValueError(f"bound must be a nonnegative int, got {bound!r}")
    out = []
    for t in range(bound + 1):
        ws = tuple((s.id, 0 if s.kind is SectorKind.HALF_DISC else t)
                   for s in c.sectors)
        out.append(WeightSystem(ws))
    return tuple(out)


def complexes_for(m):
    """Convenience: the parallel complex (when a_0 != 0) and both coherent
    complexes of a monodromy."""
    out = {}
    if m.a0 != 0:
        out["parallel"] = build_parallel_arc_complex(m)
    o1, o2 = coherent_orientations(m)
    out["coherent"] = _coherent_arc_complex(m, o1)
    out["coherent_reversed"] = _coherent_arc_complex(m, o2)
    return out
