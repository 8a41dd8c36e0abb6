"""The `plot` command: the verdict class of every slope pair on a grid,
as TSV rows or SVG points."""

import re

from .cli_output import _atomic_out
from .rational import (INF, INT_RE, _slope_of_terms, lowest_terms,
                       parse_int, shown_token)
from .whitehead import _cell, _decide, plot_class


_BOUNDS_RE = re.compile("({0}):({0}),({0}):({0})".format(INT_RE.pattern))

# Largest plot grid, in (numerator, denominator) points; the pair count
# grows with the square of it.
MAX_GRID_POINTS = 1024


def parse_bounds(text):
    shown = shown_token(text)
    m = _BOUNDS_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"invalid bounds {shown!r}: expected "
                         "'pmin:pmax,qmin:qmax'")
    pmin, pmax, qmin, qmax = (parse_int(g, "bound") for g in m.groups())
    if pmin > pmax or qmin > qmax:
        raise ValueError(f"degenerate bounds {shown!r}")
    if (pmax - pmin + 1) * (qmax - qmin + 1) > MAX_GRID_POINTS:
        raise ValueError(f"bounds {shown!r} span more than "
                         f"{MAX_GRID_POINTS} grid points")
    return pmin, pmax, qmin, qmax


def grid_slopes(bounds, max_den=None):
    """Canonical slopes p/q on the integer grid, sorted with infinity last."""
    pmin, pmax, qmin, qmax = bounds
    terms = {lowest_terms(p, q) for p in range(pmin, pmax + 1)
             for q in range(qmin, qmax + 1) if p or q}
    if max_den is not None:
        terms = {t for t in terms if t[1] <= max_den}
    slopes = sorted(_slope_of_terms(p, q) for p, q in terms if q)
    if (1, 0) in terms:
        slopes.append(INF)
    return slopes


_PLOT_COLORS = {"lspace": "red", "foliation": "blue", "non-qhs": "gray"}


def svg_coord(value, lo, hi, flip=False):
    """Canvas coordinate string of the finite slope ``value`` on the axis
    from slope ``lo`` to slope ``hi``: 40 + 560 * (value - lo) / (hi - lo),
    or its mirror, as one int/int division, which rounds correctly."""
    if hi == lo:
        return "320.00"
    span = (hi.num * lo.den - lo.num * hi.den) * value.den
    off = (value.num * lo.den - lo.num * value.den) * hi.den
    top = 600 * span - 560 * off if flip else 40 * span + 560 * off
    return f"{top / span:.2f}"


_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="640" viewBox="0 0 640 640">\n'
             '<rect width="640" height="640" fill="white"/>\n'
             '<rect x="40" y="40" width="560" height="560" fill="none" '
             'stroke="black"/>\n')
_SVG_FOOT = ('<text x="40" y="24" font-size="12">'
             'red: lspace  blue: foliation  gray: non-qhs</text>\n</svg>\n')


def cmd_plot(args):
    if args.format not in ("tsv", "svg"):
        raise ValueError(f"invalid --format {shown_token(args.format)!r}: "
                         "expected 'tsv' or 'svg'")
    bounds = parse_bounds(args.bounds)
    max_den = args.max_den
    if max_den is not None:
        max_den = parse_int(max_den, "--max-den value")
        if max_den < 1:
            raise ValueError("--max-den must be a positive integer")
    slopes = grid_slopes(bounds, max_den)
    if not slopes:
        raise ValueError("bounds produce no slopes")
    # Both formats write the pair (a, b) as head(a) + column(b) +
    # label(class) + end, so a slope's block is its head joined onto the
    # tails of its row.
    if args.format == "svg":
        # Infinity sorts last, so the finite slopes are a prefix of the grid.
        if slopes[-1].is_infinite():
            slopes.pop()
        if not slopes:
            raise ValueError("no finite slope pairs to plot")
        lo, hi = slopes[0], slopes[-1]
        heads = ('<circle cx="' + svg_coord(s, lo, hi) for s in slopes)
        columns = [f'" cy="{svg_coord(s, lo, hi, flip=True)}" r="3" fill="'
                   for s in slopes]
        label, end, top, foot = _PLOT_COLORS.get, '"/>\n', _SVG_HEAD, _SVG_FOOT
    else:
        heads = [str(s) for s in slopes]
        columns = [f"\t{b}\t" for b in heads]
        label, end, top, foot = str, "\n", "s1\ts2\tclass\n", ""
    # A class depends only on the cells of its two slopes, and only seven
    # cells exist, so each (cell, cell) ending is formed once and each row
    # of tails once per cell.
    cells = [_cell(s.num, s.den) for s in slopes]
    kinds, tails = set(cells), {}
    for f1 in kinds:
        ending = {f2: label(plot_class(_decide(f1, f2))) + end for f2 in kinds}
        tails[f1] = list(map(str.__add__, columns,
                             map(ending.__getitem__, cells)))
    # Each slope's block is written as it is formed, so memory stays flat.
    with _atomic_out(args.out) as out:
        out.write(top)
        for head, f in zip(heads, cells):
            out.write(head + head.join(tails[f]))
        out.write(foot)
    return 0
