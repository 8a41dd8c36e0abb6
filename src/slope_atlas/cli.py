"""Command line interface.

Subcommands: classify, monodromy, region, batch, plot.  Exit codes: 0 on
success, 2 on malformed input (the diagnostic names the offending token).
`monodromy` and `region` import the region modules when they run; classify,
batch and plot need only `rational` and `whitehead`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import re
import stat
import sys

from .rational import (INT_RE, SLOPE_RE, ExtRational, parse_int,
                       parse_slope, shown_token)
from .whitehead import (
    _decide,
    _facts,
    classify,
    plot_class,
    wl_foliation_region,
)


_BOUNDS_RE = re.compile("({0}):({0}),({0}):({0})".format(INT_RE.pattern))

# Most distinct slope tokens a batch run keeps parsed at once.
_BATCH_TOKENS = 4096
# Text csv.writer leaves unquoted: no comma, quote or newline.
_csv_plain = re.compile('[^,"\r\n]*').fullmatch

# Largest plot grid, in (numerator, denominator) points; the pair count
# grows with the square of it.
MAX_GRID_POINTS = 1024


class _Parser(argparse.ArgumentParser):
    # Accept slopes like -7/2 and bounds like -3:3,1:4 as values instead of
    # option strings; plain "--" before them works as well.  The matcher is
    # an instance attribute set by argparse, so it must be replaced here,
    # not shadowed at class level.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"(?=-)(?:{SLOPE_RE.pattern}|{_BOUNDS_RE.pattern})\Z")


def _arc_json(a):
    return {"start": str(a.start), "end": str(a.end),
            "start_closed": a.start_closed, "end_closed": a.end_closed}


def _region_json(r):
    return {"dim": r.dim,
            "boxes": [[_arc_json(a) for a in box] for box in r.boxes],
            "lines": list(r.lines)}


def _region_lines(r):
    return ["  " + piece for piece in r.pieces() or ["(empty)"]]


@contextlib.contextmanager
def _atomic_out(path, newline=None):
    """Text handle whose contents replace ``path`` only when the block
    completes.  A target ``open(path, "w")`` would refuse is refused; a new
    file gets the mode that call gives and an existing one keeps its mode.
    The result is a new file, so hard links to the old one keep the old
    contents and its owner is the writer."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        # A device or pipe such as /dev/stdout cannot be replaced.
        with open(path, "w", newline=newline) as fh:
            yield fh
        return
    if st is not None:
        os.close(os.open(path, os.O_WRONLY))  # permission check; no truncate
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path
        raise
    try:
        with open(fd, "w", newline=newline) as fh:
            if st is not None:
                os.chmod(fd, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text, out_path):
    if out_path:
        with _atomic_out(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path):
    import json   # only the commands that write JSON load it
    _emit(json.dumps(doc, indent=2) + "\n", out_path)


def cmd_classify(args):
    s1 = parse_slope(args.s1)
    s2 = parse_slope(args.s2)
    verdict = classify(s1, s2)
    _emit_json(verdict.to_json_dict(), args.out)
    return 0


def cmd_monodromy(args):
    from .monodromy import (coherent_orientations, foliation_region,
                            intervals, labels, parse_monodromy)
    m = parse_monodromy(args.word)
    labs = labels(m)
    i_arcs, j_arcs = intervals(m)
    o1, o2 = coherent_orientations(m)
    region = foliation_region(m)
    if args.json:
        doc = {
            "monodromy": str(m),
            "labels": [str(lab) for lab in labs],
            "intervals": {"I": [str(a) for a in i_arcs],
                          "J": [str(a) for a in j_arcs]},
            "orientations": [
                {"directions": list(o.directions),
                 "n_types": {str(i): str(t) for i, t in o.n_types}}
                for o in (o1, o2)
            ],
            "foliation_region": _region_json(region),
        }
        _emit_json(doc, args.out)
        return 0
    lines = [f"monodromy: {m}",
             "labels: " + " ".join(str(lab) for lab in labs),
             "I: " + " x ".join(str(a) for a in i_arcs),
             "J: " + " x ".join(str(a) for a in j_arcs)]
    for name, o in (("orientation 1", o1), ("orientation 2", o2)):
        dirs = " ".join("<-" if d else "->" for d in o.directions)
        if o.n_types:
            types = " ".join(f"{i}:{t}" for i, t in o.n_types)
            lines.append(f"{name}: {dirs}  ({types})")
        else:
            lines.append(f"{name}: {dirs}")
    lines.append("foliation region:")
    lines.extend(_region_lines(region))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_region(args):
    from .lspace import two_component_region
    b1 = parse_int(args.b1, "--b1 value")
    b2 = parse_int(args.b2, "--b2 value")
    if b1 < 0 or b2 < 0:
        raise ValueError("framings must be nonnegative integers")
    lspace = two_component_region(b1, b2)
    foliation = wl_foliation_region()
    # The foliation side ignores the framings: it is the Whitehead link's.
    whose = " (Whitehead link, b1=0, b2=0)" if b1 or b2 else ""
    if args.json:
        doc = {"lspace_region": _region_json(lspace),
               "foliation_region": _region_json(foliation),
               **({"foliation_link": "whitehead"} if whose else {})}
        _emit_json(doc, args.out)
        return 0
    lines = [f"L-space region (b1={b1}, b2={b2}):"]
    lines.extend(_region_lines(lspace))
    lines.append(f"taut-foliation region{whose}:")
    lines.extend(_region_lines(foliation))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def parse_batch_header(row):
    """Validate the batch header; returns True when a label column is
    present."""
    if row in (["id", "s1", "s2"], ["id", "s1", "s2", "label"]):
        return len(row) == 4
    raise ValueError(f"bad header {shown_token(','.join(row))!r}: expected "
                     "'id,s1,s2' or 'id,s1,s2,label'")


@functools.cache
def _batch_cells(f1, f2):
    """The verdict cells qhs, lspace, foliation, euler_zero and
    left_orderable of a batch row, then its plot class, from the facts of
    its two slopes; at most 49 fact pairs exist."""
    d = _decide(f1, f2)
    return ("true" if d.is_qhs else "false", d.lspace.value,
            d.taut_foliation.value, d.euler_vanishing.value,
            d.left_orderable.value, plot_class(d))


def cmd_batch(args):
    """Classify the input CSV row by row in one pass; memory stays flat."""
    header = "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable"
    tally = dict.fromkeys(["lspace", "foliation", "non-qhs"] + [
        f"left-orderable {k}" for k in ("yes", "no", "unknown", "na")], 0)
    done = agree = failures = 0
    # Stripped slope token -> (str(s), str(abs(s.num)), _facts(s)), or the
    # bare slope until a row with it parses; cleared when full.
    seen = {}
    get, put = seen.get, seen.setdefault
    with open(args.input, newline="") as fh:
        rows = csv.reader(fh)
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{args.input}: empty file, missing header")
        has_label = parse_batch_header(first)
        with _atomic_out(args.out, newline="") as out:
            writer = csv.writer(out, lineterminator="\n")
            out.write(header + (",label,agrees\n" if has_label else "\n"))
            # A quoted field may span lines, so each record is numbered by
            # the first physical line after the previous record.
            end = rows.line_num
            for row in rows:
                lineno, end = end + 1, rows.line_num
                if not row:
                    continue
                if len(seen) >= _BATCH_TOKENS:
                    seen.clear()
                try:
                    if len(row) != len(first):
                        raise ValueError(
                            f"expected {len(first)} fields, got {len(row)}")
                    t1, t2 = row[1].strip(), row[2].strip()
                    c1 = get(t1) or put(t1, parse_slope(row[1]))
                    c2 = get(t2) or put(t2, parse_slope(row[2]))
                except ValueError as exc:
                    failures += 1
                    print(f"{args.input}:{lineno}: {exc}", file=sys.stderr)
                    continue
                # The rules run outside the try: their errors abort the run.
                if c1.__class__ is ExtRational:
                    c1 = seen[t1] = (str(c1), str(abs(c1.num)), _facts(c1))
                if c2.__class__ is ExtRational:
                    c2 = seen[t2] = (str(c2), str(abs(c2.num)), _facts(c2))
                qhs, lspace, foliation, euler, lo, cls = _batch_cells(
                    c1[2], c2[2])
                done += 1
                tally[cls] += 1
                tally["left-orderable " + lo] += 1
                out_row = [row[0].strip(), c1[0], c2[0], qhs, c1[1], c2[1],
                           lspace, foliation, euler, lo]
                if has_label:
                    label = row[3].strip()
                    ok = label == lo
                    agree += ok
                    out_row += [label, "true" if ok else "false"]
                # The output row needs csv quoting only if the input row does.
                if _csv_plain("".join(row)):
                    out.write(",".join(out_row) + "\n")
                else:
                    writer.writerow(out_row)
    print(f"rows: {done}")
    for key, n in tally.items():
        print(f"{key}: {n}")
    if has_label:
        print(f"label agreement: {agree}/{done}")
    if failures:
        print(f"failed rows: {failures}", file=sys.stderr)
        return 2
    return 0


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
    seen = {ExtRational(p, q) for p in range(pmin, pmax + 1)
            for q in range(qmin, qmax + 1) if p or q}
    if max_den is not None:
        seen = {s for s in seen if s.den <= max_den}
    return sorted(seen, key=lambda s: (s.is_infinite(), s))


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


def _svg_scatter(values, facts, rows):
    """SVG scatter with ``rows[facts[i]][j]`` drawn at (values[i],
    values[j]), ``values`` sorted; a row may run past ``values``."""
    lo, hi = values[0], values[-1]
    xs = [svg_coord(v, lo, hi) for v in values]
    ys = [svg_coord(v, lo, hi, flip=True) for v in values]
    # Each row's circles differ only in cx, so their tails are formatted
    # once per distinct fact.
    tails = {f: [f'" cy="{cy}" r="3" fill="{_PLOT_COLORS[cls]}"/>'
                 for cy, cls in zip(ys, rows[f])] for f in set(facts)}
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" '
             'height="640" viewBox="0 0 640 640">',
             '<rect width="640" height="640" fill="white"/>',
             '<rect x="40" y="40" width="560" height="560" fill="none" '
             'stroke="black"/>']
    for cx, f in zip(xs, facts):
        head = '<circle cx="' + cx
        parts.append(head + ("\n" + head).join(tails[f]))
    parts.append('<text x="40" y="24" font-size="12">'
                 'red: lspace  blue: foliation  gray: non-qhs</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args):
    bounds = parse_bounds(args.bounds)
    max_den = args.max_den
    if max_den is not None:
        max_den = parse_int(max_den, "--max-den value")
        if max_den < 1:
            raise ValueError("--max-den must be a positive integer")
    slopes = grid_slopes(bounds, max_den)
    if not slopes:
        raise ValueError("bounds produce no slopes")
    # A row of classes depends only on the facts of its slope, and at most
    # 7 distinct facts occur, so each row is decided and rendered once.
    facts = [_facts(s) for s in slopes]
    classes = {f1: [plot_class(_decide(f1, f2)) for f2 in facts]
               for f1 in set(facts)}
    if args.format == "tsv":
        names = [str(s) for s in slopes]
        tails = {f: [f"\t{b}\t{cls}" for b, cls in zip(names, row)]
                 for f, row in classes.items()}
        blocks = [a + ("\n" + a).join(tails[f]) for a, f in zip(names, facts)]
        _emit("s1\ts2\tclass\n" + "\n".join(blocks) + "\n", args.out)
        return 0
    # Infinity sorts last, so the finite slopes are a prefix of the grid.
    finite = slopes[:-1] if slopes[-1].is_infinite() else slopes
    if not finite:
        raise ValueError("no finite slope pairs to plot")
    _emit(_svg_scatter(finite, facts[:len(finite)], classes), args.out)
    return 0


def build_parser():
    parser = _Parser(prog="slope-atlas",
                     description="Exact classification of Whitehead-link "
                                 "surgeries and torus-bundle boundary data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one surgery multislope")
    p.add_argument("s1", help="first slope: p, p/q or inf")
    p.add_argument("s2", help="second slope: p, p/q or inf")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("monodromy", help="report boundary data of a "
                                         "monodromy word")
    p.add_argument("word", help="exponents 'a0; a1, a2, ..., ak'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("region", help="print the L-space and "
                                      "taut-foliation regions")
    p.add_argument("--b1", default="0", help="first framing")
    p.add_argument("--b2", default="0", help="second framing")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("batch", help="classify a CSV of multislopes")
    p.add_argument("input", help="CSV with header id,s1,s2[,label]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("plot", help="scatter the verdict classes over a "
                                    "slope grid")
    p.add_argument("--bounds", required=True,
                   help="integer grid 'pmin:pmax,qmin:qmax'")
    p.add_argument("--format", choices=("tsv", "svg"), default="tsv")
    p.add_argument("--max-den",
                   help="keep only slopes with denominator at most this")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
