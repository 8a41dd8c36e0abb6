"""Command line interface.

Subcommands: classify, monodromy, region, batch, plot.  Exit codes: 0 on
success, 2 on malformed input (the diagnostic names the offending token).
`monodromy` and `region` import the region modules when they run; classify,
batch and plot need only `rational` and `whitehead`.  Only batch loads
`csv`, and only the commands that write JSON load `json`.
"""

import contextlib
import os
import re
import stat
import sys
from types import SimpleNamespace

from .rational import (INT_RE, ExtRational, parse_int, parse_slope,
                       shown_token)
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
# Finds a character that a CSV cell must quote: comma, quote, CR or LF.
_csv_special = re.compile('[,"\r\n]').search

# Largest plot grid, in (numerator, denominator) points; the pair count
# grows with the square of it.
MAX_GRID_POINTS = 1024


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
    contents and its owner is the writer.  No ``path`` means stdout."""
    if not path:
        yield sys.stdout
        return
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
    with _atomic_out(out_path) as fh:
        fh.write(text)


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


def _token_cell(s, index):
    """A batch run's entry for a slope token: str(s), str(abs(s.num)) and
    the index of ``_facts(s)`` in ``index``, the run's dict from slope facts
    to their order of first sight."""
    return str(s), str(abs(s.num)), index.setdefault(_facts(s), len(index))


def _pair_entry(f1, f2):
    """A batch run's entry for the fact pair (f1, f2): its qhs cell, its
    lspace, foliation, euler_zero and left_orderable cells joined, its
    left_orderable value and plot class, and a row count."""
    d = _decide(f1, f2)
    lo = d.left_orderable.value
    return ["true" if d.is_qhs else "false",
            f"{d.lspace.value},{d.taut_foliation.value},"
            f"{d.euler_vanishing.value},{lo}", lo, plot_class(d), 0]


def _csv_quoted(text):
    """``text`` as a quoted CSV cell, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def cmd_batch(args):
    """Classify the input CSV row by row in one pass; memory stays flat."""
    import csv   # only batch reads CSV
    header = "id,s1,s2,qhs,h1,h2,lspace,foliation,euler_zero,left_orderable"
    agree = failures = 0
    # Stripped slope token -> its _token_cell, or the bare slope until a
    # row with it parses; cleared when full.
    seen = {}
    get, put = seen.get, seen.setdefault
    # Slope facts -> index, and (index, index) -> _pair_entry; at most 7
    # facts and 49 pairs exist, so neither is ever cleared.
    index, pairs = {}, {}
    with open(args.input, newline="") as fh:
        rows = csv.reader(fh)
        try:
            first = next(rows, None)
            if first is None:
                raise ValueError(f"{args.input}: empty file, missing header")
            has_label = parse_batch_header(first)
            width = len(first)
            with _atomic_out(args.out, newline="") as out:
                write = out.write
                write(header + (",label,agrees\n" if has_label else "\n"))
                # A quoted field may span lines, so each record is numbered
                # by the first physical line after the previous record.
                end = rows.line_num
                for row in rows:
                    lineno, end = end + 1, rows.line_num
                    if not row:
                        continue
                    if len(seen) >= _BATCH_TOKENS:
                        seen.clear()
                    try:
                        if len(row) != width:
                            raise ValueError(
                                f"expected {width} fields, got {len(row)}")
                        t1, t2 = row[1].strip(), row[2].strip()
                        c1 = get(t1) or put(t1, parse_slope(row[1]))
                        c2 = get(t2) or put(t2, parse_slope(row[2]))
                    except ValueError as exc:
                        failures += 1
                        print(f"{args.input}:{lineno}: {exc}",
                              file=sys.stderr)
                        continue
                    # Outside the try: an error from the rules aborts the run.
                    if c1.__class__ is ExtRational:
                        c1 = seen[t1] = _token_cell(c1, index)
                    if c2.__class__ is ExtRational:
                        c2 = seen[t2] = _token_cell(c2, index)
                    key = c1[2], c2[2]
                    pair = pairs.get(key)
                    if pair is None:
                        facts = list(index)
                        pair = pairs[key] = _pair_entry(facts[key[0]],
                                                        facts[key[1]])
                    pair[4] += 1
                    ident = row[0].strip()
                    if _csv_special(ident):
                        ident = _csv_quoted(ident)
                    if has_label:
                        label = row[3].strip()
                        ok = label == pair[2]
                        agree += ok
                        if _csv_special(label):
                            label = _csv_quoted(label)
                        write(f"{ident},{c1[0]},{c2[0]},{pair[0]},{c1[1]},"
                              f"{c2[1]},{pair[1]},{label},"
                              f"{'true' if ok else 'false'}\n")
                    else:
                        write(f"{ident},{c1[0]},{c2[0]},{pair[0]},{c1[1]},"
                              f"{c2[1]},{pair[1]}\n")
        except csv.Error as exc:
            raise ValueError(str(exc)) from None
    done = 0
    tally = dict.fromkeys(["lspace", "foliation", "non-qhs"] + [
        f"left-orderable {k}" for k in ("yes", "no", "unknown", "na")], 0)
    for _, _, lo, cls, n in pairs.values():
        done += n
        tally[cls] += n
        tally["left-orderable " + lo] += n
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


def _svg_scatter(out, values, facts, rows):
    """Write to ``out`` the SVG scatter with ``rows[facts[i]][j]`` drawn at
    (values[i], values[j]), ``values`` sorted; a row may run past
    ``values``."""
    lo, hi = values[0], values[-1]
    ys = [svg_coord(v, lo, hi, flip=True) for v in values]
    # Each row's circles differ only in cx, so their tails are formatted
    # once per distinct fact.
    tails = {f: [f'" cy="{cy}" r="3" fill="{_PLOT_COLORS[cls]}"/>\n'
                 for cy, cls in zip(ys, rows[f])] for f in set(facts)}
    out.write('<svg xmlns="http://www.w3.org/2000/svg" width="640" '
              'height="640" viewBox="0 0 640 640">\n'
              '<rect width="640" height="640" fill="white"/>\n'
              '<rect x="40" y="40" width="560" height="560" fill="none" '
              'stroke="black"/>\n')
    for v, f in zip(values, facts):
        head = '<circle cx="' + svg_coord(v, lo, hi)
        out.write(head + head.join(tails[f]))
    out.write('<text x="40" y="24" font-size="12">'
              'red: lspace  blue: foliation  gray: non-qhs</text>\n'
              '</svg>\n')


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
    # A row of classes depends only on the facts of its slope, and at most
    # 7 distinct facts occur, so each row is decided and rendered once.
    facts = [_facts(s) for s in slopes]
    classes = {f1: [plot_class(_decide(f1, f2)) for f2 in facts]
               for f1 in set(facts)}
    if args.format == "svg":
        # Infinity sorts last, so the finite slopes are a prefix of the grid.
        finite = slopes[:-1] if slopes[-1].is_infinite() else slopes
        if not finite:
            raise ValueError("no finite slope pairs to plot")
        with _atomic_out(args.out) as out:
            _svg_scatter(out, finite, facts[:len(finite)], classes)
        return 0
    names = [str(s) for s in slopes]
    tails = {f: [f"\t{b}\t{cls}\n" for b, cls in zip(names, row)]
             for f, row in classes.items()}
    # Each slope's block is written as it is formed, so memory stays flat.
    with _atomic_out(args.out) as out:
        out.write("s1\ts2\tclass\n")
        for a, f in zip(names, facts):
            out.write(a + a.join(tails[f]))
    return 0


REQUIRED = object()
# Each command's one-line help, its positionals and its options with their
# defaults; a default of False marks a flag and REQUIRED an option that must
# be given.  `main` looks `cmd_<name>` up when it runs, so a rebound
# function is the one called.
COMMANDS = {
    "classify": ("classify one surgery multislope; a slope is p, p/q or inf",
                 ("s1", "s2"), {"out": None}),
    "monodromy": ("report the boundary data of the word 'a0; a1, ..., ak'",
                  ("word",), {"json": False, "out": None}),
    "region": ("print the L-space and taut-foliation regions", (),
               {"b1": "0", "b2": "0", "json": False, "out": None}),
    "batch": ("classify a CSV with header id,s1,s2[,label]", ("input",),
              {"out": REQUIRED}),
    "plot": ("scatter the verdict classes over the slope grid "
             "pmin:pmax,qmin:qmax as tsv or svg", (),
             {"bounds": REQUIRED, "format": "tsv", "max-den": None,
              "out": None}),
}


def usage(name=None):
    """Usage text of the command ``name``, or of every command."""
    lines = [] if name else ["Exact classification of Whitehead-link "
                             "surgeries and torus-bundle boundary data."]
    for cmd in [name] if name else COMMANDS:
        text, positionals, options = COMMANDS[cmd]
        words = ["usage: slope-atlas", cmd, *map(str.upper, positionals)]
        for opt, default in options.items():
            word = f"--{opt}" if default is False else f"--{opt} {opt.upper()}"
            if default is not REQUIRED:
                word = f"[{word}{f' (default {default})' if default else ''}]"
            words.append(word)
        lines += [" ".join(words), "    " + text]
    return "\n".join(lines) + "\n"


def parse_args(argv):
    """(command name, namespace of its arguments) of ``argv``, with a None
    namespace when it asks for help.  Option names are exact, ``--`` ends
    the options, a repeated option keeps its last value and every other
    token is a positional.  A usage error raises ValueError."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        return None, None
    if name not in COMMANDS:
        raise ValueError(("missing command" if name is None else
                          f"unknown command {shown_token(name)!r}")
                         + ": expected one of " + ", ".join(COMMANDS))
    _, names, options = COMMANDS[name]
    values, given, tokens = dict(options), [], iter(argv[1:])
    for tok in tokens:
        if tok == "--":
            given.extend(tokens)
        elif tok in ("-h", "--help"):
            return name, None
        elif tok.startswith("--"):
            opt, eq, value = tok[2:].partition("=")
            if opt not in options:
                raise ValueError(f"{name}: unknown option "
                                 f"{shown_token(tok)!r}")
            if options[opt] is False:
                if eq:
                    raise ValueError(f"{name}: --{opt} takes no value")
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"{name}: --{opt} needs a value")
            values[opt] = value
        else:
            given.append(tok)
    if len(given) != len(names):
        raise ValueError(f"{name}: expected {len(names)} positional "
                         f"arguments, got {len(given)}")
    for opt, value in values.items():
        if value is REQUIRED:
            raise ValueError(f"{name}: --{opt} is required")
    values = {opt.replace("-", "_"): v for opt, v in values.items()}
    return name, SimpleNamespace(**values, **dict(zip(names, given)))


def main(argv=None):
    try:
        name, args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(usage(name))
            return 0
        return globals()["cmd_" + name](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
