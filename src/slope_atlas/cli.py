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

from .rational import (INT_RE, ExtRational, format_terms, parse_int,
                       parse_slope, shown_token, slope_terms)
from .whitehead import (
    _cell,
    _decide,
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
    """UTF-8 text handle whose contents replace ``path`` only when the block
    completes.  A target ``open(path, "w")`` would refuse is refused; a new
    file gets that call's mode and an existing one keeps its mode.  The
    result is a new file: hard links to the old one keep the old contents
    and its owner is the writer.  No ``path`` means stdout, as it is set."""
    if not path:
        yield sys.stdout
        return
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        # A device or pipe such as /dev/stdout cannot be replaced.
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
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
        with open(fd, "w", newline=newline, encoding="utf-8") as fh:
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


def _token_cell(text):
    """A batch run's entry for the slope field ``text``, read as lowest
    terms (num, den): the slope's text, the text of abs(num) and its cell."""
    num, den = slope_terms(text)
    return format_terms(num, den), str(abs(num)), _cell(num, den)


def _pair_entry(f1, f2):
    """A batch run's entry for the slope cells (f1, f2): its qhs cell, its
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
    # Stripped slope token -> its _token_cell; cleared when full.
    seen = {}
    get, put = seen.get, seen.setdefault
    # (cell, cell) -> _pair_entry; only 49 cell pairs exist, so it is
    # never cleared.
    pairs = {}
    with open(args.input, newline="", encoding="utf-8-sig") as fh:
        rows, end = csv.reader(fh), 0
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
                        c1 = get(t1) or put(t1, _token_cell(row[1]))
                        c2 = get(t2) or put(t2, _token_cell(row[2]))
                    except ValueError as exc:
                        failures += 1
                        print(f"{args.input}:{lineno}: {exc}",
                              file=sys.stderr)
                        continue
                    # Outside the try: an error from the rules aborts the run.
                    key = c1[2], c2[2]
                    pair = pairs.get(key)
                    if pair is None:
                        pair = pairs[key] = _pair_entry(*key)
                    pair[4] += 1
                    ident = row[0].strip()
                    if _csv_special(ident):
                        ident = _csv_quoted(ident)
                    tail = ""
                    if has_label:
                        label = row[3].strip()
                        ok = label == pair[2]
                        agree += ok
                        if _csv_special(label):
                            label = _csv_quoted(label)
                        tail = f",{label},{'true' if ok else 'false'}"
                    write(f"{ident},{c1[0]},{c2[0]},{pair[0]},{c1[1]},"
                          f"{c2[1]},{pair[1]}{tail}\n")
        except csv.Error as exc:
            raise ValueError(f"{args.input}:{end + 1}: {exc}") from None
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
    # A row of classes depends only on the cell of its slope, and only
    # seven cells exist, so each row is decided and rendered once per cell.
    cells = [_cell(s.num, s.den) for s in slopes]
    tails = {f1: [col + label(plot_class(_decide(f1, f2))) + end
                  for col, f2 in zip(columns, cells)] for f1 in set(cells)}
    # Each slope's block is written as it is formed, so memory stays flat.
    with _atomic_out(args.out) as out:
        out.write(top)
        for head, f in zip(heads, cells):
            out.write(head + head.join(tails[f]))
        out.write(foot)
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
