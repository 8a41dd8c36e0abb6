"""Command line interface: the command table, its parser and `main`.

Subcommands: classify, monodromy, region, batch, plot.  Exit codes: 0 on
success, 1 when the reader of stdout closes it early, 2 on malformed input
(the diagnostic names the offending token).
`batch` lives in `cli_batch`, `monodromy` and `region` in `cli_regions`,
and each is imported only when its command runs, so a run compiles only
its own command.  Only batch loads `csv`, and only the commands that
write JSON load `json`.
"""

import os
import re
import sys
from types import SimpleNamespace

from .cli_output import _atomic_out, _emit_json
from .rational import (INF, INT_RE, _slope_of_terms, lowest_terms,
                       parse_int, parse_slope, shown_token)
from .whitehead import _cell, _decide, classify, plot_class


_BOUNDS_RE = re.compile("({0}):({0}),({0}):({0})".format(INT_RE.pattern))

# Largest plot grid, in (numerator, denominator) points; the pair count
# grows with the square of it.
MAX_GRID_POINTS = 1024


def cmd_classify(args):
    s1 = parse_slope(args.s1)
    s2 = parse_slope(args.s2)
    verdict = classify(s1, s2)
    _emit_json(verdict.to_json_dict(), args.out)
    return 0


def cmd_monodromy(args):
    from . import cli_regions
    return cli_regions.cmd_monodromy(args)


def cmd_region(args):
    from . import cli_regions
    return cli_regions.cmd_region(args)


def cmd_batch(args):
    from . import cli_batch
    return cli_batch.cmd_batch(args)


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
    except BrokenPipeError:
        # Not bad input.  Stdout now goes to devnull, so the flush at exit
        # cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
