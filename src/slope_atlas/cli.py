"""Command line interface: the command table, its parser and `main`.

Subcommands: classify, monodromy, region, batch, plot.  Exit codes: 0 on
success, 1 when the reader of stdout closes it early or it was closed at
start, 2 on malformed input (the diagnostic names the offending token).
`batch` lives in `cli_batch`, `monodromy` and `region` in `cli_regions`,
`plot` in `cli_plot`, and each is imported only when its command runs, so
a run compiles only its own command: the import, `--help` and a usage
error load neither `rational` nor `whitehead`.  Only batch loads `csv`, and
only the commands that write JSON load `json`.
"""

import os
import sys
from types import SimpleNamespace

from .cli_output import _emit, _emit_json


def cmd_classify(args):
    from .rational import parse_slope
    from .whitehead import classify
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


def cmd_plot(args):
    from . import cli_plot
    return cli_plot.cmd_plot(args)


REQUIRED = object()
# Each command's one-line help, its positionals and its options with their
# defaults; a default of False marks a flag and REQUIRED an option that must
# be given.  `main` looks `cmd_<name>` up when it runs, so a rebound
# function is the one called; each imports its modules only then.
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


def _shown(tok):
    from .rational import shown_token
    return repr(shown_token(tok))


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
                          f"unknown command {_shown(name)}")
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
                raise ValueError(f"{name}: unknown option {_shown(tok)}")
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
            _emit(usage(name), None)
            return 0
        return globals()["cmd_" + name](args)
    except BrokenPipeError:
        # Not bad input.  Stdout now goes to devnull, so the flush at exit
        # cannot fail again; a stdout closed at start has nothing to flush.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
